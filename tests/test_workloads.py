"""Unit tests for query workload generation."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import QueryError
from repro.timeutil import parse_clock
from repro.workloads.queries import (
    distance_band_queries,
    evening_rush_interval,
    morning_rush_interval,
    random_queries,
    random_query,
)


class TestRushIntervals:
    def test_morning_default(self):
        interval = morning_rush_interval()
        assert interval.start == parse_clock("7:00")
        assert interval.end == parse_clock("10:00")

    def test_morning_custom_length(self):
        interval = morning_rush_interval(2.0)
        assert interval.length == 120.0

    def test_morning_day_offset(self):
        interval = morning_rush_interval(1.0, day=2)
        assert interval.start == parse_clock("7:00", day=2)

    def test_evening(self):
        interval = evening_rush_interval(1.0)
        assert interval.start == parse_clock("16:00")


class TestRandomQuery:
    def test_distance_band_respected(self, metro_small):
        rng = random.Random(0)
        interval = morning_rush_interval()
        for _ in range(20):
            q = random_query(metro_small, interval, rng, 1.0, 2.0)
            assert 1.0 <= q.euclidean_distance <= 2.0
            assert q.source != q.target

    def test_impossible_band_raises(self, metro_small):
        rng = random.Random(0)
        with pytest.raises(QueryError):
            random_query(
                metro_small, morning_rush_interval(), rng, 500.0, 600.0,
                max_attempts=50,
            )

    def test_tiny_network_raises(self):
        from repro.network.model import CapeCodNetwork
        from repro.patterns.categories import Calendar

        net = CapeCodNetwork(Calendar.single_category())
        net.add_node(0, 0.0, 0.0)
        with pytest.raises(QueryError):
            random_query(net, morning_rush_interval(), random.Random(0))


class TestBatchGenerators:
    def test_random_queries_count_and_determinism(self, metro_small):
        interval = morning_rush_interval()
        a = random_queries(metro_small, 10, interval, seed=5)
        b = random_queries(metro_small, 10, interval, seed=5)
        c = random_queries(metro_small, 10, interval, seed=6)
        assert len(a) == 10
        assert a == b
        assert a != c

    def test_distance_band_queries(self, metro_small):
        interval = morning_rush_interval()
        bands = [(0.5, 1.5), (1.5, 2.5)]
        workload = distance_band_queries(metro_small, bands, 5, interval, seed=1)
        assert set(workload) == set(bands)
        for (lo, hi), queries in workload.items():
            assert len(queries) == 5
            for q in queries:
                assert lo <= q.euclidean_distance <= hi
                assert q.interval == interval

    def test_query_str(self, metro_small):
        q = random_queries(metro_small, 1, morning_rush_interval(), seed=0)[0]
        text = str(q)
        assert str(q.source) in text and "mi" in text
