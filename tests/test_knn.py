"""Tests for time-interval kNN (the paper's §7 future-work extension)."""

from __future__ import annotations

import pytest

from repro.core.astar import fixed_departure_query
from repro.core.engine import IntAllFastestPaths
from repro.core.knn import interval_knn, nearest_partition
from repro.exceptions import QueryError
from repro.network.generator import (
    EXAMPLE_E,
    EXAMPLE_N,
    EXAMPLE_S,
)
from repro.timeutil import TimeInterval, parse_clock

WINDOW = TimeInterval(parse_clock("6:30"), parse_clock("8:30"))


class TestIntervalKnn:
    def test_ranks_match_singlefp_optima(self, metro_tiny):
        """Each neighbour's min travel time equals the singleFP optimum."""
        engine = IntAllFastestPaths(metro_tiny)
        candidates = [11, 37, 55, 83, 99]
        result = interval_knn(metro_tiny, 0, candidates, 3, WINDOW)
        assert len(result.neighbors) == 3
        for neighbor in result:
            exact = engine.single_fastest_path(0, neighbor.node, WINDOW)
            assert neighbor.min_travel_time == pytest.approx(
                exact.optimal_travel_time, abs=1e-6
            )

    def test_ranking_is_by_min_travel_time(self, metro_tiny):
        result = interval_knn(metro_tiny, 0, [11, 37, 55, 83, 99], 5, WINDOW)
        times = [n.min_travel_time for n in result]
        assert times == sorted(times)
        assert [n.rank for n in result] == [1, 2, 3, 4, 5]

    def test_k_truncates(self, metro_tiny):
        full = interval_knn(metro_tiny, 0, [11, 37, 55], 3, WINDOW)
        top1 = interval_knn(metro_tiny, 0, [11, 37, 55], 1, WINDOW)
        assert top1.node_ids() == full.node_ids()[:1]

    def test_travel_function_matches_engine(self, metro_tiny):
        engine = IntAllFastestPaths(metro_tiny)
        result = interval_knn(metro_tiny, 0, [55], 1, WINDOW)
        (neighbor,) = result.neighbors
        exact = engine.all_fastest_paths(0, 55, WINDOW)
        for instant in WINDOW.sample(9):
            assert neighbor.travel_time_function(instant) == pytest.approx(
                exact.travel_time_at(instant), abs=1e-6
            )

    def test_travel_functions_match_fixed_departure_oracle(self, metro_tiny):
        """Every neighbour's function agrees with scalar A* per instant, and
        the candidate left out is never faster than the k-th neighbour."""
        candidates = [33, 55, 67, 99]
        result = interval_knn(metro_tiny, 0, candidates, 3, WINDOW)
        for neighbor in result:
            for instant in WINDOW.sample(9):
                oracle = fixed_departure_query(
                    metro_tiny, 0, neighbor.node, instant
                )
                assert neighbor.travel_time_function(instant) == pytest.approx(
                    oracle.travel_time, abs=1e-6
                )
        (left_out,) = set(candidates) - set(result.node_ids())
        for instant in WINDOW.sample(9):
            oracle = fixed_departure_query(metro_tiny, 0, left_out, instant)
            assert oracle.travel_time >= (
                result.neighbors[-1].min_travel_time - 1e-6
            )

    def test_reachable_count(self, metro_tiny):
        result = interval_knn(metro_tiny, 0, [11, 37], 2, WINDOW)
        assert result.reachable_candidates == 2

    def test_rejects_bad_k(self, metro_tiny):
        with pytest.raises(QueryError):
            interval_knn(metro_tiny, 0, [11], 0, WINDOW)

    def test_rejects_empty_candidates(self, metro_tiny):
        with pytest.raises(QueryError):
            interval_knn(metro_tiny, 0, [], 1, WINDOW)

    def test_rejects_source_candidate(self, metro_tiny):
        with pytest.raises(QueryError):
            interval_knn(metro_tiny, 0, [0, 11], 1, WINDOW)


class TestNearestPartition:
    def test_paper_example_partition(self, example_network):
        """From s, is n or e 'nearer' in travel time?  e is 6 min away at
        all times; n costs 6 min before 6:54, then drops to 2 min by 7:00 —
        but it is already the co-nearest from the window start."""
        window = TimeInterval(parse_clock("6:50"), parse_clock("7:05"))
        entries, border = nearest_partition(
            example_network, EXAMPLE_S, [EXAMPLE_N, EXAMPLE_E], window
        )
        assert entries[0].node == EXAMPLE_N  # ties break to first added
        assert entries[-1].node == EXAMPLE_N
        assert border(parse_clock("7:00")) == pytest.approx(2.0)
        assert border(parse_clock("6:50")) == pytest.approx(6.0)

    def test_partition_covers_interval(self, metro_tiny):
        entries, border = nearest_partition(
            metro_tiny, 0, [11, 37, 55, 99], WINDOW
        )
        assert entries[0].interval.start == WINDOW.start
        assert entries[-1].interval.end == WINDOW.end
        for a, b in zip(entries, entries[1:]):
            assert a.interval.end == pytest.approx(b.interval.start)

    def test_border_is_min_over_candidates(self, metro_tiny):
        engine = IntAllFastestPaths(metro_tiny)
        candidates = [11, 55, 99]
        entries, border = nearest_partition(metro_tiny, 0, candidates, WINDOW)
        for instant in WINDOW.sample(9):
            expected = min(
                engine.all_fastest_paths(0, c, WINDOW).travel_time_at(instant)
                for c in candidates
            )
            assert border(instant) == pytest.approx(expected, abs=1e-6)

    def test_border_matches_fixed_departure_oracle(self, metro_tiny):
        """Border and owner agree with scalar A* run per candidate."""
        candidates = [33, 55, 99]
        entries, border = nearest_partition(metro_tiny, 0, candidates, WINDOW)
        for instant in WINDOW.sample(9):
            times = {
                c: fixed_departure_query(metro_tiny, 0, c, instant).travel_time
                for c in candidates
            }
            assert border(instant) == pytest.approx(
                min(times.values()), abs=1e-6
            )
            owner = next(
                e.node for e in entries if e.interval.contains(instant)
            )
            assert times[owner] == pytest.approx(min(times.values()), abs=1e-6)

    def test_nearest_candidate_achieves_border(self, metro_tiny):
        engine = IntAllFastestPaths(metro_tiny)
        entries, border = nearest_partition(
            metro_tiny, 0, [11, 55, 99], WINDOW
        )
        for entry in entries:
            mid = 0.5 * (entry.interval.start + entry.interval.end)
            exact = engine.all_fastest_paths(0, entry.node, WINDOW)
            assert exact.travel_time_at(mid) == pytest.approx(
                border(mid), abs=1e-6
            )

    def test_rejects_empty(self, metro_tiny):
        with pytest.raises(QueryError):
            nearest_partition(metro_tiny, 0, [], WINDOW)
