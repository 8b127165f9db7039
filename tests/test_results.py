"""Unit tests for result types: formatting, serialization, helpers."""

from __future__ import annotations

import json

import pytest

from repro.core.results import (
    AllFPEntry,
    AllFPResult,
    FixedPathResult,
    SearchStats,
    SingleFPResult,
    merge_adjacent_entries,
)
from repro.func.piecewise import PiecewiseLinearFunction
from repro.timeutil import TimeInterval, parse_clock

PLF = PiecewiseLinearFunction


@pytest.fixture
def stats():
    return SearchStats(
        expanded_paths=10,
        distinct_nodes=7,
        labels_generated=25,
        pruned_dominated=3,
        pruned_bound=2,
        max_queue_size=9,
        page_reads=4,
    )


@pytest.fixture
def allfp(stats):
    interval = TimeInterval(parse_clock("7:00"), parse_clock("8:00"))
    mid = parse_clock("7:30")
    return AllFPResult(
        source=1,
        target=9,
        interval=interval,
        entries=(
            AllFPEntry(TimeInterval(interval.start, mid), (1, 2, 9)),
            AllFPEntry(TimeInterval(mid, interval.end), (1, 3, 9)),
        ),
        border=PLF(
            [(interval.start, 10.0), (mid, 6.0), (interval.end, 8.0)]
        ),
        stats=stats,
    )


class TestSearchStats:
    def test_as_dict_keys(self, stats):
        d = stats.as_dict()
        assert d["expanded_paths"] == 10
        assert d["page_reads"] == 4
        assert d["breakpoints_allocated"] == 0
        assert d["edge_cache_hits"] == 0
        assert d["timed_out"] is False
        assert d["bound_evaluations"] == 0
        assert len(d) == 14

    def test_default_zeroed(self):
        assert SearchStats().expanded_paths == 0


class TestFixedPathResult:
    def test_travel_time(self, stats):
        result = FixedPathResult(1, 9, 100.0, (1, 2, 9), 106.5, stats)
        assert result.travel_time == pytest.approx(6.5)

    def test_str(self, stats):
        result = FixedPathResult(1, 9, parse_clock("7:00"), (1, 9), 426.0, stats)
        text = str(result)
        assert "7:00" in text and "1 -> 9" in text and "6m" in text


class TestSingleFPResult:
    @pytest.fixture
    def single(self, stats):
        interval = TimeInterval(parse_clock("7:00"), parse_clock("8:00"))
        fn = PLF([(interval.start, 10.0), (interval.end, 5.0)])
        return SingleFPResult(
            source=1,
            target=9,
            interval=interval,
            path=(1, 2, 9),
            travel_time_function=fn,
            optimal_travel_time=5.0,
            optimal_intervals=((interval.end, interval.end),),
            stats=stats,
        )

    def test_best_leaving_time(self, single):
        assert single.best_leaving_time == parse_clock("8:00")

    def test_str(self, single):
        text = str(single)
        assert "singleFP 1->9" in text and "5m" in text

    def test_as_dict_json_roundtrip(self, single):
        blob = json.dumps(single.as_dict())
        back = json.loads(blob)
        assert back["path"] == [1, 2, 9]
        assert back["optimal_travel_time"] == 5.0
        assert back["stats"]["expanded_paths"] == 10


class TestAllFPResult:
    def test_len_iter(self, allfp):
        assert len(allfp) == 2
        assert [e.path for e in allfp] == [(1, 2, 9), (1, 3, 9)]

    def test_distinct_paths_order(self, allfp):
        assert allfp.distinct_paths == ((1, 2, 9), (1, 3, 9))

    def test_path_at(self, allfp):
        assert allfp.path_at(parse_clock("7:10")) == (1, 2, 9)
        assert allfp.path_at(parse_clock("7:45")) == (1, 3, 9)

    def test_path_at_outside_raises(self, allfp):
        with pytest.raises(ValueError):
            allfp.path_at(parse_clock("9:00"))

    def test_travel_time_at_clamps(self, allfp):
        inside = allfp.travel_time_at(parse_clock("7:00"))
        clamped = allfp.travel_time_at(parse_clock("6:00"))
        assert inside == clamped == pytest.approx(10.0)

    def test_best(self, allfp):
        leave, travel = allfp.best()
        assert leave == parse_clock("7:30")
        assert travel == pytest.approx(6.0)

    def test_str(self, allfp):
        text = str(allfp)
        assert "allFP 1->9" in text
        assert "2 sub-interval(s)" in text

    def test_as_dict_json_roundtrip(self, allfp):
        blob = json.dumps(allfp.as_dict())
        back = json.loads(blob)
        assert len(back["entries"]) == 2
        assert back["entries"][0]["path"] == [1, 2, 9]
        assert back["border"][0] == [parse_clock("7:00"), 10.0]


class TestMergeAdjacentEntries:
    def test_merges_runs(self):
        entries = [
            AllFPEntry(TimeInterval(0.0, 10.0), (1, 2)),
            AllFPEntry(TimeInterval(10.0, 20.0), (1, 2)),
            AllFPEntry(TimeInterval(20.0, 30.0), (1, 3)),
        ]
        merged = merge_adjacent_entries(entries)
        assert len(merged) == 2
        assert merged[0].interval.end == 20.0

    def test_keeps_alternation(self):
        entries = [
            AllFPEntry(TimeInterval(0.0, 10.0), (1, 2)),
            AllFPEntry(TimeInterval(10.0, 20.0), (1, 3)),
            AllFPEntry(TimeInterval(20.0, 30.0), (1, 2)),
        ]
        assert len(merge_adjacent_entries(entries)) == 3

    def test_empty(self):
        assert merge_adjacent_entries([]) == ()

    def test_entry_str(self):
        entry = AllFPEntry(
            TimeInterval(parse_clock("7:00"), parse_clock("7:30")), (1, 2)
        )
        assert str(entry) == "[7:00, 7:30]: 1 -> 2"
