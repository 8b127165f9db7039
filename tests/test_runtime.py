"""The shared search runtime: one SearchContext under every engine.

Covers the unified contracts every engine now honours:

* ``deadline`` → :class:`QueryTimeout` with partial stats (``timed_out``),
* ``max_pops`` → :class:`SearchBudgetExceeded` with partial stats,
* fully-populated :class:`SearchStats` on success (``elapsed_seconds``,
  ``distinct_nodes``) — including on engines that used to report partial
  or no stats (A*, profile, kNN, discrete),
* :class:`NoPathError` carrying the finalized stats of the exhausted search,
* one context (and so one warm edge cache) shared across engines.
"""

from __future__ import annotations

import pytest

from repro.core.astar import fixed_departure_query
from repro.core.discrete import DiscreteTimeModel
from repro.core.engine import IntAllFastestPaths
from repro.core.knn import interval_knn
from repro.core.profile import profile_search
from repro.core.runtime import (
    EdgeFunctionCache,
    QueryTimeout,
    SearchBudgetExceeded,
    SearchContext,
)
from repro.exceptions import NoPathError
from repro.hierarchy import MultiLevelOverlay, OverlayEngine
from repro.timeutil import TimeInterval


@pytest.fixture
def interval() -> TimeInterval:
    return TimeInterval.from_clock("7:00", "8:00")


@pytest.fixture(scope="module")
def horizon() -> TimeInterval:
    return TimeInterval.from_clock("5:00", "14:00")


def _assert_partial_stats(stats) -> None:
    """A budget/timeout exit still carries a finalized counter set."""
    assert stats is not None
    assert stats.elapsed_seconds > 0.0


def _assert_success_stats(stats) -> None:
    assert stats.expanded_paths > 0
    assert stats.distinct_nodes > 0
    assert stats.elapsed_seconds > 0.0
    assert not stats.timed_out


# ----------------------------------------------------------------------
# Uniform deadline enforcement: deadline=0 times out on every engine.
# ----------------------------------------------------------------------


class TestDeadlines:
    def test_interval_engine(self, metro_tiny, interval):
        engine = IntAllFastestPaths(metro_tiny)
        with pytest.raises(QueryTimeout) as info:
            engine.all_fastest_paths(0, 99, interval, deadline=0.0)
        assert info.value.stats.timed_out
        _assert_partial_stats(info.value.stats)

    def test_astar(self, metro_tiny):
        with pytest.raises(QueryTimeout) as info:
            fixed_departure_query(metro_tiny, 0, 99, 420.0, deadline=0.0)
        assert info.value.stats.timed_out
        _assert_partial_stats(info.value.stats)

    def test_profile(self, metro_tiny, interval):
        with pytest.raises(QueryTimeout) as info:
            profile_search(metro_tiny, 0, interval, deadline=0.0)
        assert info.value.stats.timed_out
        _assert_partial_stats(info.value.stats)

    def test_discrete(self, metro_tiny, interval):
        model = DiscreteTimeModel(metro_tiny, deadline=0.0)
        with pytest.raises(QueryTimeout) as info:
            model.single_fastest_path(0, 99, interval, step=15.0)
        assert info.value.stats.timed_out
        _assert_partial_stats(info.value.stats)

    def test_knn(self, metro_tiny, interval):
        with pytest.raises(QueryTimeout) as info:
            interval_knn(
                metro_tiny, 0, [55, 67, 99], 2, interval, deadline=0.0
            )
        assert info.value.stats.timed_out

    def test_arrival_engine(self, metro_tiny, interval):
        from repro.core.arrival import ArrivalIntAllFastestPaths

        engine = ArrivalIntAllFastestPaths(metro_tiny)
        with pytest.raises(QueryTimeout) as info:
            engine.all_fastest_paths(0, 99, interval, deadline=0.0)
        assert info.value.stats.timed_out

    def test_hierarchy_build(self, metro_tiny, horizon):
        with pytest.raises(QueryTimeout) as info:
            MultiLevelOverlay.build(
                metro_tiny, levels=1, nx=3, horizon=horizon, deadline=0.0
            )
        assert info.value.stats.timed_out

    def test_hierarchy_query(self, metro_tiny, horizon):
        engine = OverlayEngine(
            MultiLevelOverlay.build(metro_tiny, levels=1, nx=3, horizon=horizon)
        )
        window = TimeInterval.from_clock("6:30", "9:30")
        with pytest.raises(QueryTimeout):
            engine.all_fastest_paths(0, 99, window, deadline=0.0)


# ----------------------------------------------------------------------
# Uniform pop budgets: max_pops=1 cuts every engine short.
# ----------------------------------------------------------------------


class TestBudgets:
    def test_interval_engine(self, metro_tiny, interval):
        engine = IntAllFastestPaths(metro_tiny, max_pops=1)
        with pytest.raises(SearchBudgetExceeded) as info:
            engine.all_fastest_paths(0, 99, interval)
        assert info.value.what == "max_pops"
        assert info.value.budget == 1
        _assert_partial_stats(info.value.stats)

    def test_astar(self, metro_tiny):
        with pytest.raises(SearchBudgetExceeded) as info:
            fixed_departure_query(metro_tiny, 0, 99, 420.0, max_pops=1)
        _assert_partial_stats(info.value.stats)

    def test_profile(self, metro_tiny, interval):
        with pytest.raises(SearchBudgetExceeded) as info:
            profile_search(metro_tiny, 0, interval, max_pops=1)
        _assert_partial_stats(info.value.stats)

    def test_discrete_budget_is_total(self, metro_tiny, interval):
        # Generous enough for the first instant, not for the whole batch.
        first = fixed_departure_query(metro_tiny, 0, 99, interval.start)
        budget = first.stats.expanded_paths + 1
        model = DiscreteTimeModel(metro_tiny, max_pops=budget)
        with pytest.raises(SearchBudgetExceeded) as info:
            model.single_fastest_path(0, 99, interval, step=15.0)
        assert info.value.stats.expanded_paths >= first.stats.expanded_paths

    def test_knn(self, metro_tiny, interval):
        with pytest.raises(SearchBudgetExceeded):
            interval_knn(metro_tiny, 0, [55, 67, 99], 2, interval, max_pops=1)

    def test_arrival_engine(self, metro_tiny, interval):
        from repro.core.arrival import ArrivalIntAllFastestPaths

        engine = ArrivalIntAllFastestPaths(metro_tiny, max_pops=1)
        with pytest.raises(SearchBudgetExceeded) as info:
            engine.all_fastest_paths(0, 99, interval)
        _assert_partial_stats(info.value.stats)

    def test_hierarchy_build(self, metro_tiny, horizon):
        with pytest.raises(SearchBudgetExceeded):
            MultiLevelOverlay.build(
                metro_tiny, levels=1, nx=3, horizon=horizon, max_pops=1
            )

    def test_profile_relaxation_budget_is_typed(
        self, metro_tiny, interval, monkeypatch
    ):
        # Force the FIFO safety valve to fire on the first relaxation: the
        # old code raised a bare QueryError with no counters.
        monkeypatch.setattr(
            "repro.core.profile._MAX_RELAXATIONS_FACTOR", 0
        )
        with pytest.raises(SearchBudgetExceeded) as info:
            profile_search(metro_tiny, 0, interval)
        assert info.value.what == "relaxations"
        _assert_partial_stats(info.value.stats)


# ----------------------------------------------------------------------
# Fully-populated stats on success, and NoPathError carrying stats.
# ----------------------------------------------------------------------


class TestStats:
    def test_astar_success_stats_finalized(self, metro_tiny):
        result = fixed_departure_query(metro_tiny, 0, 99, 420.0)
        _assert_success_stats(result.stats)
        assert result.stats.max_queue_size > 0

    def test_profile_success_stats(self, metro_tiny, interval):
        result = profile_search(metro_tiny, 0, interval)
        _assert_success_stats(result.stats)
        assert result.stats.distinct_nodes == len(result.profiles)

    def test_knn_result_carries_stats(self, metro_tiny, interval):
        result = interval_knn(metro_tiny, 0, [55, 67, 99], 2, interval)
        _assert_success_stats(result.stats)
        payload = result.as_dict()
        assert payload["stats"]["expanded_paths"] > 0
        assert [n["node"] for n in payload["neighbors"]] == list(
            result.node_ids()
        )

    def test_discrete_elapsed_populated(self, metro_tiny, interval):
        model = DiscreteTimeModel(metro_tiny)
        result = model.single_fastest_path(0, 99, interval, step=30.0)
        assert result.stats.elapsed_seconds > 0.0

    def test_no_path_error_carries_stats(self):
        # Two disconnected components: 1x2 metro has no edges between
        # far-apart nodes?  Build an explicit disconnected network instead.
        from repro.network.model import CapeCodNetwork
        from repro.patterns.categories import Calendar

        calendar = Calendar.single_category()
        network = CapeCodNetwork(calendar)
        network.add_node(0, 0.0, 0.0)
        network.add_node(1, 1.0, 0.0)
        with pytest.raises(NoPathError) as info:
            fixed_departure_query(network, 0, 1, 420.0)
        assert info.value.stats is not None
        assert info.value.stats.elapsed_seconds > 0.0

    def test_profile_result_as_dict(self, metro_tiny, interval):
        result = profile_search(metro_tiny, 0, interval, targets=[5, 7])
        payload = result.as_dict()
        assert set(payload["profiles"]) <= {"5", "7"}
        assert payload["interval"] == [interval.start, interval.end]
        assert payload["stats"]["distinct_nodes"] > 0


# ----------------------------------------------------------------------
# Context sharing: one cache warms every engine built over it.
# ----------------------------------------------------------------------


class TestContextSharing:
    def test_engines_share_edge_cache(self, metro_tiny, interval):
        context = SearchContext(metro_tiny)
        engine = IntAllFastestPaths(metro_tiny, context=context)
        engine.all_fastest_paths(0, 55, interval)
        warm = len(context.edge_cache)
        assert warm > 0
        result = profile_search(metro_tiny, 0, interval, context=context)
        assert result.stats.edge_cache_hits > 0
        assert engine.edge_cache is context.edge_cache

    def test_begin_overrides_context_defaults(self, metro_tiny):
        context = SearchContext(metro_tiny, max_pops=1)
        run = context.begin(max_pops=None)
        assert run.max_pops is None
        run = context.begin()
        assert run.max_pops == 1

    def test_explicit_cache_shared(self, metro_tiny, interval):
        cache = EdgeFunctionCache(metro_tiny.calendar, 4096)
        a = SearchContext(metro_tiny, edge_cache=cache)
        b = SearchContext(metro_tiny, edge_cache=cache)
        profile_search(metro_tiny, 0, interval, context=a)
        second = profile_search(metro_tiny, 0, interval, context=b)
        assert second.stats.edge_cache_misses == 0
        assert second.stats.edge_cache_hits > 0
