"""Unit tests for engine internals: the canonical edge-function store."""

from __future__ import annotations

import pytest

from repro.core.runtime import EdgeFunctionCache, SearchContext
from repro.func.monotone import MonotonePiecewiseLinear
from repro.network.generator import (
    MetroConfig,
    make_metro_network,
    paper_example_network,
)
from repro.network.model import Edge
from repro.patterns.categories import Calendar
from repro.patterns.speed import CapeCodPattern, DailySpeedPattern
from repro.patterns.travel_time import traverse
from repro.serve.updates import (
    EdgeMutation,
    MutationBatch,
    apply_batch,
    slowdown_pattern,
)


@pytest.fixture
def cal():
    return Calendar.single_category("d")


@pytest.fixture
def edge(cal):
    pattern = CapeCodPattern(
        {"d": DailySpeedPattern([(0.0, 1.0), (420.0, 0.5), (540.0, 1.0)])}
    )
    return Edge(1, 2, 3.0, pattern)


class TestEdgeFunctionCache:
    """The store's contract: one function per ``(edge, day)``, built on the
    whole day, read — never rebuilt — by every window inside that day."""

    def test_first_request_builds(self, cal, edge):
        cache = EdgeFunctionCache(cal)
        fn = cache.arrival(edge, 400.0, 500.0)
        assert (fn.x_min, fn.x_max) == (0.0, 1440.0)
        assert len(cache) == 1

    def test_covered_request_reuses_object(self, cal, edge):
        cache = EdgeFunctionCache(cal)
        first = cache.arrival(edge, 400.0, 500.0)
        second = cache.arrival(edge, 420.0, 480.0)
        assert second is first

    def test_wider_request_reads_the_same_day_function(self, cal, edge):
        cache = EdgeFunctionCache(cal)
        first = cache.arrival(edge, 400.0, 500.0)
        assert cache.arrival(edge, 300.0, 900.0) is first
        assert cache.arrival(edge, 0.0, 1440.0) is first  # ends at midnight
        assert (len(cache), cache.misses) == (1, 1)

    def test_window_across_midnight_joins_the_days(self, cal, edge):
        cache = EdgeFunctionCache(cal)
        joined = cache.arrival(edge, 1400.0, 1500.0)
        assert (joined.x_min, joined.x_max) == (0.0, 2880.0)
        assert len(cache) == 2  # one entry per day, the join is not stored
        today = cache.arrival(edge, 0.0, 10.0)
        tomorrow = cache.arrival(edge, 1441.0, 1450.0)
        # Ascending days, the earlier day's value kept at the shared midnight.
        assert joined.breakpoints == (
            today.breakpoints + tomorrow.breakpoints[1:]
        )
        for t in (1400.0, 1439.5, 1440.0, 1440.5, 1500.0):
            assert joined(t) == pytest.approx(
                traverse(edge.distance, edge.pattern, cal, t), abs=1e-9
            )

    def test_floats_do_not_depend_on_history(self, cal, edge):
        asked_before = EdgeFunctionCache(cal)
        for lo, hi in ((380.0, 400.0), (100.0, 1300.0), (1500.0, 1600.0)):
            asked_before.arrival(edge, lo, hi)
        evicting = EdgeFunctionCache(cal, max_entries=1)
        evicting.arrival(Edge(7, 8, 1.0, edge.pattern), 0.0, 10.0)
        fresh = EdgeFunctionCache(cal).arrival(edge, 410.0, 430.0)
        for cache in (asked_before, evicting):
            assert cache.arrival(edge, 410.0, 430.0).breakpoints == (
                fresh.breakpoints
            )

    def test_cached_function_is_exact(self, cal, edge):
        cache = EdgeFunctionCache(cal)
        fn = cache.arrival(edge, 380.0, 560.0)
        for t in (380.0, 415.0, 470.0, 560.0):
            assert fn(t) == pytest.approx(
                traverse(edge.distance, edge.pattern, cal, t), abs=1e-9
            )

    def test_growth_is_bounded(self, cal, edge):
        """Repeated slightly-wider requests never widen or rebuild anything:
        the domain is the days the window touches."""
        cache = EdgeFunctionCache(cal)
        hi = 500.0
        for _ in range(40):
            hi += 10.0
            fn = cache.arrival(edge, 400.0, hi)
        assert (fn.x_min, fn.x_max) == (0.0, 1440.0)
        assert (len(cache), cache.misses) == (1, 1)

    def test_provider_edges_bypass_cache(self, cal, edge):
        class FakeShortcut:
            source, target = 5, 6
            profile = MonotonePiecewiseLinear([(0.0, 7.0), (1000.0, 1007.0)])

            def arrival_function(self, store, lo, hi):
                return self.profile

        cache = EdgeFunctionCache(cal)
        shortcut = FakeShortcut()
        fn = cache.arrival(shortcut, 100.0, 200.0)
        assert fn is shortcut.profile
        assert len(cache) == 0

    def test_hit_miss_counters(self, cal, edge):
        cache = EdgeFunctionCache(cal)
        cache.arrival(edge, 400.0, 500.0)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.arrival(edge, 300.0, 900.0)  # same day: a read
        assert (cache.hits, cache.misses) == (1, 1)
        cache.arrival(edge, 1400.0, 1500.0)  # one lookup per (edge, day)
        assert (cache.hits, cache.misses) == (2, 2)

    def test_lru_eviction_bounds_size(self, cal, edge):
        cache = EdgeFunctionCache(cal, max_entries=2)
        for target in (10, 11, 12, 13):
            e = Edge(1, target, edge.distance, edge.pattern)
            cache.arrival(e, 400.0, 500.0)
        assert len(cache) == 2

    def test_lru_keeps_recently_used(self, cal, edge):
        cache = EdgeFunctionCache(cal, max_entries=2)
        a = Edge(1, 10, edge.distance, edge.pattern)
        b = Edge(1, 11, edge.distance, edge.pattern)
        c = Edge(1, 12, edge.distance, edge.pattern)
        first = cache.arrival(a, 400.0, 500.0)
        cache.arrival(b, 400.0, 500.0)
        cache.arrival(a, 410.0, 490.0)  # touch a: b becomes the LRU entry
        cache.arrival(c, 400.0, 500.0)  # evicts b
        assert cache.arrival(a, 410.0, 490.0) is first  # still resident
        misses_before = cache.misses
        cache.arrival(b, 400.0, 500.0)  # must rebuild
        assert cache.misses == misses_before + 1

    def test_new_pattern_is_rebuilt_not_served(self, cal, edge):
        """An entry whose edge got a new pattern is rebuilt in place, with
        no clearing; restoring the old pattern rebuilds again."""
        cache = EdgeFunctionCache(cal, max_entries=8)
        before = cache.arrival(edge, 400.0, 500.0)
        cache.arrival(edge, 1400.0, 1500.0)
        assert cache.snapshot() == {
            "entries": 2, "max_entries": 8, "hits": 1, "misses": 2
        }
        slowed = Edge(1, 2, edge.distance, slowdown_pattern(edge.pattern, 0.5))
        after = cache.arrival(slowed, 400.0, 500.0)
        assert after is not before and after(450.0) > before(450.0)
        assert after(450.0) == pytest.approx(
            traverse(slowed.distance, slowed.pattern, cal, 450.0), abs=1e-9
        )
        assert (len(cache), cache.misses) == (2, 3)  # replaced, not added
        assert cache.arrival(slowed, 410.0, 490.0) is after
        restored = cache.arrival(edge, 400.0, 500.0)
        assert restored is not before and restored(450.0) == before(450.0)
        longer = Edge(1, 2, 2 * edge.distance, edge.pattern)
        assert cache.arrival(longer, 400.0, 500.0)(450.0) > before(450.0)
        assert cache.misses == 5

    def test_rejects_nonpositive_capacity(self, cal):
        with pytest.raises(ValueError):
            EdgeFunctionCache(cal, max_entries=0)

    def test_contexts_share_one_store(self, cal, edge):
        class Net:
            calendar = cal
            page_reads = 0

        store = EdgeFunctionCache(cal)
        a = SearchContext(Net(), edge_cache=store, max_pops=1)
        b = SearchContext(Net(), edge_cache=store)
        first = a.begin().edge_arrival(edge, 400.0, 500.0)
        assert b.begin().edge_arrival(edge, 300.0, 900.0) is first
        assert SearchContext(Net()).edge_cache is not store


def _slowed_metro_tiny():
    network = make_metro_network(MetroConfig(width=10, height=10, seed=5))
    edges = list(network.edges())
    apply_batch(
        network,
        MutationBatch(
            tuple(
                EdgeMutation(
                    edges[i].source,
                    edges[i].target,
                    slowdown_pattern(edges[i].pattern, factor),
                )
                for i, factor in ((3, 0.5), (57, 2.0), (140, 0.25), (188, 1.5))
            )
        ),
    )
    return network


class TestCanonicalDayFunctions:
    """FIFO is the precondition dominance pruning rests on (Constantinou et
    al.: speed-based models guarantee it): every edge's canonical day
    function is strictly increasing, never arrives before it leaves, and is
    the scalar ``traverse`` — on a workday, on a weekend day, and after a
    live update replaced patterns."""

    @pytest.mark.parametrize(
        "build",
        [
            paper_example_network,
            lambda: make_metro_network(MetroConfig(width=10, height=10, seed=5)),
            _slowed_metro_tiny,
        ],
        ids=["example", "metro_tiny", "metro_tiny_after_slowdown"],
    )
    def test_every_edge_is_fifo_and_exact(self, build):
        network = build()
        calendar = network.calendar
        store = EdgeFunctionCache(calendar)
        for edge in network.edges():
            for day in (0, 5):
                lo = day * 1440.0
                fn = store.arrival(edge, lo, lo + 1440.0)
                xs, ys = zip(*fn.breakpoints)
                assert (xs[0], xs[-1]) == (lo, lo + 1440.0)
                assert all(b > a for a, b in zip(ys, ys[1:]))
                # A(t) - t is linear between breakpoints: checking them
                # checks every instant.
                assert all(y >= x for x, y in zip(xs, ys))
                samples = {lo + 1440.0 * i / 48 for i in range(49)}
                samples.update((a + b) / 2 for a, b in zip(xs, xs[1:]))
                for t in samples:
                    assert fn(t) == pytest.approx(
                        traverse(edge.distance, edge.pattern, calendar, t),
                        abs=1e-9,
                    )
