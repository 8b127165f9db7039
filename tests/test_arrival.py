"""Tests for arrival-interval allFP queries (the paper's "(or e)" variant)."""

from __future__ import annotations

import pytest

from repro.core.arrival import (
    ArrivalIntAllFastestPaths,
    reverse_boundary_estimator,
)
from repro.core.astar import fixed_departure_query, path_arrival_time
from repro.core.engine import IntAllFastestPaths
from repro.estimators.naive import NaiveEstimator
from repro.exceptions import NoPathError, QueryError
from repro.network.generator import (
    EXAMPLE_E,
    EXAMPLE_N,
    EXAMPLE_S,
    MetroConfig,
    make_metro_network,
    paper_example_network,
)
from repro.network.model import CapeCodNetwork
from repro.patterns.categories import Calendar
from repro.patterns.speed import CapeCodPattern
from repro.serve.updates import slowdown_pattern
from repro.storage.ccam import CCAMStore
from repro.timeutil import TimeInterval, parse_clock


class TestOnPaperExample:
    """The paper's worked example, time-shifted to the arrival side."""

    @pytest.fixture(scope="class")
    def result(self, example_network):
        engine = ArrivalIntAllFastestPaths(example_network)
        window = TimeInterval(parse_clock("6:56"), parse_clock("7:10"))
        return engine.all_fastest_paths(EXAMPLE_S, EXAMPLE_E, window)

    def test_three_pieces(self, result):
        assert [e.path for e in result.entries] == [
            (EXAMPLE_S, EXAMPLE_E),
            (EXAMPLE_S, EXAMPLE_N, EXAMPLE_E),
            (EXAMPLE_S, EXAMPLE_E),
        ]

    def test_boundaries_are_forward_boundaries_shifted(self, result):
        # The direct road takes a constant 6 minutes, so the arrival-side
        # boundaries are the paper's leaving-side ones (6:58:30, 7:03:26)
        # plus 6 minutes.
        assert result.entries[0].interval.end == pytest.approx(
            parse_clock("6:58:30") + 6.0, abs=1e-6
        )
        assert result.entries[1].interval.end == pytest.approx(
            parse_clock("7:06") - 18.0 / 7.0 + 6.0, abs=1e-6
        )

    def test_departure_at_achieves_arrival(self, result, example_network):
        for a in result.interval.sample(9):
            path = result.path_at(a)
            leave = result.departure_at(a)
            assert path_arrival_time(
                example_network, path, leave
            ) == pytest.approx(a, abs=1e-6)

    def test_border_is_travel_time(self, result):
        for a in result.interval.sample(9):
            leave = result.departure_at(a)
            assert result.travel_time_at(a) == pytest.approx(
                a - leave, abs=1e-6
            )

    def test_singlefp_minimum(self, example_network):
        engine = ArrivalIntAllFastestPaths(example_network)
        window = TimeInterval(parse_clock("6:56"), parse_clock("7:10"))
        single = engine.single_fastest_path(EXAMPLE_S, EXAMPLE_E, window)
        # The 5-minute optimum (leave 7:00-7:03 via n) arrives 7:05-7:08.
        assert single.optimal_travel_time == pytest.approx(5.0)
        assert single.path == (EXAMPLE_S, EXAMPLE_N, EXAMPLE_E)


class TestLatestDepartureOptimality:
    """No departure later than the reported one can make the arrival."""

    WINDOW = TimeInterval(parse_clock("7:30"), parse_clock("9:30"))

    @pytest.mark.parametrize("pair", [(0, 255), (17, 240), (250, 3)])
    def test_departures_are_latest(self, metro_small, pair):
        engine = ArrivalIntAllFastestPaths(metro_small)
        result = engine.all_fastest_paths(pair[0], pair[1], self.WINDOW)
        for a in self.WINDOW.sample(9):
            leave = result.departure_at(a)
            later = fixed_departure_query(
                metro_small, pair[0], pair[1], leave + 0.05
            )
            assert later.arrival > a - 1e-6

    def test_travel_times_match_forward_engine(self, metro_small):
        """Backward travel(a) == forward travel(l) at l = departure(a)."""
        backward = ArrivalIntAllFastestPaths(metro_small)
        result = backward.all_fastest_paths(0, 255, self.WINDOW)
        for a in self.WINDOW.sample(7):
            leave = result.departure_at(a)
            forward = fixed_departure_query(metro_small, 0, 255, leave)
            assert forward.travel_time == pytest.approx(
                result.travel_time_at(a), abs=1e-6
            )

    def test_pruning_does_not_change_answers(self, metro_tiny):
        window = TimeInterval(parse_clock("7:30"), parse_clock("8:30"))
        pruned = ArrivalIntAllFastestPaths(metro_tiny, prune=True)
        literal = ArrivalIntAllFastestPaths(
            metro_tiny, prune=False, max_pops=200_000
        )
        a_res = pruned.all_fastest_paths(0, 99, window)
        b_res = literal.all_fastest_paths(0, 99, window)
        for a in window.sample(9):
            assert a_res.travel_time_at(a) == pytest.approx(
                b_res.travel_time_at(a), abs=1e-6
            )


class TestEstimators:
    WINDOW = TimeInterval(parse_clock("8:00"), parse_clock("9:00"))

    def test_reverse_boundary_estimator_agrees_with_naive(self, metro_small):
        naive_engine = ArrivalIntAllFastestPaths(
            metro_small, NaiveEstimator(metro_small)
        )
        bd_engine = ArrivalIntAllFastestPaths(
            metro_small, reverse_boundary_estimator(metro_small, 4, 4)
        )
        a_res = naive_engine.all_fastest_paths(3, 200, self.WINDOW)
        b_res = bd_engine.all_fastest_paths(3, 200, self.WINDOW)
        for a in self.WINDOW.sample(9):
            assert a_res.travel_time_at(a) == pytest.approx(
                b_res.travel_time_at(a), abs=1e-6
            )

    def test_reverse_boundary_prunes(self, metro_small):
        naive_engine = ArrivalIntAllFastestPaths(
            metro_small, NaiveEstimator(metro_small)
        )
        bd_engine = ArrivalIntAllFastestPaths(
            metro_small, reverse_boundary_estimator(metro_small, 4, 4)
        )
        a_res = naive_engine.all_fastest_paths(0, 255, self.WINDOW)
        b_res = bd_engine.all_fastest_paths(0, 255, self.WINDOW)
        assert (
            b_res.stats.expanded_paths
            <= a_res.stats.expanded_paths * 1.10 + 1
        )


class TestValidation:
    def test_same_source_target(self, metro_tiny):
        engine = ArrivalIntAllFastestPaths(metro_tiny)
        with pytest.raises(QueryError):
            engine.all_fastest_paths(0, 0, TimeInterval(0.0, 10.0))

    def test_no_path(self):
        cal = Calendar.single_category()
        pat = CapeCodPattern.constant(1.0, cal.categories.names)
        net = CapeCodNetwork(cal)
        for i in range(3):
            net.add_node(i, float(i), 0.0)
        net.add_edge(0, 1, 1.0, pat)
        net.add_edge(1, 2, 1.0, pat)
        engine = ArrivalIntAllFastestPaths(net)
        with pytest.raises(NoPathError) as info:
            engine.all_fastest_paths(2, 0, TimeInterval(100.0, 110.0))
        assert (info.value.source, info.value.target) == (2, 0)
        assert info.value.stats is not None

    def test_instant_arrival_window(self, example_network):
        engine = ArrivalIntAllFastestPaths(example_network)
        instant = TimeInterval(parse_clock("7:06"), parse_clock("7:06"))
        result = engine.all_fastest_paths(EXAMPLE_S, EXAMPLE_E, instant)
        assert len(result.entries) == 1
        # Arriving at 7:06 the best is via n: leave 7:01, 5 minutes.
        assert result.travel_time_at(parse_clock("7:06")) == pytest.approx(5.0)


class TestSymmetryWithForwardEngine:
    def test_backward_minimum_bounds_forward(self, metro_tiny):
        """Every departure in the leaving window arrives inside a wide
        enough arrival window, so the backward optimum (which additionally
        admits *earlier* departures) can only be at least as good."""
        leave = TimeInterval(parse_clock("7:00"), parse_clock("9:00"))
        forward = IntAllFastestPaths(metro_tiny).single_fastest_path(
            0, 99, leave
        )
        arrive = TimeInterval(
            parse_clock("7:00"), parse_clock("9:00") + 120.0
        )
        backward = ArrivalIntAllFastestPaths(metro_tiny).single_fastest_path(
            0, 99, arrive
        )
        assert (
            backward.optimal_travel_time
            <= forward.optimal_travel_time + 1e-6
        )

    def test_exact_symmetry_under_constant_speeds(self, grid5):
        """With time-invariant speeds travel time is departure-independent,
        so the two optima coincide exactly."""
        leave = TimeInterval(0.0, 60.0)
        forward = IntAllFastestPaths(grid5).single_fastest_path(0, 24, leave)
        arrive = TimeInterval(0.0, 120.0)
        backward = ArrivalIntAllFastestPaths(grid5).single_fastest_path(
            0, 24, arrive
        )
        assert backward.optimal_travel_time == pytest.approx(
            forward.optimal_travel_time, abs=1e-9
        )


@pytest.mark.parametrize("backend", ["memory", "ccam"])
def test_reused_engine_sees_pattern_updates(backend, tmp_path, request):
    """After a pattern update a reused engine — its edge store warm with
    the old functions — answers byte for byte what a fresh engine answers."""
    network = make_metro_network(MetroConfig(width=10, height=10, seed=5))
    if backend == "ccam":
        CCAMStore.build(network, tmp_path / "net.ccam").close()
        network = CCAMStore.open(tmp_path / "net.ccam", writable=True)
        request.addfinalizer(network.close)
    window = TimeInterval(parse_clock("7:30"), parse_clock("8:30"))
    engine = ArrivalIntAllFastestPaths(network)
    path = engine.all_fastest_paths(0, 99, window).entries[0].path
    for u, v in zip(path, path[1:]):
        slowed = slowdown_pattern(network.find_edge(u, v).pattern, 0.2)
        network.update_edge_pattern(u, v, slowed)
    reused = engine.all_fastest_paths(0, 99, window)
    fresh = ArrivalIntAllFastestPaths(network).all_fastest_paths(0, 99, window)
    assert reused.border.breakpoints == fresh.border.breakpoints
    assert reused.entries == fresh.entries


def test_reused_engine_sees_a_speed_up():
    """A six-fold speed-up along the best path raises the network's
    ``v_max``; a naive bound built before it reads the new value, so
    neither a reused engine nor a fresh engine on the old estimator
    overestimates and prunes the now-fastest path."""
    network = make_metro_network(MetroConfig(width=8, height=8, seed=5))
    window = TimeInterval(parse_clock("7:00"), parse_clock("9:00"))
    naive = NaiveEstimator(network)
    engine = IntAllFastestPaths(network, naive)
    pairs = [(0, 63), (7, 56), (0, 7), (56, 63), (3, 60)]
    path = engine.all_fastest_paths(0, 63, window).entries[0].path
    v_max = naive.v_max
    for u, v in zip(path, path[1:]):
        faster = slowdown_pattern(network.find_edge(u, v).pattern, 6.0)
        network.update_edge_pattern(u, v, faster)
    assert naive.v_max > v_max
    for source, target in pairs:
        fresh = IntAllFastestPaths(network).all_fastest_paths(
            source, target, window
        )
        for reused in (engine, IntAllFastestPaths(network, naive)):
            got = reused.all_fastest_paths(source, target, window)
            assert got.border.breakpoints == fresh.border.breakpoints
            assert got.entries == fresh.entries
