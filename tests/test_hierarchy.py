"""Tests for the hierarchical subsystem (S15) in the paper's two-level case:
a 1-level overlay (fragments + one top-level search).  Multi-level builds,
persistence and serving live in ``test_overlay.py``."""

from __future__ import annotations

import pytest

from repro.core.astar import path_travel_time
from repro.core.engine import IntAllFastestPaths
from repro.core.graph import restrict
from repro.core.profile import profile_search
from repro.core.astar import fixed_departure_query
from repro.exceptions import QueryError
from repro.hierarchy import MultiLevelOverlay, OverlayEngine, ShortcutEdge
from repro.func.monotone import MonotonePiecewiseLinear
from repro.timeutil import TimeInterval, parse_clock

HORIZON = TimeInterval(parse_clock("5:00"), parse_clock("14:00"))
WINDOW = TimeInterval(parse_clock("6:30"), parse_clock("9:30"))


@pytest.fixture(scope="module")
def index(metro_small):
    return MultiLevelOverlay.build(metro_small, levels=1, nx=4, horizon=HORIZON)


@pytest.fixture(scope="module")
def engine(index):
    return OverlayEngine(index)


@pytest.fixture(scope="module")
def flat(metro_small):
    return IntAllFastestPaths(metro_small)


class TestProfileSearch:
    def test_matches_oracle(self, metro_tiny):
        interval = TimeInterval(parse_clock("6:30"), parse_clock("8:30"))
        profiles = profile_search(metro_tiny, 0, interval).profiles
        assert len(profiles) == metro_tiny.node_count
        for node in list(profiles)[::13]:
            if node == 0:
                continue
            for instant in interval.sample(5):
                oracle = fixed_departure_query(metro_tiny, 0, node, instant)
                assert profiles[node](instant) == pytest.approx(
                    oracle.arrival, abs=1e-6
                )

    def test_source_profile_is_identity(self, metro_tiny):
        interval = TimeInterval(100.0, 200.0)
        profiles = profile_search(metro_tiny, 5, interval).profiles
        assert profiles[5](150.0) == pytest.approx(150.0)

    def test_node_filter_restricts(self, metro_tiny):
        interval = TimeInterval(100.0, 200.0)
        allowed = set(range(30))
        profiles = profile_search(
            restrict(metro_tiny, allowed), 0, interval
        ).profiles
        assert set(profiles) <= allowed

    def test_targets_filter(self, metro_tiny):
        interval = TimeInterval(100.0, 200.0)
        profiles = profile_search(
            metro_tiny, 0, interval, targets=[7, 13]
        ).profiles
        assert set(profiles) <= {0, 7, 13} - {0} | {7, 13}

    def test_unreachable_absent(self, metro_tiny):
        interval = TimeInterval(100.0, 160.0)
        profiles = profile_search(restrict(metro_tiny, {0}), 0, interval).profiles
        assert set(profiles) == {0}


class TestIndexBuild:
    def test_stats(self, index):
        (stats,) = index.stats.levels
        assert stats.cells == 16
        assert stats.boundary_nodes > 0
        assert stats.shortcuts > 0
        assert stats.profile_searches == stats.boundary_nodes

    def test_shortcuts_are_intra_fragment(self, index):
        for node in list(index.network.node_ids())[::7]:
            for shortcut in index.shortcuts_from(node, 0):
                assert index.cell_at(shortcut.source, 0) == index.cell_at(
                    shortcut.target, 0
                )

    def test_shortcut_lower_bounded_by_direct_edge(self, index, metro_small):
        """Where a direct intra-fragment edge exists, the shortcut can only
        be at least as fast."""
        checked = 0
        for edge in metro_small.edges():
            if index.cell_at(edge.source, 0) != index.cell_at(edge.target, 0):
                continue
            for shortcut in index.shortcuts_from(edge.source, 0):
                if shortcut.target != edge.target:
                    continue
                depart = parse_clock("8:00")
                direct = path_travel_time(
                    metro_small, (edge.source, edge.target), depart
                )
                via = shortcut.profile(depart) - depart
                assert via <= direct + 1e-6
                checked += 1
        assert checked > 0

    def test_shortcut_horizon_enforced(self, index):
        node = next(
            n for n in index.network.node_ids() if index.shortcuts_from(n, 0)
        )
        shortcut = index.shortcuts_from(node, 0)[0]
        with pytest.raises(QueryError, match="horizon"):
            shortcut.arrival_function(None, 0.0, 10.0)

    def test_shortcut_min_travel_time_positive(self, index):
        node = next(
            n for n in index.network.node_ids() if index.shortcuts_from(n, 0)
        )
        assert index.shortcuts_from(node, 0)[0].min_tt > 0


class TestHierarchicalQueries:
    @pytest.mark.parametrize("pair", [(0, 255), (17, 240), (250, 3), (5, 130)])
    def test_travel_times_match_flat(self, engine, flat, pair):
        h = engine.all_fastest_paths(pair[0], pair[1], WINDOW)
        f = flat.all_fastest_paths(pair[0], pair[1], WINDOW)
        for instant in WINDOW.sample(11):
            assert h.travel_time_at(instant) == pytest.approx(
                f.travel_time_at(instant), abs=1e-6
            )

    def test_singlefp_matches_flat(self, engine, flat):
        h = engine.single_fastest_path(0, 255, WINDOW)
        f = flat.single_fastest_path(0, 255, WINDOW)
        assert h.optimal_travel_time == pytest.approx(
            f.optimal_travel_time, abs=1e-6
        )

    def test_same_fragment_query(self, engine, flat, index):
        cell0 = index.members_at(0, 0)
        other = next(n for n in sorted(cell0) if n != 0)
        h = engine.all_fastest_paths(0, other, WINDOW)
        f = flat.all_fastest_paths(0, other, WINDOW)
        for instant in WINDOW.sample(5):
            assert h.travel_time_at(instant) == pytest.approx(
                f.travel_time_at(instant), abs=1e-6
            )

    def test_expand_path_achieves_travel_time(self, engine, flat, metro_small):
        result = engine.all_fastest_paths(0, 255, WINDOW)
        for instant in WINDOW.sample(5):
            concrete = engine.expand_path(result.path_at(instant), instant)
            achieved = path_travel_time(metro_small, concrete, instant)
            assert achieved == pytest.approx(
                result.travel_time_at(instant), abs=1e-6
            )
            # Concrete paths use only real edges.
            for u, v in zip(concrete, concrete[1:]):
                assert metro_small.has_edge(u, v)

    def test_query_outside_horizon_rejected(self, engine):
        late = TimeInterval(parse_clock("20:00"), parse_clock("21:00"))
        with pytest.raises(QueryError, match="horizon"):
            engine.all_fastest_paths(0, 255, late)

    def test_expand_rejects_nonsense_hop(self, engine):
        with pytest.raises(QueryError):
            engine.expand_path((0, 255), parse_clock("8:00"))


class TestShortcutEdgeType:
    def test_duck_typing_fields(self):
        fn = MonotonePiecewiseLinear([(0.0, 5.0), (100.0, 110.0)])
        shortcut = ShortcutEdge(1, 2, fn)
        assert shortcut.source == 1
        assert shortcut.target == 2
        # Any covered window gets the stored profile back unclipped
        # (compose seeks to the window itself); uncovered windows raise.
        # The row is the function, so no edge-function store is read.
        assert shortcut.arrival_function(None, 10.0, 50.0) is fn
        assert shortcut.arrival_function(None, 0.0, 100.0) is fn
