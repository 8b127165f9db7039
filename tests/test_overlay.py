"""Tests for the multi-level overlay hierarchy (importer-era S15 growth).

The contract under test: at every level count the overlay answers exactly
match the flat engine (the hierarchy is an accelerator, never an
approximator), budgets flow through ``SearchContext`` during build *and*
query, the shortcut arrays persist byte-exactly through RPRESNAP v2, and
the serve tier boots warm from a mapped snapshot.
"""

from __future__ import annotations

import array

import pytest

from repro.core.astar import fixed_departure_query
from repro.core.engine import IntAllFastestPaths
from repro.core.graph import GraphView
from repro.core.runtime import (
    QueryTimeout,
    SearchBudgetExceeded,
    SearchContext,
)
from repro.estimators import snapshot as snap
from repro.estimators.boundary import BoundaryNodeEstimator
from repro.exceptions import EstimatorError, QueryError
from repro.hierarchy import MultiLevelOverlay, OverlayEngine, ShortcutEdge
from repro.network.generator import MetroConfig, make_metro_network
from repro.serve.updates import (
    EdgeMutation,
    MutationBatch,
    apply_batch,
    slowdown_pattern,
)
from repro.timeutil import TimeInterval, parse_clock

WINDOW = TimeInterval(parse_clock("6:30"), parse_clock("9:30"))

# Node ids chosen on the 10x10 metro_tiny / 16x16 metro_small grids so the
# pairs cover: opposite corners (many cells apart), mid-range, neighbours
# inside one base cell, and a same-node degenerate.
TINY_PAIRS = [(0, 99), (0, 55), (22, 77), (3, 96)]
SMALL_PAIRS = [(0, 255), (17, 238), (5, 250)]


def _build(network, levels, **kwargs):
    kwargs.setdefault("nx", 6)
    return MultiLevelOverlay.build(network, levels=levels, **kwargs)


def _assert_parity(network, overlay, pairs, interval=WINDOW):
    flat = IntAllFastestPaths(network)
    fast = OverlayEngine(overlay)
    for source, target in pairs:
        expect = flat.all_fastest_paths(source, target, interval)
        got = fast.all_fastest_paths(source, target, interval)
        for instant in interval.sample(5):
            assert got.travel_time_at(instant) == pytest.approx(
                expect.travel_time_at(instant), abs=1e-6
            ), (source, target, instant)
            # ... and both match the scalar A* oracle, which shares no
            # function algebra with either engine.
            oracle = fixed_departure_query(network, source, target, instant)
            assert got.travel_time_at(instant) == pytest.approx(
                oracle.travel_time, abs=1e-6
            ), (source, target, instant)
        single = fast.single_fastest_path(source, target, interval)
        assert single.optimal_travel_time == pytest.approx(
            flat.single_fastest_path(
                source, target, interval
            ).optimal_travel_time,
            abs=1e-6,
        )


@pytest.fixture(scope="module")
def overlay_tiny(metro_tiny):
    return _build(metro_tiny, levels=2)


@pytest.fixture(scope="module")
def overlay_small(metro_small):
    return _build(metro_small, levels=3, nx=8)


class TestBuild:
    def test_levels_validated(self, metro_tiny):
        with pytest.raises(QueryError):
            MultiLevelOverlay.build(metro_tiny, levels=0)
        with pytest.raises(QueryError):
            MultiLevelOverlay.build(metro_tiny, levels=2, fanout=1)
        with pytest.raises(QueryError, match="one process"):
            MultiLevelOverlay.build(metro_tiny, workers=2)

    def test_level_dims_coarsen_by_fanout(self, overlay_tiny):
        nx0, ny0 = overlay_tiny.level_dims(0)
        nx1, ny1 = overlay_tiny.level_dims(1)
        assert (nx1, ny1) == (-(-nx0 // 2), -(-ny0 // 2))

    def test_levels_are_nested(self, metro_tiny, overlay_tiny):
        # Two nodes sharing a level-0 cell must share every coarser cell.
        nodes = list(metro_tiny.node_ids())
        for a in nodes[::7]:
            for b in nodes[::11]:
                if overlay_tiny.cell_at(a, 0) == overlay_tiny.cell_at(b, 0):
                    assert overlay_tiny.cell_at(a, 1) == overlay_tiny.cell_at(
                        b, 1
                    )

    def test_rows_contiguous_by_source(self, overlay_tiny):
        # Rows are appended cell by cell, so each source's rows form one
        # contiguous run (the OverlayLevel constructor enforces this; here
        # we check the build actually produces such data).
        for level in overlay_tiny.levels:
            seen: set[int] = set()
            current = None
            for source, _dst, _xs, _ys in level.rows():
                if source != current:
                    assert source not in seen
                    seen.add(source)
                    current = source

    def test_stats_populated(self, overlay_tiny):
        stats = overlay_tiny.stats
        assert len(stats.levels) == 2
        assert stats.shortcuts == sum(
            lv.shortcut_count for lv in overlay_tiny.levels
        )
        assert all(lv.profile_searches > 0 for lv in stats.levels)
        assert stats.build_seconds >= 0.0


class TestBudgets:
    def test_max_pops_budget_trips_during_build(self, metro_tiny):
        with pytest.raises(SearchBudgetExceeded):
            MultiLevelOverlay.build(metro_tiny, levels=1, max_pops=2)

    def test_deadline_trips_during_build(self, metro_tiny):
        with pytest.raises(QueryTimeout):
            MultiLevelOverlay.build(metro_tiny, levels=1, deadline=0.0)

    def test_query_max_pops_budget(self, overlay_tiny):
        engine = OverlayEngine(overlay_tiny, max_pops=1)
        with pytest.raises(SearchBudgetExceeded):
            engine.all_fastest_paths(0, 99, WINDOW)

    def test_query_deadline(self, overlay_tiny):
        engine = OverlayEngine(overlay_tiny)
        with pytest.raises(QueryTimeout):
            engine.all_fastest_paths(0, 99, WINDOW, deadline=0.0)

    def test_shared_context_budgets_apply(self, metro_tiny, overlay_tiny):
        context = SearchContext(metro_tiny, max_pops=1)
        engine = OverlayEngine(overlay_tiny, context=context)
        with pytest.raises(SearchBudgetExceeded):
            engine.all_fastest_paths(0, 99, WINDOW)


class TestCliqueSuppression:
    """Labels that enter a cell over a shortcut must not fan the clique out
    again — chained intra-cell shortcuts are pointwise >= the direct one."""

    def test_shortcut_entry_trims_clique(self, metro_tiny, overlay_tiny):
        from repro.hierarchy.engine import _OverlayQueryGraph

        graph = _OverlayQueryGraph(overlay_tiny, 0, 99)
        node = next(
            n
            for n in metro_tiny.node_ids()
            if any(
                isinstance(e, ShortcutEdge)
                for e in graph.outgoing_from(n, None)
            )
        )
        full = graph.outgoing_from(node, None)
        shortcuts = [e for e in full if isinstance(e, ShortcutEdge)]
        streets = [e for e in full if not isinstance(e, ShortcutEdge)]
        assert shortcuts
        # Arriving over one of the clique's own shortcuts: only the
        # crossing street edges remain.
        trimmed = graph.outgoing_from(node, shortcuts[0].target)
        assert [
            (e.source, e.target) for e in trimmed
        ] == [(e.source, e.target) for e in streets]
        # Arriving from outside the cell (the source endpoint's cell is
        # always a different one): the full clique is exposed.
        entered = graph.outgoing_from(node, 0)
        assert len(entered) == len(full)

    def test_engine_passes_predecessor(self, metro_tiny, overlay_tiny):
        """The generic engine must pass the predecessor to
        ``outgoing_from``: overlay searches generate strictly fewer labels
        than the same query on a view that ignores it."""
        engine = OverlayEngine(overlay_tiny)
        with_hook = engine.all_fastest_paths(0, 99, WINDOW)

        from repro.hierarchy import engine as hmod

        graph = hmod._OverlayQueryGraph(overlay_tiny, 0, 99)
        hidden = IntAllFastestPaths(_HideOutgoingFrom(graph))
        without_hook = hidden.all_fastest_paths(0, 99, WINDOW)
        assert (
            with_hook.stats.labels_generated
            < without_hook.stats.labels_generated
        )
        for instant in WINDOW.sample(7):
            assert with_hook.travel_time_at(instant) == pytest.approx(
                without_hook.travel_time_at(instant), abs=1e-9
            )


class _HideOutgoingFrom(GraphView):
    """A view of the hybrid graph that never trims by predecessor."""

    def outgoing_from(self, node, prev):
        return self._graph.outgoing_from(node, None)


class TestParity:
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_tiny_all_level_counts(self, metro_tiny, levels):
        overlay = _build(metro_tiny, levels=levels)
        _assert_parity(metro_tiny, overlay, TINY_PAIRS)

    def test_small_three_levels(self, metro_small, overlay_small):
        _assert_parity(metro_small, overlay_small, SMALL_PAIRS)

    def test_same_base_cell_pair(self, metro_tiny, overlay_tiny):
        # Both endpoints inside one base cell: the query must fall back to
        # plain street edges and still agree with the flat engine.
        nodes = list(metro_tiny.node_ids())
        cell0 = overlay_tiny.cell_at(nodes[0], 0)
        mate = next(
            n
            for n in nodes[1:]
            if overlay_tiny.cell_at(n, 0) == cell0
        )
        _assert_parity(metro_tiny, overlay_tiny, [(nodes[0], mate)])

    def test_horizon_enforced(self, overlay_tiny):
        horizon = overlay_tiny.horizon
        outside = TimeInterval(horizon.end + 1.0, horizon.end + 61.0)
        with pytest.raises(QueryError):
            OverlayEngine(overlay_tiny).all_fastest_paths(0, 99, outside)

    def test_expand_path_returns_street_edges(self, metro_tiny, overlay_tiny):
        engine = OverlayEngine(overlay_tiny)
        flat = IntAllFastestPaths(metro_tiny)
        result = engine.all_fastest_paths(0, 99, WINDOW)
        for entry in result.entries:
            depart = entry.interval.start
            expanded = engine.expand_path(entry.path, depart)
            assert expanded[0] == 0 and expanded[-1] == 99
            # Every consecutive hop is a real street edge.
            for u, v in zip(expanded, expanded[1:]):
                assert metro_tiny.has_edge(u, v)
            oracle = flat.all_fastest_paths(0, 99, WINDOW)
            assert result.travel_time_at(depart) == pytest.approx(
                oracle.travel_time_at(depart), abs=1e-6
            )


class TestSnapshotRoundTrip:
    @pytest.fixture()
    def saved(self, tmp_path, metro_tiny, overlay_tiny):
        estimator = BoundaryNodeEstimator(metro_tiny, 4, 4)
        estimator.precompute()
        path = tmp_path / "net.ovl"
        snap.save_tables(
            estimator.tables,
            path,
            snap.network_fingerprint(metro_tiny),
            overlay=overlay_tiny,
        )
        return path

    def _assert_same(self, original, loaded):
        assert loaded.level_count == original.level_count
        assert loaded.fanout == original.fanout
        assert loaded.grid.shape == original.grid.shape
        for a, b in zip(original.levels, loaded.levels):
            assert array.array("q", a.src) == array.array("q", b.src)
            assert array.array("q", a.dst) == array.array("q", b.dst)
            assert array.array("q", a.off) == array.array("q", b.off)
            assert array.array("d", a.xs) == array.array("d", b.xs)
            assert array.array("d", a.ys) == array.array("d", b.ys)

    def test_load_round_trip(self, saved, metro_tiny, overlay_tiny):
        loaded = snap.Snapshot(saved).overlay(
            metro_tiny, snap.network_fingerprint(metro_tiny)
        )
        self._assert_same(overlay_tiny, loaded)

    def test_map_round_trip(self, saved, metro_tiny, overlay_tiny):
        mapped = snap.map_overlay(saved, metro_tiny)
        self._assert_same(overlay_tiny, mapped)

    def test_mapped_overlay_answers_match(self, saved, metro_tiny):
        mapped = snap.map_overlay(saved, metro_tiny)
        _assert_parity(metro_tiny, mapped, TINY_PAIRS[:2])

    def test_estimator_tables_still_load(self, saved, metro_tiny):
        estimator = BoundaryNodeEstimator.from_snapshot(metro_tiny, saved)
        assert estimator.tables is not None

    def test_v1_snapshot_has_no_overlay(self, tmp_path, metro_tiny):
        estimator = BoundaryNodeEstimator(metro_tiny, 4, 4)
        path = estimator.save_snapshot(tmp_path / "flat.est")
        with pytest.raises(EstimatorError, match="no overlay section"):
            snap.map_overlay(path, metro_tiny)

    def test_fingerprint_mismatch_rejected(self, saved):
        other = make_metro_network(MetroConfig(width=10, height=10, seed=9))
        with pytest.raises(EstimatorError, match="fingerprint"):
            snap.map_overlay(saved, other)

    def test_truncation_rejected(self, saved, tmp_path, metro_tiny):
        data = saved.read_bytes()
        clipped = tmp_path / "clipped.ovl"
        clipped.write_bytes(data[: len(data) - 16])
        with pytest.raises(EstimatorError):
            snap.map_overlay(clipped, metro_tiny)
        with pytest.raises(EstimatorError):
            snap.Snapshot(clipped)

    def test_read_header_reports_overlay(self, saved, overlay_tiny):
        header = snap.Snapshot(saved).describe()
        assert header["version"] == snap.SNAPSHOT_VERSION_OVERLAY
        meta = header["overlay"]
        assert meta["levels"] == overlay_tiny.level_count
        assert meta["fanout"] == overlay_tiny.fanout
        details = meta["level_details"]
        assert [d["shortcuts"] for d in details] == [
            lv.shortcut_count for lv in overlay_tiny.levels
        ]

    def test_v1_header_has_no_overlay(self, tmp_path, metro_tiny):
        estimator = BoundaryNodeEstimator(metro_tiny, 4, 4)
        path = estimator.save_snapshot(tmp_path / "flat.est")
        header = snap.Snapshot(path).describe()
        assert header["version"] == snap.SNAPSHOT_VERSION
        assert header.get("overlay") is None

    def test_stale_overlay_is_refused(self, tmp_path):
        # A live update inside a cell leaves its rows untrue for the
        # network the fingerprint names; saving them would pass them off
        # as current.  The restore makes the overlay savable again.
        network = make_metro_network(MetroConfig(width=10, height=10, seed=23))
        overlay = _build(network, levels=2, nx=4)
        tables = BoundaryNodeEstimator(network, 4, 4).tables
        edge = next(
            e
            for e in network.edges()
            if overlay.cell_at(e.source, 0) == overlay.cell_at(e.target, 0)
        )
        path = tmp_path / "stale.ovl"

        def update(pattern):
            overlay.refresh_delta(
                apply_batch(
                    network,
                    MutationBatch((EdgeMutation(edge.source, edge.target, pattern),)),
                )
            )

        update(slowdown_pattern(edge.pattern, 0.5))
        with pytest.raises(EstimatorError, match="stale cells"):
            snap.save_tables(
                tables, path, snap.network_fingerprint(network), overlay=overlay
            )
        assert not path.exists()
        update(edge.pattern)
        snap.save_tables(
            tables, path, snap.network_fingerprint(network), overlay=overlay
        )
        self._assert_same(overlay, snap.map_overlay(path, network))


class TestServing:
    def test_service_with_overlay_matches_flat(self, metro_tiny, overlay_tiny):
        from repro.serve import AllFPService, QueryRequest, ServiceConfig

        request = QueryRequest(0, 99, WINDOW)
        flat = AllFPService(metro_tiny, config=ServiceConfig())
        try:
            expect = flat.query(request).result
        finally:
            flat.close()
        service = AllFPService(
            metro_tiny, config=ServiceConfig(), overlay=overlay_tiny
        )
        try:
            assert service.stats()["overlay_levels"] == 2
            got = service.query(request).result
        finally:
            service.close()
        for instant in WINDOW.sample(5):
            assert got.travel_time_at(instant) == pytest.approx(
                expect.travel_time_at(instant), abs=1e-6
            )

    def test_sharded_warm_boot(self, tmp_path, metro_tiny, overlay_tiny):
        from repro.serve import QueryRequest, ServiceConfig
        from repro.shard import ShardedService

        estimator = BoundaryNodeEstimator(metro_tiny, 4, 4)
        estimator.precompute()
        path = tmp_path / "combo.ovl"
        snap.save_tables(
            estimator.tables,
            path,
            snap.network_fingerprint(metro_tiny),
            overlay=overlay_tiny,
        )
        expect = IntAllFastestPaths(metro_tiny).all_fastest_paths(
            0, 99, WINDOW
        )
        tier = ShardedService(
            metro_tiny,
            None,
            ServiceConfig(),
            shards=1,
            snapshot_path=str(path),
            overlay_path=str(path),
        )
        try:
            health = tier.shard_health()
            assert all(h["overlay_mode"] == "mmap" for h in health)
            got = tier.query(QueryRequest(0, 99, WINDOW)).result.as_dict()
        finally:
            tier.close()
        for lo_hi in got["border"]:
            instant, travel = lo_hi
            assert travel == pytest.approx(
                expect.travel_time_at(instant), abs=1e-6
            )

    def test_sharded_missing_overlay_degrades(self, tmp_path, metro_tiny):
        from repro.serve import ServiceConfig
        from repro.shard import ShardedService

        tier = ShardedService(
            metro_tiny,
            None,
            ServiceConfig(),
            shards=1,
            overlay_path=str(tmp_path / "missing.ovl"),
        )
        try:
            health = tier.shard_health()
            assert all(h["overlay_mode"] == "fallback" for h in health)
            assert tier.degraded
        finally:
            tier.close()
