"""Live-update stream: wire formats, delta re-customization, bounded staleness.

Covers the update pipeline end to end — mutation/batch/trace parsing and
its typed failures, the admissibility-preserving estimator delta refresh,
the overlay's stale cells (rows kept as built, answers still exact), the
service-level versioned apply (cached results dropped, the edge store kept
warm, answers byte-identical to a from-scratch service on the mutated
network), the ``max_staleness``
contract, the ``invalidate(refresh_estimator=True)``-racing-queries
invariant, and the chaos harness under a mutation trace.
"""

from __future__ import annotations

import copy
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import IntAllFastestPaths
from repro.estimators.boundary import BoundaryNodeEstimator
from repro.estimators.naive import NaiveEstimator
from repro.exceptions import (
    EdgeNotFoundError,
    NetworkError,
    QueryError,
    StalenessExceeded,
)
from repro.hierarchy import MultiLevelOverlay, OverlayEngine
from repro.network.generator import MetroConfig, make_metro_network
from repro.serve.chaos import _canonical, default_fault_plan, run_chaos
from repro.serve.metrics import parse_metrics
from repro.serve.service import AllFPService, QueryRequest, ServiceConfig
from repro.serve.updates import (
    EdgeMutation,
    MAX_MUTATIONS_PER_BATCH,
    MutationBatch,
    TraceEvent,
    apply_batch,
    dump_trace,
    load_trace,
    slowdown_pattern,
    validate_batch,
)
from repro.timeutil import TimeInterval
from repro.workloads.queries import QuerySpec

INTERVAL = TimeInterval(480.0, 540.0)


@pytest.fixture
def network():
    """A fresh (mutable) network per test — these tests update edges."""
    return make_metro_network(MetroConfig(width=8, height=8, seed=23))


def mutation_for(network, index: int = 0, factor: float = 0.25) -> EdgeMutation:
    edge = list(network.edges())[index]
    return EdgeMutation(
        edge.source, edge.target, slowdown_pattern(edge.pattern, factor)
    )


# ----------------------------------------------------------------------
# Wire formats
# ----------------------------------------------------------------------
class TestWire:
    def test_mutation_round_trip(self, network):
        mutation = mutation_for(network)
        clone = EdgeMutation.from_wire(mutation.to_wire())
        assert clone.source == mutation.source
        assert clone.target == mutation.target
        assert clone.pattern == mutation.pattern

    def test_batch_round_trip(self, network):
        batch = MutationBatch(
            (mutation_for(network, 0), mutation_for(network, 3, 0.5))
        )
        clone = MutationBatch.from_wire(batch.to_wire())
        assert len(clone) == 2
        assert clone.to_wire() == batch.to_wire()

    @pytest.mark.parametrize(
        "doc",
        [
            "not an object",
            {},
            {"mutations": []},
            {"mutations": "nope"},
        ],
    )
    def test_malformed_batch(self, doc):
        with pytest.raises(QueryError):
            MutationBatch.from_wire(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"source": True, "target": 1, "pattern": {}},
            {"source": 0, "target": "x", "pattern": {}},
            {"source": 0, "target": 1},
        ],
    )
    def test_malformed_mutation(self, doc):
        with pytest.raises(QueryError):
            EdgeMutation.from_wire(doc)

    def test_batch_size_limit(self, network):
        wire = mutation_for(network).to_wire()
        doc = {"mutations": [wire] * (MAX_MUTATIONS_PER_BATCH + 1)}
        with pytest.raises(QueryError, match="exceeds the limit"):
            MutationBatch.from_wire(doc)


# ----------------------------------------------------------------------
# Validation and application
# ----------------------------------------------------------------------
class TestValidateApply:
    def test_unknown_edge_is_typed_and_atomic(self, network):
        good = mutation_for(network)
        bad = EdgeMutation(good.source, good.source + 999999, good.pattern)
        before = {
            (e.source, e.target): e.pattern for e in network.edges()
        }
        with pytest.raises(EdgeNotFoundError):
            apply_batch(network, MutationBatch((good, bad)))
        after = {(e.source, e.target): e.pattern for e in network.edges()}
        assert after == before  # all-or-nothing: the good one did not land

    def test_calendar_gap_is_typed(self, network):
        edge = list(network.edges())[0]
        partial = slowdown_pattern(edge.pattern, 0.5)
        only_first = type(partial)(
            {partial.categories[0]: partial.daily(partial.categories[0])}
        )
        if set(network.calendar.categories.names) <= {partial.categories[0]}:
            pytest.skip("single-category calendar cannot have a gap")
        with pytest.raises(NetworkError, match="do not cover"):
            validate_batch(
                network,
                MutationBatch(
                    (EdgeMutation(edge.source, edge.target, only_first),)
                ),
            )

    def test_apply_records_old_and_new(self, network):
        mutation = mutation_for(network, 0, 0.25)
        old_pattern = network.find_edge(mutation.source, mutation.target).pattern
        applied = apply_batch(network, MutationBatch((mutation,)))
        assert len(applied) == 1
        record = applied[0]
        assert record.old_pattern == old_pattern
        assert record.new_pattern == mutation.pattern
        assert (
            network.find_edge(mutation.source, mutation.target).pattern
            == mutation.pattern
        )


# ----------------------------------------------------------------------
# Incident traces
# ----------------------------------------------------------------------
class TestTrace:
    def test_round_trip_sorted(self, network, tmp_path):
        events = [
            TraceEvent(5.0, MutationBatch((mutation_for(network, 1),))),
            TraceEvent(1.0, MutationBatch((mutation_for(network, 0),))),
        ]
        path = tmp_path / "trace.jsonl"
        dump_trace(events, path)
        loaded = load_trace(path)
        assert [e.at for e in loaded] == [1.0, 5.0]
        assert loaded[1].batch.to_wire() == events[0].batch.to_wire()

    def test_comments_and_blanks_skipped(self, network, tmp_path):
        path = tmp_path / "trace.jsonl"
        wire = MutationBatch((mutation_for(network),)).to_wire()
        import json

        path.write_text(
            "# incident replay\n\n"
            + json.dumps({"at": 0.5, **wire})
            + "\n",
            encoding="utf-8",
        )
        assert len(load_trace(path)) == 1

    def test_bad_line_names_its_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"at": 1.0}\n', encoding="utf-8")
        with pytest.raises(QueryError, match="trace.jsonl:1"):
            load_trace(path)

    def test_negative_offset_rejected(self, network, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        wire = MutationBatch((mutation_for(network),)).to_wire()
        path.write_text(json.dumps({"at": -1, **wire}), encoding="utf-8")
        with pytest.raises(QueryError, match="seconds >= 0"):
            load_trace(path)

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("# nothing here\n", encoding="utf-8")
        with pytest.raises(QueryError, match="no events"):
            load_trace(path)


# ----------------------------------------------------------------------
# Delta re-customization stays exact
# ----------------------------------------------------------------------
def _answers(network, estimator, pairs):
    engine = IntAllFastestPaths(network, estimator)
    return [
        _canonical(engine.all_fastest_paths(s, t, INTERVAL)) for s, t in pairs
    ]


class TestEstimatorDelta:
    def test_delta_refresh_keeps_queries_exact(self, network):
        estimator = BoundaryNodeEstimator(network, 4, 4)
        estimator.precompute()
        mutation = mutation_for(network, 0, 0.2)
        applied = apply_batch(network, MutationBatch((mutation,)))
        estimator.refresh_delta(applied)

        pairs = [
            (mutation.source, mutation.target),
            (0, network.node_count - 1),
            (3, network.node_count - 5),
        ]
        exact = _answers(network, NaiveEstimator(network), pairs)
        assert _answers(network, estimator, pairs) == exact

    def test_speedup_keeps_bound_admissible(self, network):
        # Raising a speed raises v_max: the naive component must follow,
        # or the Euclidean bound turns inadmissible and A* goes wrong.
        estimator = BoundaryNodeEstimator(network, 4, 4)
        estimator.precompute()
        mutation = mutation_for(network, 0, 4.0)
        applied = apply_batch(network, MutationBatch((mutation,)))
        estimator.refresh_delta(applied)
        pairs = [(mutation.source, mutation.target), (0, network.node_count - 1)]
        exact = _answers(network, NaiveEstimator(network), pairs)
        assert _answers(network, estimator, pairs) == exact


def _level_bytes(overlay):
    return [
        (bytes(lv.src), bytes(lv.dst), bytes(lv.off), bytes(lv.xs), bytes(lv.ys))
        for lv in overlay.levels
    ]


def _assert_matches_flat(network, overlay, pairs):
    """``OverlayEngine`` answers equal the flat engine's on the live
    network to 1e-6, at every breakpoint of either border."""
    flat = IntAllFastestPaths(network)
    fast = OverlayEngine(overlay)
    for source, target in pairs:
        want = flat.all_fastest_paths(source, target, INTERVAL)
        got = fast.all_fastest_paths(source, target, INTERVAL)
        instants = {
            x for x, _ in got.border.breakpoints + want.border.breakpoints
        } | set(INTERVAL.sample(5))
        for instant in sorted(instants):
            assert got.travel_time_at(instant) == pytest.approx(
                want.travel_time_at(instant), abs=1e-6
            ), (source, target, instant)


def _expected_stale(network, overlay, boot_patterns):
    """Per level, the cells holding an intra-cell edge whose pattern differs
    from the build's — recomputed from scratch."""
    stale = [set() for _ in overlay.levels]
    for e in network.edges():
        if e.pattern == boot_patterns[(e.source, e.target)]:
            continue
        for k, cells in enumerate(stale):
            if overlay.cell_at(e.source, k) == overlay.cell_at(e.target, k):
                cells.add(overlay.cell_at(e.source, k))
    return stale


class TestOverlayDelta:
    def test_intra_cell_edge_marks_cell_stale(self):
        network = make_metro_network(MetroConfig(width=10, height=10, seed=23))
        horizon = TimeInterval(0.0, 48 * 60.0)
        overlay = MultiLevelOverlay.build(network, levels=2, nx=4, horizon=horizon)
        before = _level_bytes(overlay)
        # An intra-cell edge at level 0 (same cell for both endpoints).
        mutation = next(
            m
            for m in (
                mutation_for(network, i, 0.2)
                for i in range(len(list(network.edges())))
            )
            if overlay.cell_at(m.source, 0) == overlay.cell_at(m.target, 0)
        )
        applied = apply_batch(network, MutationBatch((mutation,)))
        assert overlay.refresh_delta(applied) == 0
        assert _level_bytes(overlay) == before
        assert overlay.stale == [
            {overlay.cell_at(mutation.source, k)} for k in range(2)
        ]
        _assert_matches_flat(
            network,
            overlay,
            [(mutation.source, mutation.target), (0, 99), (3, 95)],
        )

    def test_cross_cell_edge_needs_no_recompute(self):
        network = make_metro_network(MetroConfig(width=10, height=10, seed=23))
        overlay = MultiLevelOverlay.build(
            network, levels=1, nx=4, horizon=TimeInterval(0.0, 48 * 60.0)
        )
        mutation = next(
            m
            for m in (
                mutation_for(network, i, 0.2)
                for i in range(len(list(network.edges())))
            )
            if overlay.cell_at(m.source, 0) != overlay.cell_at(m.target, 0)
        )
        before = bytes(overlay.levels[0].xs)
        applied = apply_batch(network, MutationBatch((mutation,)))
        assert overlay.refresh_delta(applied) == 0
        assert bytes(overlay.levels[0].xs) == before
        assert overlay.stale == [set()]


STALE_PAIRS = [(0, 99), (22, 77), (3, 95)]


def _stale_case():
    """The 10x10 seed-23 metro with a 2-level ``nx=4`` overlay, a pool of
    edges (intra-cell at level 0, crossing level 0 inside a level-1 cell,
    crossing level 1) and the boot answers to ``STALE_PAIRS``."""
    network = make_metro_network(MetroConfig(width=10, height=10, seed=23))
    overlay = MultiLevelOverlay.build(
        network, levels=2, nx=4, horizon=TimeInterval(0.0, 48 * 60.0)
    )
    edges = list(network.edges())

    def span(e):
        return [
            overlay.cell_at(e.source, k) == overlay.cell_at(e.target, k)
            for k in range(2)
        ]

    pool = (
        [e for e in edges if span(e) == [True, True]][:4]
        + [e for e in edges if span(e) == [False, True]][:3]
        + [e for e in edges if span(e) == [False, False]][:2]
    )
    engine = OverlayEngine(overlay)
    boot = [
        _canonical(engine.all_fastest_paths(s, t, INTERVAL))
        for s, t in STALE_PAIRS
    ]
    return network, overlay, pool, boot


_BATCH = st.lists(
    st.tuples(
        st.integers(0, 8), st.sampled_from(["slow", "restore", "speedup"])
    ),
    min_size=1,
    max_size=4,
)


class TestStaleCells:
    @settings(max_examples=12, deadline=None)
    @given(batches=st.lists(_BATCH, min_size=1, max_size=4))
    def test_stale_cells_track_changed_edges(self, batches):
        network, overlay, pool, boot = _stale_case()
        built = _level_bytes(overlay)
        boot_patterns = {(e.source, e.target): e.pattern for e in network.edges()}

        def pattern(edge, kind):
            original = boot_patterns[(edge.source, edge.target)]
            factor = {"slow": 0.3, "speedup": 2.0}.get(kind)
            return original if factor is None else slowdown_pattern(original, factor)

        restore_all = [(i, "restore") for i in range(len(pool))]
        for batch in [*batches, restore_all]:
            mutations = tuple(
                EdgeMutation(
                    pool[i].source, pool[i].target, pattern(pool[i], kind)
                )
                for i, kind in batch
            )
            applied = apply_batch(network, MutationBatch(mutations))
            assert overlay.refresh_delta(applied) == 0
            assert _level_bytes(overlay) == built
            assert overlay.stale == _expected_stale(
                network, overlay, boot_patterns
            )
            _assert_matches_flat(network, overlay, STALE_PAIRS)
        assert overlay.stale == [set(), set()]
        engine = OverlayEngine(overlay)
        assert [
            _canonical(engine.all_fastest_paths(s, t, INTERVAL))
            for s, t in STALE_PAIRS
        ] == boot


# ----------------------------------------------------------------------
# Service-level live updates
# ----------------------------------------------------------------------
def _request(source, target, **kw):
    return QueryRequest(source, target, INTERVAL, "allfp", **kw)


class TestBatchBeyondHorizonPad:
    """With every edge slowed x1e-3, level-0 shortcuts would be slower than
    the 12 h horizon pad, so a re-customization would run the level-1
    search off their window.  No update re-customizes: every cell goes
    stale, the overlay stays as built, and the service keeps answering on
    it, exactly, at the new version.
    """

    @staticmethod
    def _case():
        network = make_metro_network(MetroConfig(width=10, height=10, seed=23))
        overlay = MultiLevelOverlay.build(
            network, levels=2, nx=4, horizon=TimeInterval(0.0, 48 * 60.0)
        )
        batch = MutationBatch(
            tuple(
                EdgeMutation(e.source, e.target, slowdown_pattern(e.pattern, 1e-3))
                for e in network.edges()
            )
        )
        reference_net = copy.deepcopy(network)
        apply_batch(reference_net, batch)
        flat = IntAllFastestPaths(reference_net).all_fastest_paths(0, 99, INTERVAL)
        return network, overlay, batch, flat

    def test_service_stays_on_overlay_at_new_version(self):
        network, overlay, batch, flat = self._case()
        before = _level_bytes(overlay)
        service = AllFPService(
            network, config=ServiceConfig(), overlay=overlay
        )
        try:
            assert service.query(_request(0, 99)).version == 0
            assert service.apply_updates(batch) == 1
            live = service.query(_request(0, 99))
            assert (live.version, live.cached, live.degraded) == (1, False, False)
            assert service.degraded is False
            assert live.result.border.breakpoints == flat.border.breakpoints
            assert live.result.entries == flat.entries
            assert _level_bytes(overlay) == before
        finally:
            service.close()

    def test_sharded_tier_keeps_both_workers(self, tmp_path):
        from repro.estimators import snapshot as snap
        from repro.shard import ShardedService

        network, overlay, batch, flat = self._case()
        path = tmp_path / "combo.ovl"
        snap.save_tables(
            BoundaryNodeEstimator(network, 4, 4).tables,
            path,
            snap.network_fingerprint(network),
            overlay=overlay,
        )
        tier = ShardedService(
            network,
            None,
            ServiceConfig(),
            shards=2,
            snapshot_path=str(path),
            overlay_path=str(path),
        )
        try:
            assert tier.apply_updates(batch) == 1
            assert [h["alive"] for h in tier.shard_health()] == [True, True]
            got = tier.query(_request(0, 99))
            assert got.version == 1
            assert got.result.as_dict()["border"] == [
                list(p) for p in flat.border.breakpoints
            ]
        finally:
            tier.close()


class TestRestartAfterUpdates:
    def test_restarted_worker_reattaches_boot_time_files(self, tmp_path):
        """A worker restarted after a live update forks the *mutated*
        network.  It must rewind to the boot-time one, attach the tables and
        the overlay customized for it and be brought up to date by the log
        replay — not fall back to the naive bound / flat engine and flag the
        shard degraded for good.  The x20 speed-up makes the rewind matter:
        the tables take an edge's first assumed weight from the mutation's
        old pattern, so refreshed against an already-mutated network (old
        pattern == new) they miss the speed-up, keep the boot entries, turn
        inadmissible, and answers into node 99 come out slow."""
        import time

        from repro.estimators import snapshot as snap
        from repro.shard import ShardedService, routing_key

        network = make_metro_network(MetroConfig(width=10, height=10, seed=5))
        estimator = BoundaryNodeEstimator(network, 5, 5)
        overlay_file = tmp_path / "boot.ovl"
        snap.save_tables(
            estimator.tables,
            overlay_file,
            snap.network_fingerprint(network),
            overlay=MultiLevelOverlay.build(network, levels=1, nx=5),
        )
        batch = MutationBatch(
            (mutation_for(network, 138, 20.0), mutation_for(network, 0, 0.2))
        )
        # Bytes are compared like for like: the reference is a service on
        # the boot overlay that applied the same batch.
        reference_net = copy.deepcopy(network)
        reference = AllFPService(
            reference_net,
            config=ServiceConfig(),
            overlay=MultiLevelOverlay.build(reference_net, levels=1, nx=5),
        )
        assert reference.apply_updates(batch) == 1
        tier = ShardedService(
            network,
            estimator,
            ServiceConfig(),
            shards=2,
            overlay_path=str(overlay_file),
            breaker_reset=0.1,
        )
        try:
            assert tier.apply_updates(batch) == 1
            tier.kill_shard(0)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                shard = tier.shard_health()[0]
                if shard["restarts"] == 1 and shard.get("applied_version") == 1:
                    break
                time.sleep(0.05)
            assert (shard["restarts"], shard["applied_version"]) == (1, 1), shard
            assert (shard["tables_mode"], shard["overlay_mode"]) == ("mmap", "mmap")
            assert not shard["degraded"]
            requests = [
                request
                for request in (_request(source, 99) for source in range(0, 60, 3))
                if tier.ring.preference(routing_key(request))[0] == 0
            ]
            assert len(requests) >= 4
            deadline = time.monotonic() + 10.0
            while tier.degraded and time.monotonic() < deadline:
                time.sleep(0.05)  # the killed shard's breaker closing again
            assert not tier.degraded
            for request in requests:
                live = tier.query(request)
                assert (live.version, live.degraded) == (1, False)
                fresh = reference.query(request)
                assert _canonical(live.result) == _canonical(fresh.result)
        finally:
            tier.close()
            reference.close()


class TestServiceUpdates:
    def test_versioned_apply_matches_fresh_service(self, network):
        reference_net = copy.deepcopy(network)
        service = AllFPService(network, config=ServiceConfig())
        try:
            mutation = mutation_for(network, 0, 0.2)
            pairs = [
                (mutation.source, mutation.target),
                (0, network.node_count - 1),
            ]
            before = service.query(_request(*pairs[0]))
            assert before.version == 0

            version = service.apply_updates(MutationBatch((mutation,)))
            assert version == 1
            assert service.health()["network_version"] == 1

            apply_batch(reference_net, MutationBatch((mutation,)))
            reference = AllFPService(
                reference_net, config=ServiceConfig()
            )
            try:
                for source, target in pairs:
                    live = service.query(_request(source, target))
                    assert live.version == 1
                    fresh = reference.query(_request(source, target))
                    assert _canonical(live.result) == _canonical(fresh.result)
            finally:
                reference.close()
        finally:
            service.close()

    def test_edge_store_survives_a_batch(self, network):
        """A batch leaves the warm edge store in place: the next queries
        rebuild only the changed edge's functions and answer byte for byte
        what a fresh service at that version answers."""
        reference_net = copy.deepcopy(network)
        service = AllFPService(network, config=ServiceConfig())
        mutation = mutation_for(network, 0, 0.2)
        pairs = [
            (mutation.source, mutation.target),
            (0, network.node_count - 1),
        ]
        try:
            for pair in pairs:
                service.query(_request(*pair))
            warm = service.stats()["edge_cache"]
            service.apply_updates(MutationBatch((mutation,)))
            gauge = parse_metrics(service.render_metrics())
            assert gauge["repro_edge_cache_entries"] == warm["entries"] > 0
            apply_batch(reference_net, MutationBatch((mutation,)))
            reference = AllFPService(reference_net, config=ServiceConfig())
            try:
                for pair in pairs:
                    live = service.query(_request(*pair))
                    assert live.version == 1 and not live.cached
                    fresh = reference.query(_request(*pair))
                    assert _canonical(live.result) == _canonical(fresh.result)
            finally:
                reference.close()
            rebuilt = service.stats()["edge_cache"]["misses"] - warm["misses"]
            assert 0 < rebuilt < warm["entries"]
        finally:
            service.close()

    def test_caches_invalidated_by_update(self, network):
        service = AllFPService(network, config=ServiceConfig())
        try:
            mutation = mutation_for(network, 0, 0.05)
            request = _request(mutation.source, mutation.target)
            before = service.query(request).result.best()[1]
            service.query(request)  # definitely cached now
            service.apply_updates(MutationBatch((mutation,)))
            after = service.query(request).result.best()[1]
            # 20x slowdown on the direct edge must show up: a cached
            # result or a poisoned edge-function memo would hide it.
            assert after > before
        finally:
            service.close()

    def test_rejected_batch_leaves_version_alone(self, network):
        service = AllFPService(network, config=ServiceConfig())
        try:
            good = mutation_for(network)
            bad = EdgeMutation(good.source, good.source + 999999, good.pattern)
            with pytest.raises(EdgeNotFoundError):
                service.apply_updates(MutationBatch((good, bad)))
            health = service.health()
            assert (health["network_version"], health["pending_updates"]) == (0, 0)
            assert service.query(_request(0, 5)).version == 0
        finally:
            service.close()

    def test_max_staleness_rejection_is_typed(self, network):
        service = AllFPService(network, config=ServiceConfig())
        try:
            # Simulate a long-pending batch without racing a real apply.
            import time as _time

            service._updates._pending.append(_time.monotonic() - 5.0)
            with pytest.raises(StalenessExceeded) as excinfo:
                service.query(_request(0, 5, max_staleness=1.0))
            assert excinfo.value.staleness >= 5.0
            assert excinfo.value.max_staleness == 1.0
            service._updates._pending.clear()
            # Bounded-staleness queries pass when the backlog is clear.
            assert service.query(_request(0, 5, max_staleness=1.0)).version == 0
        finally:
            service.close()


# ----------------------------------------------------------------------
# The race satellite: invalidate(refresh_estimator=True) vs. in-flight
# queries — no stale-version answer may escape unflagged.
# ----------------------------------------------------------------------
class TestInvalidateRace:
    def test_no_unflagged_stale_answer_escapes(self, network):
        estimator = BoundaryNodeEstimator(network, 4, 4)
        estimator.precompute()
        service = AllFPService(
            network, estimator, config=ServiceConfig()
        )
        mutation = mutation_for(network, 0, 0.2)

        baseline_nets = [copy.deepcopy(network)]
        mutated = copy.deepcopy(network)
        apply_batch(mutated, MutationBatch((mutation,)))
        baseline_nets.append(mutated)
        pairs = [(mutation.source, mutation.target), (0, network.node_count - 1)]
        baselines = []
        for net in baseline_nets:
            ref = AllFPService(net, config=ServiceConfig())
            try:
                baselines.append(
                    [_canonical(ref.query(_request(*p)).result) for p in pairs]
                )
            finally:
                ref.close()

        responses = []
        failures = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                for pair in pairs:
                    try:
                        responses.append(service.query(_request(*pair)))
                    except Exception as exc:  # noqa: BLE001
                        failures.append(exc)
                        return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        try:
            for t in threads:
                t.start()
            service.invalidate(refresh_estimator=True)
            service.apply_updates(MutationBatch((mutation,)))
            service.invalidate(refresh_estimator=True)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=60.0)
            service.close()

        assert not failures, failures
        assert responses
        by_pair = {pair: i for i, pair in enumerate(pairs)}
        for response in responses:
            pair = (response.result.source, response.result.target)
            if response.version < 0:
                # Unversioned answers are only legal when flagged stale.
                assert response.stale
                continue
            assert response.version in (0, 1)
            expected = baselines[response.version][by_pair[pair]]
            assert _canonical(response.result) == expected


# ----------------------------------------------------------------------
# Chaos under mutation
# ----------------------------------------------------------------------
def _chaos_fixture(seed: int):
    network = make_metro_network(MetroConfig(width=8, height=8, seed=seed))
    edges = list(network.edges())
    trace = [
        TraceEvent(
            0.05,
            MutationBatch(
                (
                    EdgeMutation(
                        edges[0].source,
                        edges[0].target,
                        slowdown_pattern(edges[0].pattern, 0.25),
                    ),
                )
            ),
        ),
        TraceEvent(
            0.15,
            MutationBatch(
                (
                    EdgeMutation(
                        edges[4].source,
                        edges[4].target,
                        slowdown_pattern(edges[4].pattern, 0.5),
                    ),
                    EdgeMutation(
                        edges[0].source,
                        edges[0].target,
                        slowdown_pattern(edges[0].pattern, 2.0),
                    ),
                )
            ),
        ),
    ]
    queries = [
        QuerySpec(edges[0].source, edges[0].target, INTERVAL, 0.0),
        QuerySpec(0, network.node_count - 1, INTERVAL, 0.0),
    ]
    return network, trace, queries


class TestMutationChaos:
    def test_invariant_holds_without_faults(self):
        network, trace, queries = _chaos_fixture(23)
        service = AllFPService(network, config=ServiceConfig())
        try:
            report = run_chaos(service, queries, trace=trace, clients=2)
        finally:
            service.close()
        assert report.passed(), report.violations
        assert report.versions == len(trace)
        assert report.mutations_applied == 3
        assert report.requests > 0

    def test_invariant_holds_under_faults(self):
        network, trace, queries = _chaos_fixture(31)
        service = AllFPService(network, config=ServiceConfig())
        try:
            report = run_chaos(
                service, queries, default_fault_plan(7), trace=trace, clients=2
            )
        finally:
            service.close()
        assert report.passed(), report.violations
        assert report.versions == len(trace)

    def test_report_dict_carries_mutation_fields(self):
        network, trace, queries = _chaos_fixture(5)
        service = AllFPService(network, config=ServiceConfig())
        try:
            report = run_chaos(service, queries, trace=trace, clients=1)
        finally:
            service.close()
        doc = report.as_dict()
        assert doc["mutations_applied"] == 3
        assert doc["versions"] == 2
        assert doc["passed"] is True
