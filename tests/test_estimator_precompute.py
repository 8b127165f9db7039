"""Tests for the persistent, array-backed estimator precompute.

Covers the subsystem end to end: exact agreement of the flat stores with a
definitional Bellman–Ford oracle (property-based over random networks),
admissibility of the bounds, snapshot round-trip and corruption handling,
precompute idempotency, the live-update rule (tables over each edge's
fastest-ever weight), CLI cache flows (hit, miss, fingerprint mismatch →
exit 2), and serve-layer warm-start metrics.
"""

from __future__ import annotations

import copy
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.astar import fixed_departure_query
from repro.core.engine import IntAllFastestPaths
from repro.estimators.boundary import BoundaryNodeEstimator
from repro.estimators.naive import NaiveEstimator
from repro.estimators.precompute import (
    EstimatorTables,
    compute_tables,
    multi_source_dijkstra_indexed,
)
from repro.estimators.snapshot import (
    MAGIC,
    network_fingerprint,
    save_tables,
)
from repro.exceptions import EstimatorError, NoPathError
from repro.network.generator import MetroConfig, make_metro_network
from repro.network.model import CapeCodNetwork
from repro.patterns.speed import CapeCodPattern, DailySpeedPattern
from repro.serve import QueryRequest
from repro.serve.chaos import _canonical
from repro.serve.updates import (
    EdgeMutation,
    MutationBatch,
    apply_batch,
    slowdown_pattern,
)
from repro.timeutil import TimeInterval, parse_clock

INF = float("inf")


def _bellman_ford(edges, source, reverse=False):
    """``{node: weight}`` of the lightest walk from (``reverse``: to) source."""
    dist = {source: 0.0}
    changed = True
    while changed:
        changed = False
        for u, v, w in edges:
            if reverse:
                u, v = v, u
            if u in dist and dist[u] + w < dist.get(v, INF):
                dist[v] = dist[u] + w
                changed = True
    return dist


def _assert_matches_oracle(network, nx, ny, metric, targets):
    """The §5 stores, straight from their definitions: ``D(C1, C2)`` is the
    minimum over boundary pairs, ``d(n, ∂C)`` / ``d(∂C, n)`` the minimum over
    the own cell's boundary — one Bellman–Ford per boundary node, no heap,
    no dense index, no multi-source collapse.  Compared exactly."""
    est = BoundaryNodeEstimator(network, nx, ny, metric=metric)
    tables, grid = est.tables, est.grid
    edges = [
        (e.source, e.target,
         e.distance if metric == "distance" else e.distance / e.pattern.max_speed())
        for e in network.edges()
    ]
    boundary = [b for cell in grid.cells() for b in cell.boundary]
    out = {b: _bellman_ford(edges, b) for b in boundary}
    back = {b: _bellman_ford(edges, b, reverse=True) for b in boundary}
    to_b, from_b, pair = {}, {}, {}
    for c1 in grid.cells():
        for n in c1.members:
            to_b[n] = min((back[b].get(n, INF) for b in c1.boundary), default=INF)
            from_b[n] = min((out[b].get(n, INF) for b in c1.boundary), default=INF)
            assert tables.to_boundary[tables.index(n)] == to_b[n], n
            assert tables.from_boundary[tables.index(n)] == from_b[n], n
        for c2 in grid.cells():
            pair[c1.index, c2.index] = INF if c1 is c2 else min(
                (out[b1].get(b2, INF) for b1 in c1.boundary for b2 in c2.boundary),
                default=INF,
            )
            got = tables.cell_pair[c1.index * grid.cell_count + c2.index]
            assert got == pair[c1.index, c2.index], (c1.index, c2.index)
    scale = 1.0 if metric == "time" else network.max_speed()
    for target in targets:
        est.prepare(target)
        target_cell = grid.cell_of_node(target)
        for node in network.node_ids():
            cell = grid.cell_of_node(node)
            want = INF if cell == target_cell else (
                to_b[node] + pair[cell, target_cell] + from_b[target]
            ) / scale
            assert est.boundary_bound(node) == want, (node, target)


class TestBackendParity:
    def test_metro_tiny_bitwise(self, metro_tiny):
        _assert_matches_oracle(metro_tiny, 3, 3, "time", [0, 17, 42])

    def test_distance_metric_bitwise(self, metro_tiny):
        _assert_matches_oracle(metro_tiny, 2, 4, "distance", [0, 99])

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        width=st.integers(min_value=4, max_value=8),
        height=st.integers(min_value=4, max_value=8),
        nx=st.integers(min_value=1, max_value=4),
        ny=st.integers(min_value=1, max_value=4),
        metric=st.sampled_from(["time", "distance"]),
    )
    def test_property_random_networks(self, seed, width, height, nx, ny, metric):
        network = make_metro_network(
            MetroConfig(width=width, height=height, seed=seed)
        )
        rng = random.Random(seed)
        targets = rng.sample(list(network.node_ids()), k=2)
        _assert_matches_oracle(network, nx, ny, metric, targets)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        depart=st.floats(min_value=0.0, max_value=1439.0),
    )
    def test_property_admissible(self, seed, depart):
        """Bounds never exceed the true fastest travel time."""
        network = make_metro_network(MetroConfig(width=6, height=6, seed=seed))
        est = BoundaryNodeEstimator(network, 3, 3)
        rng = random.Random(seed)
        target = rng.choice(list(network.node_ids()))
        est.prepare(target)
        for node in list(network.node_ids())[::3]:
            if node == target:
                continue
            try:
                actual = fixed_departure_query(
                    network, node, target, depart
                ).travel_time
            except NoPathError:
                continue
            assert est.bound(node) <= actual + 1e-9

    def test_non_dense_node_ids(self, single_calendar):
        """Sparse ids exercise the id→index map instead of direct indexing."""
        pattern = CapeCodPattern(
            {
                single_calendar.categories.names[0]: DailySpeedPattern(
                    [(0.0, 0.5)]
                )
            }
        )
        net = CapeCodNetwork.from_elements(
            single_calendar,
            [(10, 0.0, 0.0), (20, 1.0, 0.0), (35, 1.0, 1.0), (47, 0.0, 1.0)],
            [
                (10, 20, 1.0, pattern),
                (20, 35, 1.0, pattern),
                (35, 47, 1.0, pattern),
                (47, 10, 1.0, pattern),
            ],
        )
        arr = BoundaryNodeEstimator(net, 2, 2)
        assert not arr.tables.dense
        _assert_matches_oracle(net, 2, 2, "time", (10, 35))
        arr.prepare(10)
        with pytest.raises(EstimatorError):
            arr.boundary_bound(11)

    def test_unknown_node_raises(self, metro_tiny):
        est = BoundaryNodeEstimator(metro_tiny, 2, 2)
        est.prepare(0)
        with pytest.raises(EstimatorError):
            est.boundary_bound(10**9)

    def test_engine_results_identical(self, metro_tiny):
        """End-to-end: the bound only prunes — the engine's answer is the
        naive-bound engine's answer, reached with no more expansions."""
        interval = TimeInterval(parse_clock("7:00"), parse_clock("8:00"))
        results = []
        for est in (BoundaryNodeEstimator(metro_tiny, 3, 3), None):
            engine = IntAllFastestPaths(metro_tiny, est)
            result = engine.all_fastest_paths(0, 77, interval)
            results.append(result)
        assert results[0].entries == results[1].entries
        assert results[0].stats.expanded_paths <= results[1].stats.expanded_paths


class TestIdempotency:
    def test_precompute_twice_is_noop(self, metro_tiny, monkeypatch):
        est = BoundaryNodeEstimator(metro_tiny, 3, 3, defer=True)
        assert not est.is_precomputed
        est.precompute()
        tables = est.tables
        assert est.is_precomputed

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("precompute ran twice")

        monkeypatch.setattr(
            "repro.estimators.boundary.compute_tables", boom
        )
        est.precompute()
        est.prepare(0)  # prepare() must not re-run the Dijkstras either
        assert est.tables is tables

    def test_defer_then_prepare_precomputes(self, metro_tiny):
        est = BoundaryNodeEstimator(metro_tiny, 3, 3, defer=True)
        est.prepare(5)
        assert est.is_precomputed
        assert est.bound(50) > 0.0

    def test_refresh_recomputes(self, metro_tiny):
        est = BoundaryNodeEstimator(metro_tiny, 3, 3)
        first = est.tables
        est.prepare(0)
        bound = est.bound(42)
        est.refresh()
        assert est.tables is not first
        assert est.tables.cell_pair == first.cell_pair
        est.prepare(0)
        assert est.bound(42) == bound

    def test_rejects_bad_backend(self, metro_tiny):
        # There is one store; the selector argument is gone, not ignored.
        with pytest.raises(TypeError):
            BoundaryNodeEstimator(metro_tiny, 2, 2, backend="banana")


class TestIndexedDijkstra:
    def test_skips_stale_entries_without_redundant_relaxations(self):
        # Diamond where the longer edge to node 1 enqueues a stale entry;
        # counting relaxations via a wrapped adjacency proves the stale pop
        # never rescans node 1's neighbors.
        scans: list[int] = []

        class CountingRow(list):
            def __iter__(inner):
                scans.append(1)
                return super().__iter__()

        adjacency = [
            CountingRow([(1, 10.0), (2, 1.0)]),
            CountingRow([(3, 1.0)]),
            CountingRow([(1, 1.0)]),
            CountingRow([]),
        ]
        dist = multi_source_dijkstra_indexed(adjacency, [0], 4)
        assert dist == [0.0, 2.0, 1.0, 3.0]
        # Each of the four nodes is expanded exactly once; the stale (10.0, 1)
        # heap entry is dropped before touching adjacency[1].
        assert len(scans) == 4

    def test_multiple_sources(self):
        adjacency = [[(1, 5.0)], [(2, 5.0)], [], []]
        dist = multi_source_dijkstra_indexed(adjacency, [0, 3], 4)
        assert dist[0] == 0.0 and dist[3] == 0.0
        assert dist[1] == 5.0 and dist[2] == 10.0


def _stores(tables) -> tuple[bytes, bytes, bytes]:
    return (
        bytes(tables.to_boundary),
        bytes(tables.from_boundary),
        bytes(tables.cell_pair),
    )


def _set_patterns(network, patterns) -> list:
    """Apply ``{(source, target): pattern}`` as one batch."""
    return apply_batch(
        network,
        MutationBatch(
            tuple(EdgeMutation(s, t, pattern) for (s, t), pattern in patterns.items())
        ),
    )


class TestLiveUpdates:
    """The time-metric tables assume each edge's fastest-ever weight: a
    slow-down and its restore leave them as they are, a speed-up past that
    weight precomputes them again."""

    def test_slow_restore_rounds_return_to_boot(self):
        network = make_metro_network(MetroConfig(width=12, height=12, seed=1))
        estimator = BoundaryNodeEstimator(network, 4, 4)
        interval = TimeInterval(parse_clock("7:00"), parse_clock("9:00"))
        rng = random.Random(1)
        nodes = sorted(network.node_ids())
        queries = [tuple(rng.sample(nodes, 2)) for _ in range(8)]

        def expansions():
            engine = IntAllFastestPaths(network, estimator)
            return [
                engine.all_fastest_paths(s, t, interval).stats.expanded_paths
                for s, t in queries
            ]

        boot_stores, boot_expansions = _stores(estimator.tables), expansions()
        edges = sorted(network.edges(), key=lambda e: (e.source, e.target))
        for _ in range(3):
            chosen = rng.sample(edges, 4)
            base = {(e.source, e.target): e.pattern for e in chosen}
            slowed = {
                key: slowdown_pattern(pattern, 0.25) for key, pattern in base.items()
            }
            for patterns in (slowed, base):
                estimator.refresh_delta(_set_patterns(network, patterns))
                assert _stores(estimator.tables) == boot_stores
        assert expansions() == boot_expansions

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        batches=st.lists(
            st.dictionaries(
                st.integers(min_value=0, max_value=10**6),
                st.sampled_from([0.25, 0.5, 1.5, 2.0, None]),  # None: restore
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_property_tables_over_fastest_ever_weights(self, seed, batches):
        network = make_metro_network(MetroConfig(width=6, height=6, seed=seed))
        boot = {(e.source, e.target): e.pattern for e in network.edges()}
        keys = sorted(boot)
        estimator = BoundaryNodeEstimator(network, 3, 3)
        grid = estimator.grid
        interval = TimeInterval(parse_clock("7:00"), parse_clock("8:00"))
        queries = [
            tuple(random.Random(seed + i).sample(sorted(network.node_ids()), 2))
            for i in range(3)
        ]
        fastest: dict = {}
        for batch in batches:
            patterns = {}
            for pick, factor in batch.items():
                key = keys[pick % len(keys)]
                patterns[key] = (
                    boot[key] if factor is None else slowdown_pattern(boot[key], factor)
                )
            for key, pattern in patterns.items():
                fastest[key] = max(
                    fastest.get(key, boot[key]), pattern, key=lambda p: p.max_speed()
                )
            estimator.refresh_delta(_set_patterns(network, patterns))
            tables = estimator.tables

            # Exact over the fastest-ever weights, checked on a network that
            # carries those patterns (no assumed weights passed in).
            reference = copy.deepcopy(network)
            _set_patterns(reference, fastest)
            assert _stores(tables) == _stores(compute_tables(reference, grid, "time"))

            # Never above the tables of the current network.
            fresh = compute_tables(network, grid, "time")
            for got, tight in (
                (tables.to_boundary, fresh.to_boundary),
                (tables.from_boundary, fresh.from_boundary),
                (tables.cell_pair, fresh.cell_pair),
            ):
                assert all(a <= b for a, b in zip(got, tight))

            # And A* stays exact.
            bounded = IntAllFastestPaths(network, estimator)
            naive = IntAllFastestPaths(network, NaiveEstimator(network))
            for source, target in queries:
                assert _canonical(
                    bounded.all_fastest_paths(source, target, interval)
                ) == _canonical(naive.all_fastest_paths(source, target, interval))


class TestSnapshot:
    def test_roundtrip_identical_bounds(self, metro_tiny, tmp_path):
        path = tmp_path / "est.snap"
        cold = BoundaryNodeEstimator(metro_tiny, 3, 3)
        cold.save_snapshot(path)
        warm = BoundaryNodeEstimator.from_snapshot(metro_tiny, path)
        assert warm.loaded_from_snapshot
        assert warm.precompute_seconds == 0.0
        assert warm.grid.shape == (3, 3)
        for target in (0, 42):
            cold.prepare(target)
            warm.prepare(target)
            for node in metro_tiny.node_ids():
                assert cold.bound(node) == warm.bound(node)

    def test_snapshot_has_no_pickle(self, metro_tiny, tmp_path):
        path = tmp_path / "est.snap"
        BoundaryNodeEstimator(metro_tiny, 2, 2).save_snapshot(path)
        blob = path.read_bytes()
        assert blob.startswith(MAGIC)
        assert b"pickle" not in blob
        # PROTO opcode of every modern pickle stream
        assert not blob.startswith(b"\x80")

    def test_missing_file(self, metro_tiny, tmp_path):
        with pytest.raises(EstimatorError, match="cannot open"):
            BoundaryNodeEstimator.from_snapshot(metro_tiny, tmp_path / "no.snap")

    def test_truncated_file(self, metro_tiny, tmp_path):
        path = tmp_path / "est.snap"
        BoundaryNodeEstimator(metro_tiny, 2, 2).save_snapshot(path)
        blob = path.read_bytes()
        for cut in (0, 10, len(blob) // 2, len(blob) - 3):
            path.write_bytes(blob[:cut])
            with pytest.raises(EstimatorError, match="truncated|not an"):
                BoundaryNodeEstimator.from_snapshot(metro_tiny, path)

    def test_wrong_magic(self, metro_tiny, tmp_path):
        path = tmp_path / "est.snap"
        BoundaryNodeEstimator(metro_tiny, 2, 2).save_snapshot(path)
        blob = path.read_bytes()
        path.write_bytes(b"NOTASNAP" + blob[8:])
        with pytest.raises(EstimatorError, match="not an estimator snapshot"):
            BoundaryNodeEstimator.from_snapshot(metro_tiny, path)

    def test_wrong_version(self, metro_tiny, tmp_path):
        path = tmp_path / "est.snap"
        BoundaryNodeEstimator(metro_tiny, 2, 2).save_snapshot(path)
        blob = bytearray(path.read_bytes())
        blob[8:10] = struct.pack("<H", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(EstimatorError, match="version 99"):
            BoundaryNodeEstimator.from_snapshot(metro_tiny, path)

    def test_network_mismatch(self, metro_tiny, tmp_path):
        path = tmp_path / "est.snap"
        BoundaryNodeEstimator(metro_tiny, 2, 2).save_snapshot(path)
        other = make_metro_network(MetroConfig(width=10, height=10, seed=6))
        with pytest.raises(EstimatorError, match="different network"):
            BoundaryNodeEstimator.from_snapshot(other, path)

    def test_fingerprint_sensitive_to_patterns(self, metro_tiny):
        base = network_fingerprint(metro_tiny)
        assert base == network_fingerprint(metro_tiny)  # deterministic
        other = make_metro_network(MetroConfig(width=10, height=10, seed=6))
        assert base != network_fingerprint(other)

    def test_bad_fingerprint_length_rejected(self, metro_tiny, tmp_path):
        est = BoundaryNodeEstimator(metro_tiny, 2, 2)
        with pytest.raises(EstimatorError, match="32-byte"):
            save_tables(est.tables, tmp_path / "x.snap", b"short")

    def test_tables_grid_mismatch_rejected(self, metro_tiny):
        tables = BoundaryNodeEstimator(metro_tiny, 2, 2).tables
        with pytest.raises(EstimatorError, match="grid"):
            BoundaryNodeEstimator(metro_tiny, 3, 3, tables=tables)


class TestServeWarmStart:
    def _service(self, network, estimator):
        from repro.serve import AllFPService, ServiceConfig

        return AllFPService(
            network, estimator, ServiceConfig(max_pending=8)
        )

    def test_snapshot_boot_counts_hit(self, metro_tiny, tmp_path):
        path = tmp_path / "est.snap"
        BoundaryNodeEstimator(metro_tiny, 3, 3).save_snapshot(path)
        est = BoundaryNodeEstimator.from_snapshot(metro_tiny, path)
        with self._service(metro_tiny, est) as service:
            assert (
                service.metrics.counter_value("estimator_snapshot_hits_total")
                == 1.0
            )
            assert (
                service.metrics.counter_value(
                    "estimator_snapshot_misses_total"
                )
                == 0.0
            )
            assert (
                service.metrics.gauge_value("estimator_precompute_seconds")
                == 0.0
            )

    def test_cold_boot_counts_miss_and_seconds(self, metro_tiny):
        est = BoundaryNodeEstimator(metro_tiny, 3, 3)
        with self._service(metro_tiny, est) as service:
            assert (
                service.metrics.counter_value(
                    "estimator_snapshot_misses_total"
                )
                == 1.0
            )
            assert (
                service.metrics.gauge_value("estimator_precompute_seconds")
                > 0.0
            )

    def test_bound_evaluations_metered(self, metro_tiny):
        est = BoundaryNodeEstimator(metro_tiny, 3, 3)
        interval = TimeInterval(parse_clock("7:00"), parse_clock("7:30"))
        with self._service(metro_tiny, est) as service:
            response = service.query(QueryRequest(0, 55, interval))
            assert response.result.stats.bound_evaluations > 0
            assert service.metrics.counter_total(
                "engine_bound_evaluations_total"
            ) == float(response.result.stats.bound_evaluations)

    def test_invalidate_refreshes_estimator(self, metro_tiny):
        est = BoundaryNodeEstimator(metro_tiny, 3, 3)
        tables = est.tables
        interval = TimeInterval(parse_clock("7:00"), parse_clock("7:30"))
        with self._service(metro_tiny, est) as service:
            first = service.query(QueryRequest(0, 55, interval))
            service.invalidate(refresh_estimator=True)
            assert est.tables is not tables  # precompute re-ran
            assert (
                service.metrics.counter_value("estimator_refreshes_total")
                == 1.0
            )
            second = service.query(QueryRequest(0, 55, interval))
            assert second.result.entries == first.result.entries
            assert not second.cached  # version bump invalidated the cache


class TestCLI:
    def _generate(self, tmp_path, seed=5):
        from repro.cli import main

        net_path = tmp_path / "net.json"
        assert (
            main(
                [
                    "generate",
                    "--out",
                    str(net_path),
                    "--width",
                    "8",
                    "--height",
                    "8",
                    "--seed",
                    str(seed),
                ]
            )
            == 0
        )
        return net_path

    def test_precompute_verb_writes_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        net_path = self._generate(tmp_path)
        snap = tmp_path / "net.est"
        code = main(
            [
                "precompute",
                "--network",
                str(net_path),
                "--out",
                str(snap),
                "--grid",
                "3",
            ]
        )
        assert code == 0
        assert snap.exists()
        out = capsys.readouterr().out
        assert "3x3 grid" in out and "precompute" in out

    def test_query_cache_miss_then_hit(self, tmp_path, capsys):
        from repro.cli import main

        net_path = self._generate(tmp_path)
        snap = tmp_path / "net.est"
        base = [
            "query",
            "--network",
            str(net_path),
            "--source",
            "0",
            "--target",
            "60",
            "--estimator",
            "boundary",
            "--grid",
            "3",
            "--estimator-cache",
            str(snap),
        ]
        assert main(base) == 0
        captured = capsys.readouterr()
        assert "estimator cache miss" in captured.err
        assert snap.exists()
        assert main(base) == 0
        captured = capsys.readouterr()
        assert "estimator cache hit" in captured.err

    def test_query_cache_mismatch_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        net_a = self._generate(tmp_path, seed=5)
        snap = tmp_path / "net.est"
        assert (
            main(
                [
                    "precompute",
                    "--network",
                    str(net_a),
                    "--out",
                    str(snap),
                    "--grid",
                    "3",
                ]
            )
            == 0
        )
        capsys.readouterr()
        net_b = tmp_path / "other.json"
        from repro.cli import main as cli_main

        assert (
            cli_main(
                [
                    "generate",
                    "--out",
                    str(net_b),
                    "--width",
                    "8",
                    "--height",
                    "8",
                    "--seed",
                    "6",
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = cli_main(
            [
                "query",
                "--network",
                str(net_b),
                "--source",
                "0",
                "--target",
                "60",
                "--estimator",
                "boundary",
                "--estimator-cache",
                str(snap),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        error_lines = [
            line for line in captured.err.splitlines() if line.strip()
        ]
        assert len(error_lines) == 1  # one clean line, no traceback
        assert error_lines[0].startswith("error: ")
        assert "different network" in error_lines[0]

    def test_precompute_rejects_ccam(self, tmp_path, capsys):
        from repro.cli import main

        net_path = self._generate(tmp_path)
        ccam = tmp_path / "net.ccam"
        assert (
            main(
                ["build-ccam", "--network", str(net_path), "--out", str(ccam)]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "precompute",
                "--network",
                str(ccam),
                "--out",
                str(tmp_path / "x.est"),
            ]
        )
        assert code == 2
        assert "full graph" in capsys.readouterr().err
