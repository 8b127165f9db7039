"""Sharded serve tier: hash ring, snapshot transports, router, failover."""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import reliability
from repro.cli import main
from repro.core.results import SearchStats
from repro.core.runtime import QueryTimeout
from repro.estimators.boundary import BoundaryNodeEstimator
from repro.estimators import snapshot as snap
from repro.exceptions import (
    EstimatorError,
    NodeNotFoundError,
    NoPathError,
    ServiceError,
    ServiceOverloaded,
    ShardUnavailable,
    WorkerCrashed,
)
from repro.network.generator import MetroConfig, make_metro_network
from repro.serve import (
    AllFPService,
    HTTPClient,
    ServiceConfig,
    make_server,
    parse_metrics,
    start_in_thread,
)
from repro.serve.chaos import _canonical, busiest_shard, run_chaos
from repro.serve.service import QueryRequest
from repro.serve.updates import apply_batch, load_trace
from repro.shard import (
    DEFAULT_REPLICAS,
    HashRing,
    ShardedService,
    routing_key,
    stable_hash,
)
from repro.shard.worker import wire_error
from repro.timeutil import TimeInterval
from repro.workloads.queries import morning_rush_interval, random_queries

ROOT = Path(__file__).resolve().parent.parent


def _alive(pid: int) -> bool:
    """Whether ``pid`` is still running (a zombie awaiting its reaper is not)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


@pytest.fixture
def interval():
    return TimeInterval.from_clock("7:00", "8:00")


@pytest.fixture(scope="module")
def tier(metro_tiny):
    """One 2-shard tier over metro_tiny, tables via a temporary snapshot."""
    estimator = BoundaryNodeEstimator(metro_tiny, 4, 4)
    service = ShardedService(
        metro_tiny,
        estimator,
        ServiceConfig(),
        shards=2,
        breaker_reset=0.5,
    )
    yield service
    service.close()


@pytest.fixture(scope="module")
def single(metro_tiny):
    """The single-process reference the tier must agree with."""
    service = AllFPService(
        metro_tiny, BoundaryNodeEstimator(metro_tiny, 4, 4),
        ServiceConfig(),
    )
    yield service
    service.close()


# ----------------------------------------------------------------------
# Hash ring
# ----------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_across_processes(self):
        """The ring owes its cache affinity to sha256, not the per-process
        salted ``hash()`` — the same keys map identically in a fresh
        interpreter."""
        keys = [f"src:{i}" for i in range(64)]
        local = HashRing(range(4)).assignment(keys)
        code = (
            "import json, sys\n"
            "from repro.shard import HashRing\n"
            "keys = json.loads(sys.stdin.read())\n"
            "print(json.dumps(HashRing(range(4)).assignment(keys)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            input=json.dumps(keys),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert json.loads(out) == local

    def test_balanced_assignment(self):
        """No shard owns more than 2x the mean over 10k keys."""
        keys = [f"src:{i}" for i in range(10_000)]
        for shards in (2, 3, 4, 8):
            ring = HashRing(range(shards))
            counts = {sid: 0 for sid in range(shards)}
            for owner in ring.assignment(keys).values():
                counts[owner] += 1
            mean = len(keys) / shards
            assert max(counts.values()) < 2 * mean, (shards, counts)

    def test_minimal_movement_on_removal(self):
        """Removing a shard moves exactly the keys it owned — everyone
        else keeps their shard (and their warm caches)."""
        keys = [f"src:{i}" for i in range(10_000)]
        ring = HashRing(range(4))
        before = ring.assignment(keys)
        ring.remove(1)
        after = ring.assignment(keys)
        moved = [k for k in keys if before[k] != after[k]]
        owned_by_removed = [k for k in keys if before[k] == 1]
        assert set(moved) == set(owned_by_removed)
        # this deterministic configuration also meets the ≤ keys/N bound
        assert len(moved) <= len(keys) / 4
        assert all(after[k] != 1 for k in keys)

    def test_preference_walks_distinct_shards(self):
        ring = HashRing(range(3))
        order = ring.preference("src:42")
        assert sorted(order) == [0, 1, 2]
        assert ring.node_for("src:42") == order[0]

    def test_add_is_idempotent_and_remove_unknown_is_noop(self):
        ring = HashRing(range(2))
        ring.add(1)
        ring.remove(99)
        assert ring.shard_ids == (0, 1)
        with pytest.raises(ValueError, match="at least one"):
            HashRing([])

    def test_stable_hash_is_sha256_based(self):
        assert stable_hash("x") == int.from_bytes(
            __import__("hashlib").sha256(b"x").digest()[:8], "big"
        )


class TestRoutingKey:
    def test_source_modes_share_a_key(self, interval):
        allfp = QueryRequest(7, 9, interval)
        profile = QueryRequest(7, None, interval, mode="profile")
        knn = QueryRequest(
            7, None, interval, mode="knn", candidates=(1, 2), k=1
        )
        assert (
            routing_key(allfp)
            == routing_key(profile)
            == routing_key(knn)
            == "src:7"
        )

    def test_singlefp_routes_by_pair(self, interval):
        request = QueryRequest(3, 5, interval, mode="singlefp")
        assert routing_key(request) == "pair:3:5"
        assert routing_key(QueryRequest(5, 3, interval, mode="singlefp")) != (
            routing_key(request)
        )

    def test_batch_routes_by_sorted_distinct_sources(self, interval):
        a = QueryRequest(
            5, None, interval, mode="batch", pairs=((5, 1), (0, 2), (5, 3))
        )
        b = QueryRequest(
            0, None, interval, mode="batch", pairs=((0, 9), (5, 8))
        )
        assert routing_key(a) == routing_key(b) == "group:0,5"


# ----------------------------------------------------------------------
# Snapshot transport (mmap)
# ----------------------------------------------------------------------
class TestSnapshotTransports:
    @pytest.fixture(scope="class")
    def snapshot(self, metro_tiny, tmp_path_factory):
        estimator = BoundaryNodeEstimator(metro_tiny, 3, 3)
        path = tmp_path_factory.mktemp("snap") / "est.snap"
        estimator.save_snapshot(path)
        return path, snap.network_fingerprint(metro_tiny)

    def test_mapped_tables_equal_saved_tables(self, snapshot, metro_tiny):
        path, fp = snapshot
        saved = BoundaryNodeEstimator(metro_tiny, 3, 3).tables
        mapped = snap.map_tables(path, fp)
        assert mapped.zero_copy and not saved.zero_copy
        assert mapped.nbytes == saved.nbytes
        for name in (
            "node_ids", "node_cell", "to_boundary", "from_boundary", "cell_pair"
        ):
            assert list(getattr(mapped, name)) == list(getattr(saved, name))

    def test_mapped_tables_are_read_only(self, snapshot):
        path, fp = snapshot
        mapped = snap.map_tables(path, fp)
        with pytest.raises(TypeError):
            mapped.cell_pair[0] = 1.0

    def test_fingerprint_mismatch_rejected(self, snapshot):
        path, _ = snapshot
        with pytest.raises(EstimatorError, match="fingerprint"):
            snap.map_tables(path, b"\x00" * 32)

    def test_read_header_fields(self, snapshot):
        path, fp = snapshot
        header = snap.Snapshot(path).describe()
        assert header["version"] == 1
        assert header["nx"] == header["ny"] == 3
        assert header["cell_count"] == 9
        assert header["fingerprint"] == fp.hex()
        assert header["arrays"] == 5
        assert header["file_bytes"] == path.stat().st_size

    def test_read_header_detects_truncation(self, snapshot, tmp_path):
        path, _ = snapshot
        stub = tmp_path / "trunc.snap"
        stub.write_bytes(path.read_bytes()[:100])
        with pytest.raises(EstimatorError, match="truncated"):
            snap.Snapshot(stub)

    def test_read_header_detects_bad_magic(self, snapshot, tmp_path):
        path, _ = snapshot
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTASNAP"
        bad = tmp_path / "bad.snap"
        bad.write_bytes(bytes(data))
        with pytest.raises(EstimatorError, match="not an estimator snapshot"):
            snap.Snapshot(bad)


# ----------------------------------------------------------------------
# Wire protocol: typed errors across the pipe
# ----------------------------------------------------------------------
def _across_the_pipe(error):
    return pickle.loads(pickle.dumps(wire_error(error)))


class TestErrorWire:
    @pytest.mark.parametrize(
        "error",
        [
            NodeNotFoundError(42),
            NoPathError(3, 9),
            ServiceOverloaded(65, 64, 0.1),
            WorkerCrashed(2, "boom"),
            QueryTimeout(1.5, SearchStats(timed_out=True)),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_round_trip_preserves_type(self, error):
        rebuilt = _across_the_pipe(error)
        assert type(rebuilt) is type(error)
        assert str(rebuilt) == str(error)

    def test_attributes_survive(self):
        rebuilt = _across_the_pipe(NodeNotFoundError(42))
        assert rebuilt.node_id == 42
        rebuilt = _across_the_pipe(ServiceOverloaded(65, 64, 0.1))
        assert (rebuilt.pending, rebuilt.max_pending) == (65, 64)
        assert rebuilt.retry_after == 0.1
        stats = SearchStats(expanded_paths=37, timed_out=True)
        rebuilt = _across_the_pipe(QueryTimeout(0.2, stats))
        assert rebuilt.deadline == 0.2
        assert rebuilt.stats == stats
        assert str(rebuilt).endswith("after 37 expansions")
        rebuilt = _across_the_pipe(NoPathError(3, 9, stats))
        assert (rebuilt.source, rebuilt.target, rebuilt.stats) == (3, 9, stats)

    def test_unknown_type_degrades_to_service_error(self):
        rebuilt = _across_the_pipe(LookupError("huh"))
        assert type(rebuilt) is ServiceError
        assert str(rebuilt) == "LookupError: huh"


# ----------------------------------------------------------------------
# The tier end to end
# ----------------------------------------------------------------------
class TestShardedService:
    def test_boot_health(self, tier):
        health = tier.shard_health()
        assert [h["shard_id"] for h in health] == [0, 1]
        assert all(h["alive"] for h in health)
        assert all(h["tables_mode"] == "mmap" for h in health)
        assert not tier.degraded

    @pytest.mark.parametrize("mode", ["allfp", "singlefp", "profile", "knn", "batch"])
    def test_answer_parity_with_single_process(
        self, tier, single, interval, mode
    ):
        kwargs = {
            "allfp": dict(target=99),
            "singlefp": dict(target=42, mode="singlefp"),
            "profile": dict(target=None, mode="profile", targets=(5, 27, 99)),
            "knn": dict(
                target=None, mode="knn", candidates=(12, 34, 56, 78), k=2
            ),
            "batch": dict(
                target=None, mode="batch", pairs=((0, 9), (3, 7))
            ),
        }[mode]
        request = QueryRequest(0, interval=interval, **kwargs)
        sharded = tier.query(request)
        reference = single.query(request)
        assert _canonical(sharded.result) == _canonical(reference.result)
        assert not sharded.degraded

    def test_typed_error_crosses_the_pipe(self, tier, interval):
        with pytest.raises(NodeNotFoundError) as exc_info:
            tier.query(QueryRequest(10 ** 9, 5, interval))
        assert exc_info.value.node_id == 10 ** 9

    def test_metrics_carry_shard_labels(self, tier, interval):
        tier.query(QueryRequest(1, 50, interval))
        text = tier.render_metrics()
        assert 'shard_id="0"' in text and 'shard_id="1"' in text
        assert 'shard_count="2"' in text
        assert "repro_shard_requests_total" in text
        # the concatenated exposition stays parseable, no colliding series
        samples = parse_metrics(text)
        assert any("shard_id" in name for name in samples)

    def test_result_cache_affinity(self, tier, interval):
        request = QueryRequest(2, 88, interval)
        first = tier.query(request)
        second = tier.query(request)
        assert not first.cached
        assert second.cached  # same key -> same shard -> warm cache

    def test_stats_aggregates_shards(self, tier):
        stats = tier.stats()
        assert stats["shards"] == 2
        assert set(stats["per_shard"]) == {0, 1}

    def test_kill_failover_and_restart(self, metro_tiny, interval):
        """The PR-5 ladder at shard level: kill -> failover (flagged
        degraded, exact answer) -> automatic restart -> clean again."""
        estimator = BoundaryNodeEstimator(metro_tiny, 4, 4)
        tier = ShardedService(
            metro_tiny,
            estimator,
            ServiceConfig(),
            shards=2,
            breaker_reset=0.2,
        )
        single = AllFPService(
            metro_tiny,
            BoundaryNodeEstimator(metro_tiny, 4, 4),
            ServiceConfig(),
        )
        try:
            request = None
            for source in range(60):
                candidate = QueryRequest(source, 99, interval)
                if tier.ring.preference(routing_key(candidate))[0] == 0:
                    request = candidate
                    break
            assert request is not None
            tier.kill_shard(0)
            response = tier.query(request)  # before the restart completes
            assert response.degraded
            assert response.degraded_shard == 0
            assert _canonical(response.result) == _canonical(
                single.query(request).result
            )
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if all(h["alive"] for h in tier.shard_health()):
                    break
                time.sleep(0.05)
            health = tier.shard_health()
            assert all(h["alive"] for h in health), health
            assert health[0]["restarts"] == 1
            # breaker may need its reset window before closing again
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                response = tier.query(request)
                if not response.degraded:
                    break
                time.sleep(0.05)
            assert not response.degraded
            assert response.degraded_shard is None
        finally:
            tier.close()
            single.close()

    def test_all_shards_down_raises_shard_unavailable(
        self, metro_tiny, interval
    ):
        tier = ShardedService(
            metro_tiny,
            None,
            ServiceConfig(),
            shards=1,
            restart_limit=0,
        )
        try:
            tier.kill_shard(0)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if not tier._handles[0].alive:
                    break
                time.sleep(0.02)
            with pytest.raises(ShardUnavailable):
                tier.query(QueryRequest(0, 99, interval))
            assert tier.degraded
        finally:
            tier.close()

    def test_worker_answers_inside_the_deadline(self, metro_tiny, interval):
        """A worker admits each query the moment it arrives, so its deadline
        clock starts then: under a slow engine run no answer comes back
        later than its deadline plus the one run already under way."""
        delay, deadline, slack = 0.5, 0.2, 0.25
        tier = ShardedService(
            metro_tiny,
            None,
            ServiceConfig(coalesce=False, cache_results=False),
            shards=1,
        )
        try:
            tier.query(QueryRequest(0, 99, interval))  # warm the edge cache
            tier.install_faults(
                reliability.FaultPlan(
                    specs=(
                        reliability.FaultSpec(
                            "repro.serve.service.task",
                            mode="delay",
                            delay_seconds=delay,
                        ),
                    )
                )
            )
            late, errors = [], []

            def call(target):
                sent = time.monotonic()
                try:
                    tier.query(
                        QueryRequest(0, target, interval, deadline=deadline)
                    )
                except QueryTimeout:
                    return
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                elapsed = time.monotonic() - sent
                if elapsed > deadline + delay + slack:
                    late.append((target, elapsed))

            threads = [
                threading.Thread(target=call, args=(target,))
                for target in (99, 88, 77, 66, 55, 44, 33, 22)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            tier.uninstall_faults()
            assert errors == []
            assert late == []
        finally:
            tier.close()

    def test_close_is_idempotent(self, metro_tiny):
        tier = ShardedService(metro_tiny, None, ServiceConfig(), shards=1)
        tier.close()
        tier.close()

    def test_estimator_object_travels_as_a_temporary_snapshot(
        self, metro_tiny, interval
    ):
        """A tier built from an estimator *object* writes its tables once,
        every worker mmaps that file, a cold answer equals the cold
        single-process service's byte for byte, and close() removes the
        file."""
        config = ServiceConfig()
        tier = ShardedService(
            metro_tiny, BoundaryNodeEstimator(metro_tiny, 4, 4), config, shards=2
        )
        single = AllFPService(
            metro_tiny, BoundaryNodeEstimator(metro_tiny, 4, 4), config
        )
        try:
            path = tier._tables_file
            assert path is not None and os.path.exists(path)
            assert [h["tables_mode"] for h in tier.shard_health()] == [
                "mmap", "mmap"
            ]
            request = QueryRequest(41, 78, interval)
            ours = tier.query(request).result.as_dict()
            theirs = single.query(request).result.as_dict()
            for doc in (ours, theirs):
                del doc["stats"]["elapsed_seconds"]
            assert json.dumps(ours, sort_keys=True) == json.dumps(
                theirs, sort_keys=True
            )
        finally:
            tier.close()
            single.close()
        assert not os.path.exists(path)

    def test_sigkilled_router_leaves_no_orphan_workers(self):
        """Workers close the router-side pipe ends they inherited, so a
        router that dies without a goodbye is an EOF to every one of them."""
        code = (
            "import sys, time\n"
            "from repro.network.generator import MetroConfig, make_metro_network\n"
            "from repro.serve import ServiceConfig\n"
            "from repro.shard import ShardedService\n"
            "net = make_metro_network(MetroConfig(width=6, height=6, seed=5))\n"
            "tier = ShardedService(net, None, ServiceConfig(), shards=2)\n"
            "print(*[h['pid'] for h in tier.shard_health()], flush=True)\n"
            "time.sleep(60)\n"
        )
        router = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True
        )
        try:
            pids = [int(pid) for pid in router.stdout.readline().split()]
            assert len(pids) == 2
            router.kill()  # SIGKILL: no close(), no atexit, no goodbye
            router.wait()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(map(_alive, pids)):
                time.sleep(0.05)
            assert not [pid for pid in pids if _alive(pid)]
        finally:
            router.kill()
            router.stdout.close()
            for pid in pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)


# ----------------------------------------------------------------------
# Shard chaos
# ----------------------------------------------------------------------
class TestShardChaos:
    def test_kill_one_shard_mid_run_invariant_holds(self, metro_tiny):
        interval = morning_rush_interval(2.0)
        queries = random_queries(metro_tiny, 16, interval, seed=1)
        tier = ShardedService(
            metro_tiny,
            BoundaryNodeEstimator(metro_tiny, 4, 4),
            ServiceConfig(),
            shards=2,
            breaker_reset=0.2,
        )
        try:
            report = run_chaos(
                tier,
                queries,
                kill_shard=busiest_shard(tier.ring, queries),
                kill_delay=0.0,
                clients=4,
            )
        finally:
            tier.close()
        assert report.passed(), report.violations
        assert report.requests == 16
        assert report.fault_events >= 1


# ----------------------------------------------------------------------
# A live 2-shard tier behind the HTTP server
# ----------------------------------------------------------------------
#: Three batches pinned to the 10x10 seed-23 metro.
INCIDENT_TRACE = ROOT / "benchmarks" / "data" / "incident_trace.jsonl"


@contextlib.contextmanager
def _tier_over_http(network, estimator=None):
    """A 2-shard tier behind a started HTTP server, and a client for it."""
    tier = ShardedService(
        network,
        estimator,
        ServiceConfig(cache_results=False, coalesce=False),
        shards=2,
    )
    server = make_server(tier, port=0)
    start_in_thread(server)
    try:
        host, port = server.server_address[:2]
        yield tier, HTTPClient(f"http://{host}:{port}")
    finally:
        server.shutdown()
        server.server_close()
        tier.close()


def _answer_doc(doc: dict) -> str:
    """:func:`~repro.serve.chaos._canonical` of a result's wire form."""
    return json.dumps(
        {k: v for k, v in doc.items() if k not in ("stats", "entries")},
        sort_keys=True,
    )


def _metro23():
    return make_metro_network(MetroConfig(width=10, height=10, seed=23))


class TestTierOverHTTP:
    def test_replay_updates_verb_against_a_live_tier(self, capsys):
        events = load_trace(INCIDENT_TRACE)
        with _tier_over_http(_metro23()) as (tier, client):
            argv = ["replay-updates", "--url", client.base_url]
            argv += ["--trace", str(INCIDENT_TRACE), "--speed", "50"]
            assert main(argv) == 0
            assert f"network version {len(events)}" in capsys.readouterr().out

            health = client.healthz()
            assert (
                health["network_version"],
                health["pending_updates"],
                health["staleness_seconds"],
            ) == (len(events), 0, 0.0)
            applied = [
                line
                for line in client.metrics_text().splitlines()
                if line.startswith("repro_network_applied_version")
            ]
            # The router's series and one per shard, all at the final version.
            assert len(applied) == 3, applied
            assert all(line.endswith(f" {len(events)}") for line in applied)

            mutated = _metro23()
            for event in events:
                apply_batch(mutated, event.batch)
            first = events[0].batch.mutations[0]
            with AllFPService(mutated, config=ServiceConfig()) as fresh:
                for pair in ((first.source, first.target), (0, 99)):
                    request = QueryRequest(*pair, TimeInterval(420.0, 480.0))
                    status, body = client.query(request)
                    assert (status, body["version"]) == (200, len(events))
                    assert _answer_doc(body["result"]) == _canonical(
                        fresh.query(request).result
                    )

            # Typed rejections leave the version where it was.
            unknown = {**first.to_wire(), "target": 999999}
            status, body = client.updates({"mutations": [unknown]})
            assert (status, body["error"]) == (404, "EdgeNotFoundError")
            status, body = client.updates({"mutations": []})
            assert (status, body["error"]) == (400, "QueryError")
            status, _ = client.post(
                "/v1/allfp",
                {"source": 0, "target": 99, "start": 420.0, "end": 480.0,
                 "max_staleness": -1.0},
            )
            assert status == 400
            assert client.healthz()["network_version"] == len(events)

    def test_failover_over_http_names_the_degraded_shard(
        self, metro_tiny, single, interval
    ):
        estimator = BoundaryNodeEstimator(metro_tiny, 4, 4)
        with _tier_over_http(metro_tiny, estimator) as (tier, client):
            request = next(
                r
                for r in (QueryRequest(s, 99, interval) for s in range(60))
                if tier.ring.preference(routing_key(r))[0] == 0
            )
            tier.kill_shard(0)
            status, body = client.query(request)
            assert status == 200
            assert (body["degraded"], body["degraded_shard"]) == (True, 0)
            assert _answer_doc(body["result"]) == _canonical(
                single.query(request).result
            )


# ----------------------------------------------------------------------
# snapshot-info CLI
# ----------------------------------------------------------------------
class TestSnapshotInfoCLI:
    @pytest.fixture(scope="class")
    def snapshot_file(self, metro_tiny, tmp_path_factory):
        estimator = BoundaryNodeEstimator(metro_tiny, 3, 3)
        path = tmp_path_factory.mktemp("snapcli") / "est.snap"
        estimator.save_snapshot(path)
        return path

    def test_prints_header_fields(self, snapshot_file, capsys):
        assert main(["snapshot-info", "--snapshot", str(snapshot_file)]) == 0
        out = capsys.readouterr().out
        assert "RPRESNAP v1" in out
        assert "3x3" in out
        assert "nodes: 100" in out
        assert f"{snapshot_file.stat().st_size} bytes" in out

    def test_corrupt_file_exits_2(self, snapshot_file, tmp_path, capsys):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(snapshot_file.read_bytes()[:64])
        assert main(["snapshot-info", "--snapshot", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(
            ["snapshot-info", "--snapshot", str(tmp_path / "nope.snap")]
        ) == 2
        assert "error:" in capsys.readouterr().err
