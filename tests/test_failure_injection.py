"""Failure-injection tests: corrupted storage must fail loudly, not wrongly.

Extended by the reliability PR with the seeded fault-injection framework
(:mod:`repro.reliability`), estimator snapshot faults, the precompute's
per-cell fault point, and the serve layer's graceful degradation (worker
replacement, one admissible bound per network version, stale serving,
retrying HTTP client).
"""

from __future__ import annotations

import io
import json
import random
import struct
import urllib.error

import pytest

from repro import reliability
from repro.exceptions import (
    EstimatorError,
    InjectedFault,
    ReproError,
    ServeClientError,
    StorageError,
    WorkerCrashed,
)
from repro.network.generator import MetroConfig, make_metro_network
from repro.reliability import CircuitBreaker, FaultInjector, FaultPlan, FaultSpec
from repro.storage.bptree import BPlusTree
from repro.storage.buffer import MemoryPageStore
from repro.storage.ccam import CCAMStore
from repro.timeutil import TimeInterval


@pytest.fixture(scope="module")
def network():
    return make_metro_network(MetroConfig(width=8, height=8, seed=19))


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Every test leaves the process injector-free."""
    yield
    reliability.uninstall()


@pytest.fixture
def db_bytes(network, tmp_path):
    path = tmp_path / "net.ccam"
    CCAMStore.build(network, path).close()
    return path, bytearray(path.read_bytes())


class TestCorruptHeader:
    def test_flipped_magic(self, db_bytes, tmp_path):
        path, data = db_bytes
        data[0] ^= 0xFF
        bad = tmp_path / "bad_magic.ccam"
        bad.write_bytes(data)
        with pytest.raises(StorageError, match="not a CCAM"):
            CCAMStore.open(bad)

    def test_future_version(self, db_bytes, tmp_path):
        path, data = db_bytes
        struct.pack_into("<I", data, 8, 999)
        bad = tmp_path / "bad_version.ccam"
        bad.write_bytes(data)
        with pytest.raises(StorageError, match="version"):
            CCAMStore.open(bad)

    def test_truncated_file(self, db_bytes, tmp_path):
        path, data = db_bytes
        bad = tmp_path / "short.ccam"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises((StorageError, json.JSONDecodeError, ValueError)):
            store = CCAMStore.open(bad)
            # If the metadata happened to survive, page reads must fail.
            for nid in range(64):
                store.find_node(nid)


class TestCorruptTreePages:
    def test_bad_node_type_byte(self, network, tmp_path):
        path = tmp_path / "net.ccam"
        store = CCAMStore.build(network, path)
        header = path.read_bytes()[: struct.calcsize("<8sIIIIIQQ")]
        (_m, _v, page_size, _region, _r, tree_root, _mo, _ml) = struct.unpack(
            "<8sIIIIIQQ", header
        )
        store.close()
        data = bytearray(path.read_bytes())
        root_offset = (1 + tree_root) * page_size
        data[root_offset] = 7  # neither leaf (1) nor internal (0)
        path.write_bytes(data)
        corrupted = CCAMStore.open(path)
        with pytest.raises(StorageError, match="corrupt"):
            corrupted.find_node(0)
        corrupted.close()


class TestBPlusTreeMisuse:
    def test_garbage_page_detected_on_search(self):
        store = MemoryPageStore(256)
        tree = BPlusTree(store, 256)
        for k in range(500):
            tree.insert(k, k)
        root = tree.root_page
        page = bytearray(store.read(root))
        page[0] = 9  # invalid node-type byte
        store.write(root, bytes(page))
        with pytest.raises(StorageError, match="corrupt"):
            tree.get(42)

    def test_write_through_readonly_region_blocked(self, network, tmp_path):
        path = tmp_path / "net.ccam"
        with CCAMStore.build(network, path) as store:
            with pytest.raises(StorageError):
                store._tree.insert(10**6, 1)


# ======================================================================
# The fault-injection framework itself
# ======================================================================


class TestFaultInjector:
    def test_same_plan_same_history(self):
        plan = FaultPlan(
            seed=99,
            specs=(
                FaultSpec("a.b", probability=0.4),
                FaultSpec("a.c", mode="delay", probability=0.7, delay_seconds=0.0),
            ),
        )
        histories = []
        for _ in range(2):
            injector = FaultInjector(plan)
            for i in range(300):
                point = "a.b" if i % 3 else "a.c"
                try:
                    injector.fire(point)
                except InjectedFault:
                    pass
            histories.append(
                [(e.seq, e.point, e.spec_point, e.mode) for e in injector.history()]
            )
        assert histories[0] == histories[1]
        assert histories[0]  # the plan actually fired

    def test_different_seed_different_history(self):
        specs = (FaultSpec("x", probability=0.5),)
        seqs = []
        for seed in (1, 2):
            injector = FaultInjector(FaultPlan(seed=seed, specs=specs))
            fired = []
            for i in range(200):
                try:
                    injector.fire("x")
                    fired.append(0)
                except InjectedFault:
                    fired.append(1)
            seqs.append(fired)
        assert seqs[0] != seqs[1]

    def test_prefix_matching(self):
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec("repro.storage", probability=1.0),))
        )
        with pytest.raises(InjectedFault):
            injector.fire("repro.storage.pages.read")
        # "repro.storageX" must NOT match the dotted prefix "repro.storage"
        assert injector.fire("repro.storageX.read", b"ok") == b"ok"

    def test_max_fires_exhausts(self):
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec("p", probability=1.0, max_fires=2),))
        )
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.fire("p")
        assert injector.fire("p") is None
        assert injector.fired == 2

    def test_corrupt_flips_exactly_one_byte(self):
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec("p", mode="corrupt", probability=1.0),))
        )
        payload = bytes(range(64))
        mutated = injector.fire("p", payload)
        assert mutated != payload and len(mutated) == len(payload)
        assert sum(a != b for a, b in zip(payload, mutated)) == 1

    def test_corrupt_without_payload_raises_typed(self):
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec("p", mode="corrupt"),))
        )
        with pytest.raises(InjectedFault):
            injector.fire("p")

    def test_error_type_registry(self):
        for name, exc_type in reliability.ERROR_TYPES.items():
            injector = FaultInjector(
                FaultPlan(specs=(FaultSpec("p", error=name),))
            )
            with pytest.raises(exc_type):
                injector.fire("p")

    def test_module_install_uninstall(self):
        assert not reliability.is_active()
        assert reliability.fire("anything", b"x") == b"x"
        reliability.install(FaultPlan(specs=(FaultSpec("p"),)))
        assert reliability.is_active()
        with pytest.raises(InjectedFault):
            reliability.fire("p")
        assert reliability.fired_total() == 1
        reliability.uninstall()
        assert reliability.fire("p", b"x") == b"x"

    def test_install_from_env_inline_and_path(self, tmp_path):
        doc = {"seed": 5, "faults": [{"point": "p", "mode": "error"}]}
        injector = reliability.install_from_env({"REPRO_FAULTS": json.dumps(doc)})
        assert injector is not None and injector.plan.seed == 5
        reliability.uninstall()
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(doc))
        injector = reliability.install_from_env({"REPRO_FAULTS": str(plan_file)})
        assert injector is not None and len(injector.plan.specs) == 1
        assert reliability.install_from_env({}) is None

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("p", mode="explode")
        with pytest.raises(ValueError):
            FaultSpec("p", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec("p", error="nonsense")
        with pytest.raises(ValueError):
            FaultPlan.from_json("not json")
        with pytest.raises(ValueError):
            FaultPlan.from_json('{"faults": [{"mode": "error"}]}')


class TestCircuitBreaker:
    def test_opens_after_threshold_and_half_open_single_trial(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout=10.0, clock=lambda: now[0]
        )
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        now[0] = 11.0
        assert breaker.allow()  # the one half-open trial
        assert not breaker.allow()  # concurrent caller stays blocked
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        now[0] = 22.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()
        assert breaker.opened_total == 2


# ======================================================================
# Estimator snapshot faults (crash-safe save, typed load failures)
# ======================================================================


class TestSnapshotFaults:
    @pytest.fixture
    def estimator_and_snapshot(self, network, tmp_path):
        from repro.estimators.boundary import BoundaryNodeEstimator

        estimator = BoundaryNodeEstimator(network, 3, 3)
        path = tmp_path / "net.est"
        estimator.save_snapshot(path)
        return estimator, path

    def test_fault_mid_save_leaves_old_snapshot_intact(
        self, network, estimator_and_snapshot
    ):
        from repro.estimators.boundary import BoundaryNodeEstimator

        estimator, path = estimator_and_snapshot
        good_bytes = path.read_bytes()
        reliability.install(
            FaultPlan(
                specs=(
                    FaultSpec(
                        "repro.estimators.snapshot.save",
                        error="os",
                        max_fires=1,
                    ),
                )
            )
        )
        with pytest.raises(OSError):
            estimator.save_snapshot(path)
        reliability.uninstall()
        # os.replace never ran: the old snapshot is byte-identical, still
        # loads, and the temporary file was cleaned up.
        assert path.read_bytes() == good_bytes
        assert not list(path.parent.glob(f"{path.name}.tmp.*"))
        warm = BoundaryNodeEstimator.from_snapshot(network, path)
        assert warm.loaded_from_snapshot

    def test_interrupted_save_cleans_tmp_on_keyboardinterrupt(
        self, network, estimator_and_snapshot, monkeypatch
    ):
        from repro.estimators import snapshot as snap

        estimator, path = estimator_and_snapshot
        good_bytes = path.read_bytes()
        calls = {"n": 0}
        original = snap._write_array

        def dying_write(out, arr):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
            original(out, arr)

        monkeypatch.setattr(snap, "_write_array", dying_write)
        with pytest.raises(KeyboardInterrupt):
            estimator.save_snapshot(path)
        assert path.read_bytes() == good_bytes
        assert not list(path.parent.glob(f"{path.name}.tmp.*"))

    def test_load_fault_is_typed(self, network, estimator_and_snapshot):
        from repro.estimators.boundary import BoundaryNodeEstimator

        _estimator, path = estimator_and_snapshot
        reliability.install(
            FaultPlan(
                specs=(
                    FaultSpec("repro.estimators.snapshot.load", error="estimator"),
                )
            )
        )
        with pytest.raises(EstimatorError):
            BoundaryNodeEstimator.from_snapshot(network, path)

    def test_load_corrupt_mode_raises_instead_of_mutating(
        self, network, estimator_and_snapshot
    ):
        from repro.estimators.boundary import BoundaryNodeEstimator

        _estimator, path = estimator_and_snapshot
        reliability.install(
            FaultPlan(
                specs=(FaultSpec("repro.estimators.snapshot.load", mode="corrupt"),)
            )
        )
        # The load site carries no payload on purpose: silent header
        # corruption could break admissibility without failing a check.
        with pytest.raises(InjectedFault):
            BoundaryNodeEstimator.from_snapshot(network, path)


# ======================================================================
# The precompute's per-cell fault point
# ======================================================================


class TestPrecomputePoolShutdown:
    """The per-cell fault point fails the pass in the caller's process."""

    def test_worker_fault_point_fires_in_cell_job(self, network):
        from repro.estimators import precompute
        from repro.estimators.grid import GridPartition

        grid = GridPartition(network, 3, 3)
        reliability.install(
            FaultPlan(
                specs=(
                    FaultSpec(
                        "repro.estimators.precompute.cell",
                        error="estimator",
                        max_fires=1,
                    ),
                )
            )
        )
        with pytest.raises(EstimatorError):
            precompute.compute_tables(network, grid, "time")


# ======================================================================
# Serve-layer degradation: worker replacement, the per-version bound, stale
# ======================================================================


def _answer(response) -> str:
    from repro.serve.chaos import _canonical

    return _canonical(response.result)


@pytest.fixture
def grid_service():
    """A service runs one engine at a time, so the counters are exact."""
    from repro.estimators.boundary import BoundaryNodeEstimator
    from repro.network.generator import make_grid_network
    from repro.serve import AllFPService, ServiceConfig
    from repro.serve.service import QueryRequest
    from repro.timeutil import TimeInterval

    network = make_grid_network(5, 5)
    estimator = BoundaryNodeEstimator(network, 2, 2)
    service = AllFPService(
        network, estimator, ServiceConfig(serve_stale=True)
    )
    request = QueryRequest(0, 24, TimeInterval(420.0, 540.0), "allfp", None)
    yield service, request
    service.close()


# The speed-up cases: on the 10x10 seed-5 metro one batch makes 120 edges
# four times faster.  A bound derived for the boot-time patterns now
# overestimates, and A* with an inadmissible bound returns slow answers
# without noticing (paper §4, Theorem 1).  Every answer after the batch must
# equal a fresh service's on the mutated network.
SPEEDUP_PAIRS = [
    (s, t) for s in range(0, 100, 7) for t in range(3, 100, 11) if s != t
]
SPEEDUP_INTERVAL = TimeInterval.from_clock("7:00", "8:00")
CELL_FAULT = FaultPlan(
    specs=(FaultSpec("repro.estimators.precompute.cell", error="estimator"),)
)


def _metro10():
    return make_metro_network(MetroConfig(width=10, height=10, seed=5))


def _speedup(network, first: int = 0, count: int = 120):
    from repro.serve.updates import EdgeMutation, MutationBatch, slowdown_pattern

    return MutationBatch(
        tuple(
            EdgeMutation(e.source, e.target, slowdown_pattern(e.pattern, 4.0))
            for e in list(network.edges())[first : first + count]
        )
    )


def _speedup_request(pair):
    from repro.serve.service import QueryRequest

    return QueryRequest(*pair, SPEEDUP_INTERVAL)


def _fresh_answers(*batches):
    """What a fresh service answers on the metro after ``batches``."""
    from repro.serve import AllFPService, ServiceConfig
    from repro.serve.updates import apply_batch

    network = _metro10()
    for batch in batches:
        apply_batch(network, batch)
    with AllFPService(network, config=ServiceConfig()) as fresh:
        return [_answer(fresh.query(_speedup_request(p))) for p in SPEEDUP_PAIRS]


def _assert_exact(service, expected, degraded: bool) -> list:
    """Every speed-up answer equals ``expected``, flagged ``degraded``;
    returns the responses."""
    responses = [service.query(_speedup_request(p)) for p in SPEEDUP_PAIRS]
    wrong = [
        pair
        for pair, response, want in zip(SPEEDUP_PAIRS, responses, expected)
        if _answer(response) != want
    ]
    assert not wrong, f"{len(wrong)} answers differ from a fresh service: {wrong[:5]}"
    assert {r.degraded for r in responses} == {degraded}
    return responses


class TestServeDegradation:
    def test_worker_crash_is_replaced_and_retried(self, grid_service):
        service, request = grid_service
        baseline = _answer(service.query(request))
        reliability.install(
            FaultPlan(
                specs=(
                    FaultSpec(
                        "repro.serve.service.task", error="crash", max_fires=1
                    ),
                )
            )
        )
        service.invalidate()
        response = service.query(request)
        assert _answer(response) == baseline
        assert not response.degraded
        assert service.metrics.counter_total("worker_crashes_total") == 1
        assert service.metrics.counter_total("task_retries_total") == 1

    def test_crash_every_attempt_surfaces_typed_workercrashed(self, grid_service):
        service, request = grid_service
        reliability.install(
            FaultPlan(
                specs=(FaultSpec("repro.serve.service.task", error="crash"),)
            )
        )
        with pytest.raises(WorkerCrashed) as excinfo:
            service.query(request)
        assert isinstance(excinfo.value, ReproError)
        assert excinfo.value.attempts == 2  # 1 + task_retries default

    def test_stale_answer_on_deadline_trip(self, grid_service):
        from repro.serve.service import QueryRequest

        service, request = grid_service
        good = service.query(request)  # populates the stale cache
        assert not good.stale
        service.invalidate()  # version bump: stale cache must survive it
        hurried = QueryRequest(
            request.source,
            request.target,
            request.interval,
            "allfp",
            1e-7,  # expires before an engine slot can take it
        )
        response = service.query(hurried)
        assert response.stale and response.degraded and response.cached
        assert _answer(response) == _answer(good)
        assert (
            service.metrics.counter_total("stale_results_served_total") == 1
        )

    def test_refresh_failure_sets_estimator_aside(self):
        """A delta refresh that fails leaves tables customized for the old
        speeds; after a speed-up they overestimate.  The service must
        absorb the failure, answer on a naive bound for the new version,
        flagged degraded, stay there through later batches, and come back
        only through ``invalidate(refresh_estimator=True)``."""
        from repro.estimators.boundary import BoundaryNodeEstimator
        from repro.serve import AllFPService, ServiceConfig

        network = _metro10()
        first, second = _speedup(network), _speedup(network, 120, 40)
        service = AllFPService(
            network, BoundaryNodeEstimator(network, 4, 4), ServiceConfig()
        )
        try:
            reliability.install(CELL_FAULT)
            assert service.apply_updates(first) == 1  # the caller never sees it
            reliability.uninstall()
            assert service.metrics.counter_total(
                "estimator_refresh_failures_total"
            ) == 1
            assert service.degraded
            _assert_exact(service, _fresh_answers(first), degraded=True)

            service.apply_updates(second)  # fault-free: still set aside
            expected = _fresh_answers(first, second)
            _assert_exact(service, expected, degraded=True)

            service.invalidate(refresh_estimator=True)
            assert not service.degraded
            assert service.metrics.counter_total("estimator_refreshes_total") == 1
            restored = _assert_exact(service, expected, degraded=False)
            # The boundary bound is back: the same searches as a boundary
            # estimator precomputed from scratch on the mutated network.
            from repro.serve.updates import apply_batch

            reference_net = _metro10()
            for batch in (first, second):
                apply_batch(reference_net, batch)
            with AllFPService(
                reference_net,
                BoundaryNodeEstimator(reference_net, 4, 4),
                ServiceConfig(),
            ) as reference:
                assert [r.result.stats.expanded_paths for r in restored] == [
                    reference.query(_speedup_request(p)).result.stats.expanded_paths
                    for p in SPEEDUP_PAIRS
                ]
        finally:
            service.close()

    def test_configured_naive_estimator_follows_a_speedup(self):
        from repro.estimators.naive import NaiveEstimator
        from repro.serve import ServiceConfig, open_service

        network = _metro10()
        batch = _speedup(network)
        service, info = open_service(
            network, NaiveEstimator(network), ServiceConfig()
        )
        try:
            assert info["tables_mode"] == "naive"
            service.apply_updates(batch)
            _assert_exact(service, _fresh_answers(batch), degraded=False)
        finally:
            service.close()

    def test_corrupt_snapshot_fallback_follows_a_speedup(self, tmp_path):
        from repro.serve import ServiceConfig, open_service

        network = _metro10()
        batch = _speedup(network)
        corrupt = tmp_path / "corrupt.snap"
        corrupt.write_bytes(b"RPRESNAP" + bytes(56))
        service, info = open_service(
            network, config=ServiceConfig(), snapshot_path=corrupt
        )
        try:
            assert info["tables_mode"] == "fallback"
            service.apply_updates(batch)
            _assert_exact(service, _fresh_answers(batch), degraded=True)
        finally:
            service.close()

    def test_refresh_failure_in_every_shard_stays_exact(self):
        from repro.estimators.boundary import BoundaryNodeEstimator
        from repro.serve import ServiceConfig
        from repro.shard import ShardedService

        network = _metro10()
        batch = _speedup(network)
        tier = ShardedService(
            network,
            BoundaryNodeEstimator(network, 4, 4),
            ServiceConfig(),
            shards=2,
        )
        try:
            tier.install_faults(CELL_FAULT)
            assert tier.apply_updates(batch) == 1
            assert tier.uninstall_faults() >= 2  # one failed refresh per shard
            assert [h["alive"] for h in tier.shard_health()] == [True, True]
            _assert_exact(tier, _fresh_answers(batch), degraded=True)
        finally:
            tier.close()

    def test_boot_degraded_flags_every_response(self):
        from repro.network.generator import make_grid_network
        from repro.serve import AllFPService, ServiceConfig
        from repro.serve.service import QueryRequest
        from repro.timeutil import TimeInterval

        network = make_grid_network(4, 4)
        service = AllFPService(
            network, None, ServiceConfig(), degraded=True
        )
        try:
            response = service.query(
                QueryRequest(0, 15, TimeInterval(420.0, 480.0), "allfp", None)
            )
            assert response.degraded
            assert service.degraded
            assert service.metrics.counter_total("degraded_responses_total") == 1
        finally:
            service.close()


class TestChaosHarness:
    def test_invariant_holds_under_default_plan(self):
        from repro.estimators.boundary import BoundaryNodeEstimator
        from repro.network.generator import make_grid_network
        from repro.serve import AllFPService, ServiceConfig
        from repro.serve.chaos import default_fault_plan, run_chaos
        from repro.workloads.queries import morning_rush_interval, random_queries

        network = make_grid_network(6, 6)
        service = AllFPService(
            network,
            BoundaryNodeEstimator(network, 2, 2),
            ServiceConfig(serve_stale=True),
        )
        queries = random_queries(network, 12, morning_rush_interval(), seed=4)
        try:
            report = run_chaos(
                service, queries, default_fault_plan(seed=1), clients=3
            )
        finally:
            service.close()
        assert report.passed(), report.violations
        assert report.requests == 12
        assert report.ok + sum(report.typed_errors.values()) == 12
        assert not reliability.is_active()  # harness uninstalled its plan

    def test_default_plan_under_a_speedup_trace(self):
        """The default plan's estimator errors hit the delta refresh of a
        batch that makes edges faster than the boot-time tables assume:
        every answer at the new version must still be exact."""
        from repro.estimators.boundary import BoundaryNodeEstimator
        from repro.serve import AllFPService, ServiceConfig
        from repro.serve.chaos import default_fault_plan, run_chaos
        from repro.serve.updates import TraceEvent
        from repro.workloads.queries import QuerySpec

        network = _metro10()
        trace = [TraceEvent(0.05, _speedup(network))]
        queries = [
            QuerySpec(s, t, SPEEDUP_INTERVAL, 0.0) for s, t in SPEEDUP_PAIRS[::3]
        ]
        service = AllFPService(
            network, BoundaryNodeEstimator(network, 4, 4), ServiceConfig()
        )
        try:
            report = run_chaos(
                service, queries, default_fault_plan(seed=1), trace=trace, clients=3
            )
            refresh_failures = service.metrics.counter_total(
                "estimator_refresh_failures_total"
            )
        finally:
            service.close()
        assert report.passed(), report.violations
        assert report.versions == 1
        assert refresh_failures == 1  # the plan reached the refresh
        assert report.degraded > 0

    def test_storage_faults_on_a_ccam_store_surface_typed(self, tmp_path):
        """Node lookups on a disk store fail typed, never wrong.  The fault
        fires on ``find_node``, not the page reads: after the baseline pass
        the tiny network is decoded and cached, so lower storage layers are
        never reached again.  Capped so most queries still answer."""
        from repro.serve import AllFPService, ServiceConfig
        from repro.serve.chaos import run_chaos
        from repro.workloads.queries import morning_rush_interval, random_queries

        network = make_metro_network(MetroConfig(width=12, height=12, seed=5))
        path = tmp_path / "net.ccam"
        CCAMStore.build(network, path).close()
        store = CCAMStore(path, buffer_pages=32)
        service = AllFPService(store, config=ServiceConfig())
        queries = random_queries(store, 10, morning_rush_interval(), seed=9)
        plan = FaultPlan(
            seed=2,
            specs=(
                FaultSpec(
                    "repro.storage.ccam.find_node",
                    error="storage",
                    probability=0.05,
                    max_fires=4,
                ),
            ),
        )
        try:
            report = run_chaos(service, queries, plan, clients=3)
        finally:
            service.close()
            store.close()
        assert report.passed(), report.violations
        typed = sum(report.typed_errors.values())
        assert report.ok + typed == report.requests
        assert typed > 0, "no storage fault ever surfaced"
        assert report.ok > 0, "every query failed"
        assert set(report.typed_errors) == {"StorageError"}


# ======================================================================
# Retrying HTTP client
# ======================================================================


class _FakeResponse:
    def __init__(self, status: int, body: bytes) -> None:
        self.status = status
        self._body = body
        self.headers = {}

    def read(self) -> bytes:
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _http_error(code: int, body: bytes, headers: dict | None = None):
    import email.message

    msg = email.message.Message()
    for name, value in (headers or {}).items():
        msg[name] = value
    return urllib.error.HTTPError(
        "http://test/v1/allfp", code, "err", msg, io.BytesIO(body)
    )


class TestHTTPClientRetries:
    def test_connection_refused_becomes_typed_after_retries(self):
        from repro.serve import HTTPClient

        sleeps: list[float] = []
        client = HTTPClient(
            "http://127.0.0.1:1",
            timeout=0.2,
            retries=2,
            backoff_base=0.001,
            sleep=sleeps.append,
            rng=random.Random(7),
        )
        with pytest.raises(ServeClientError) as excinfo:
            client.healthz()
        assert isinstance(excinfo.value, ReproError)
        assert excinfo.value.attempts == 3
        assert "127.0.0.1:1" in str(excinfo.value.url)
        # Deterministic full-jitter schedule under the pinned RNG.
        expected_rng = random.Random(7)
        expected = [
            expected_rng.uniform(0.0, 0.001),
            expected_rng.uniform(0.0, 0.002),
        ]
        assert sleeps == expected

    def test_backoff_schedule_is_reproducible(self):
        from repro.serve import HTTPClient

        schedules = []
        for _ in range(2):
            sleeps: list[float] = []
            client = HTTPClient(
                "http://127.0.0.1:1",
                timeout=0.2,
                retries=3,
                backoff_base=0.001,
                sleep=sleeps.append,
                rng=random.Random(42),
            )
            with pytest.raises(ServeClientError):
                client.healthz()
            schedules.append(sleeps)
        assert schedules[0] == schedules[1] and len(schedules[0]) == 3

    def test_retry_after_header_is_honored_on_503(self, monkeypatch):
        from repro.serve import HTTPClient

        calls = {"n": 0}

        def fake_urlopen(req, timeout=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise _http_error(
                    503,
                    b'{"error": "ServiceOverloaded", "message": "busy"}',
                    {"Retry-After": "0.25"},
                )
            return _FakeResponse(200, b'{"ok": true}')

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        sleeps: list[float] = []
        client = HTTPClient("http://test", retries=2, sleep=sleeps.append)
        status, body = client.post("/v1/allfp", {})
        assert status == 200 and body == {"ok": True}
        assert sleeps == [0.25]
        assert calls["n"] == 2

    def test_503_returned_when_retries_exhausted(self, monkeypatch):
        from repro.serve import HTTPClient

        def fake_urlopen(req, timeout=None):
            raise _http_error(
                503, b'{"error": "ServiceOverloaded", "message": "busy"}'
            )

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        sleeps: list[float] = []
        client = HTTPClient(
            "http://test", retries=1, backoff_base=0.001, sleep=sleeps.append
        )
        status, body = client.post("/v1/allfp", {})
        assert status == 503 and body["error"] == "ServiceOverloaded"
        assert len(sleeps) == 1

    def test_4xx_never_retried(self, monkeypatch):
        from repro.serve import HTTPClient

        calls = {"n": 0}

        def fake_urlopen(req, timeout=None):
            calls["n"] += 1
            raise _http_error(400, b'{"error": "BadRequest", "message": "x"}')

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = HTTPClient("http://test", retries=3)
        status, body = client.post("/v1/allfp", {})
        assert status == 400 and calls["n"] == 1

    def test_unparseable_200_is_typed(self, monkeypatch):
        from repro.serve import HTTPClient

        monkeypatch.setattr(
            urllib.request,
            "urlopen",
            lambda req, timeout=None: _FakeResponse(200, b"not json"),
        )
        client = HTTPClient("http://test", retries=0)
        with pytest.raises(ServeClientError):
            client.post("/v1/allfp", {})


class TestCLIFailureModes:
    def test_missing_network_exits_2_with_one_line(self, capsys):
        from repro.cli import main

        code = main(
            ["query", "--network", "/nonexistent.json",
             "--source", "0", "--target", "1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_chaos_verb_passes_on_tiny_grid(self, tmp_path, capsys):
        from repro.cli import main
        from repro.network.generator import make_grid_network
        from repro.network.io import save_network

        path = tmp_path / "grid.json"
        save_network(make_grid_network(5, 5), path)
        code = main(
            ["chaos", "--network", str(path), "--estimator", "boundary",
             "--grid", "2", "--queries", "6", "--clients", "2",
             "--serve-stale"]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.out + captured.err
        assert "invariant held" in captured.out
