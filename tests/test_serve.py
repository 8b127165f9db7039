"""Tests for the repro.serve query service (coalescing, admission, HTTP)."""

from __future__ import annotations

import http.client
import json
import pickle
import statistics
import sys
import threading
import time
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import IntAllFastestPaths, QueryTimeout
from repro.core.graph import GraphView
from repro.exceptions import (
    ServiceClosed,
    ServiceOverloaded,
)
from repro.serve import (
    MODES,
    AdmissionController,
    AllFPService,
    HTTPClient,
    MetricsRegistry,
    QueryRequest,
    ResultCache,
    ServiceConfig,
    SingleFlight,
    make_server,
    parse_metrics,
    start_in_thread,
)
from repro.network.generator import MetroConfig, make_metro_network
from repro.serve.http import (
    parse_request,
    request_from_wire,
    request_to_wire,
    response_to_wire,
)
from repro.serve.updates import EdgeMutation, MutationBatch, slowdown_pattern
from repro.timeutil import TimeInterval
from repro.workloads.queries import morning_rush_interval, random_queries


def wait_until(predicate, timeout=5.0, interval=0.002):
    """Poll until ``predicate()`` is truthy; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    pytest.fail("condition not reached within timeout")


class GatedNetwork(GraphView):
    """A view whose ``outgoing`` blocks while the gate is closed.

    Lets tests hold an engine run mid-search so concurrent duplicates are
    deterministically in flight together.  Only ``outgoing`` is overridden:
    ``outgoing_from``, what the engine calls, reads through it.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self.gate = threading.Event()
        self.gate.set()

    def outgoing(self, node_id):
        assert self.gate.wait(timeout=30.0), "gate never opened"
        return self._graph.outgoing(node_id)


@pytest.fixture
def interval():
    return TimeInterval.from_clock("7:00", "8:00")


@pytest.fixture
def service(metro_tiny):
    svc = AllFPService(metro_tiny, config=ServiceConfig())
    yield svc
    svc.close()


# ----------------------------------------------------------------------
# Unit layers
# ----------------------------------------------------------------------

class TestResultCache:
    def test_put_get(self):
        cache = ResultCache(max_entries=4, ttl=60.0)
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.snapshot()["hits"] == 1

    def test_ttl_expiry_with_fake_clock(self):
        now = [0.0]
        cache = ResultCache(max_entries=4, ttl=10.0, clock=lambda: now[0])
        cache.put("k", 1)
        now[0] = 9.9
        assert cache.get("k") == 1
        now[0] = 10.0
        assert cache.get("k") is None
        assert cache.snapshot()["expirations"] == 1
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2, ttl=60.0)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.snapshot()["evictions"] == 1

    def test_clear(self):
        cache = ResultCache()
        cache.put("a", 1)
        assert cache.clear() == 1
        assert cache.get("a") is None

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(ttl=0)


class TestSingleFlight:
    def test_sequential_calls_both_lead(self):
        sf = SingleFlight()
        assert sf.do("k", lambda: 1) == (1, True)
        assert sf.do("k", lambda: 2) == (2, True)
        assert sf.coalesced == 0

    def test_concurrent_duplicates_share_one_run(self):
        sf = SingleFlight()
        gate = threading.Event()
        runs = []

        def compute():
            gate.wait(timeout=10.0)
            runs.append(1)
            return "answer"

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(sf.do("k", compute)))
            for _ in range(5)
        ]
        for t in threads:
            t.start()
        wait_until(lambda: sf.coalesced == 4)
        gate.set()
        for t in threads:
            t.join()
        assert len(runs) == 1
        assert sorted(leader for _, leader in results) == [False] * 4 + [True]
        assert all(value == "answer" for value, _ in results)
        assert sf.inflight() == 0

    def test_leader_exception_propagates_to_followers(self):
        sf = SingleFlight()
        gate = threading.Event()
        errors = []

        def boom():
            gate.wait(timeout=10.0)
            raise RuntimeError("leader failed")

        def call():
            try:
                sf.do("k", boom)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=call) for _ in range(3)]
        for t in threads:
            t.start()
        wait_until(lambda: sf.coalesced == 2)
        gate.set()
        for t in threads:
            t.join()
        assert errors == ["leader failed"] * 3


class TestAdmissionController:
    def test_rejects_beyond_capacity(self):
        gate = AdmissionController(max_pending=2)
        gate.try_acquire()
        gate.try_acquire()
        with pytest.raises(ServiceOverloaded) as exc_info:
            gate.try_acquire()
        assert exc_info.value.max_pending == 2
        assert gate.snapshot()["rejected"] == 1
        gate.release()
        gate.try_acquire()  # capacity freed

    def test_release_underflow(self):
        gate = AdmissionController()
        with pytest.raises(RuntimeError):
            gate.release()


class TestMetricsRegistry:
    def test_counter_labels_and_render(self):
        m = MetricsRegistry()
        m.inc("requests_total", labels={"mode": "allfp"})
        m.inc("requests_total", labels={"mode": "allfp"})
        m.inc("requests_total", labels={"mode": "singlefp"})
        text = m.render()
        samples = parse_metrics(text)
        assert samples['repro_requests_total{mode="allfp"}'] == 2
        assert samples['repro_requests_total{mode="singlefp"}'] == 1
        assert "# TYPE repro_requests_total counter" in text
        assert m.counter_total("requests_total") == 3

    def test_histogram_buckets_cumulative(self):
        m = MetricsRegistry()
        for v in (0.0005, 0.002, 0.002, 5.0):
            m.observe("latency_seconds", v, buckets=(0.001, 0.01, 1.0))
        samples = parse_metrics(m.render())
        assert samples['repro_latency_seconds_bucket{le="0.001"}'] == 1
        assert samples['repro_latency_seconds_bucket{le="0.01"}'] == 3
        assert samples['repro_latency_seconds_bucket{le="1"}'] == 3
        assert samples['repro_latency_seconds_bucket{le="+Inf"}'] == 4
        assert samples["repro_latency_seconds_count"] == 4

    def test_gauge_callable_sampled_at_render(self):
        m = MetricsRegistry()
        depth = [3]
        m.set_gauge("queue_depth", lambda: depth[0])
        assert parse_metrics(m.render())["repro_queue_depth"] == 3
        depth[0] = 7
        assert parse_metrics(m.render())["repro_queue_depth"] == 7


# ----------------------------------------------------------------------
# Service behaviour
# ----------------------------------------------------------------------

class TestServiceBasics:
    def test_allfp_matches_direct_engine(self, metro_tiny, service, interval):
        direct = IntAllFastestPaths(metro_tiny).all_fastest_paths(0, 99, interval)
        served = service.query(QueryRequest(0, 99, interval))
        assert [e.path for e in served.result.entries] == [
            e.path for e in direct.entries
        ]
        assert not served.cached and not served.coalesced

    def test_repeat_is_cached(self, service, interval):
        first = service.query(QueryRequest(0, 99, interval))
        second = service.query(QueryRequest(0, 99, interval))
        assert not first.cached
        assert second.cached
        assert second.result is first.result
        assert service.stats()["engine_runs"] == 1

    def test_singlefp_mode(self, service, interval):
        response = service.query(QueryRequest(0, 99, interval, "singlefp"))
        assert response.result.optimal_travel_time > 0

    def test_bad_mode_rejected(self, interval):
        with pytest.raises(Exception):
            QueryRequest(0, 99, interval, mode="frobnicate")

    def test_closed_service_raises(self, metro_tiny, interval):
        svc = AllFPService(metro_tiny, config=ServiceConfig())
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.query(QueryRequest(0, 99, interval))


class TestCoalescing:
    def test_n_identical_concurrent_requests_one_engine_run(
        self, metro_tiny, interval
    ):
        gated = GatedNetwork(metro_tiny)
        svc = AllFPService(
            gated,
            config=ServiceConfig(cache_results=False),
        )
        try:
            gated.gate.clear()
            n = 5
            responses = []
            errors = []

            def call():
                try:
                    responses.append(svc.query(QueryRequest(0, 99, interval)))
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=call) for _ in range(n)]
            for t in threads:
                t.start()
            # Followers register in the single-flight map before blocking.
            wait_until(
                lambda: svc.stats()["single_flight"]["coalesced"] == n - 1
            )
            gated.gate.set()
            for t in threads:
                t.join()
            assert not errors
            assert svc.stats()["engine_runs"] == 1
            assert svc.metrics.counter_total("coalesced_total") == n - 1
            leaders = [r for r in responses if not r.coalesced]
            assert len(leaders) == 1
            entries = {tuple(e.path for e in r.result.entries) for r in responses}
            assert len(entries) == 1  # everyone got the same answer
        finally:
            gated.gate.set()
            svc.close()

    def test_n_http_clients_one_engine_run(self, metro_tiny, interval):
        """The same over the socket: N clients POST one query while the
        leader is held mid-search, and one engine run answers all N."""
        gated = GatedNetwork(metro_tiny)
        svc = AllFPService(gated, config=ServiceConfig())
        server = make_server(svc, port=0)
        start_in_thread(server)
        host, port = server.server_address[:2]
        try:
            gated.gate.clear()
            n = 4
            outcomes = []

            def call():
                client = HTTPClient(f"http://{host}:{port}")
                outcomes.append(client.query(QueryRequest(5, 77, interval)))

            threads = [threading.Thread(target=call) for _ in range(n)]
            for t in threads:
                t.start()
            wait_until(
                lambda: svc.stats()["single_flight"]["coalesced"] == n - 1,
                timeout=30.0,
            )
            gated.gate.set()
            for t in threads:
                t.join()
            assert [status for status, _ in outcomes] == [200] * n
            assert sum(body["coalesced"] for _, body in outcomes) == n - 1
            assert svc.stats()["engine_runs"] == 1
        finally:
            gated.gate.set()
            server.shutdown()
            server.server_close()
            svc.close()

    def test_coalescing_off_runs_engine_per_request(self, metro_tiny, interval):
        svc = AllFPService(
            metro_tiny,
            config=ServiceConfig(coalesce=False, cache_results=False),
        )
        try:
            svc.query(QueryRequest(0, 99, interval))
            svc.query(QueryRequest(0, 99, interval))
            assert svc.stats()["engine_runs"] == 2
        finally:
            svc.close()


class TestDeadlines:
    def test_deadline_exceeded_raises_and_worker_survives(
        self, service, interval
    ):
        with pytest.raises(QueryTimeout) as exc_info:
            service.query(QueryRequest(0, 99, interval, deadline=1e-9))
        assert exc_info.value.stats.timed_out
        # The pool is healthy: the same query now succeeds.
        ok = service.query(QueryRequest(0, 99, interval))
        assert ok.result.entries
        assert (
            service.metrics.counter_value(
                "responses_total", {"mode": "allfp", "status": "timeout"}
            )
            == 1
        )

    def test_engine_deadline_directly(self, metro_tiny, interval):
        engine = IntAllFastestPaths(metro_tiny, deadline=0.0)
        with pytest.raises(QueryTimeout):
            engine.all_fastest_paths(0, 99, interval)
        # Per-call override beats the constructor default.
        result = engine.all_fastest_paths(0, 99, interval, deadline=60.0)
        assert result.stats.elapsed_seconds > 0
        assert not result.stats.timed_out

    def test_timeout_error_not_cached(self, service, interval):
        with pytest.raises(QueryTimeout):
            service.query(QueryRequest(0, 99, interval, deadline=1e-9))
        response = service.query(QueryRequest(0, 99, interval))
        assert not response.cached


class TestAdmissionIntegration:
    def test_over_capacity_requests_fast_fail(self, metro_tiny, interval):
        gated = GatedNetwork(metro_tiny)
        svc = AllFPService(
            gated,
            config=ServiceConfig(
                max_pending=2,
                coalesce=False,
                cache_results=False,
            ),
        )
        try:
            gated.gate.clear()
            outcomes = []

            def call(target):
                try:
                    outcomes.append(svc.query(QueryRequest(0, target, interval)))
                except Exception as exc:  # noqa: BLE001
                    outcomes.append(exc)

            t1 = threading.Thread(target=call, args=(99,))
            t2 = threading.Thread(target=call, args=(55,))
            t1.start()
            t2.start()
            wait_until(lambda: svc.stats()["admission"]["pending"] == 2)
            started = time.monotonic()
            with pytest.raises(ServiceOverloaded):
                svc.query(QueryRequest(0, 33, interval))
            rejection_seconds = time.monotonic() - started
            assert rejection_seconds < 0.5  # fast-fail, not queued
            gated.gate.set()
            t1.join()
            t2.join()
            assert svc.stats()["admission"]["rejected"] == 1
            assert all(not isinstance(o, Exception) for o in outcomes)
        finally:
            gated.gate.set()
            svc.close()


class CountingNetwork(GraphView):
    """A view that counts the threads inside ``outgoing`` at once.

    Each call sleeps briefly, which releases the GIL, so two engine runs
    on different threads would overlap inside it."""

    def __init__(self, inner):
        super().__init__(inner)
        self._lock = threading.Lock()
        self.inside = 0
        self.peak = 0

    def outgoing(self, node_id):
        with self._lock:
            self.inside += 1
            self.peak = max(self.peak, self.inside)
        try:
            time.sleep(0.0002)
            return self._graph.outgoing(node_id)
        finally:
            with self._lock:
                self.inside -= 1


class TestEngineLock:
    def test_one_engine_run_at_a_time(self, metro_tiny, interval):
        counting = CountingNetwork(metro_tiny)
        svc = AllFPService(
            counting,
            config=ServiceConfig(coalesce=False, cache_results=False),
        )
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            errors = []

            def call(target):
                try:
                    svc.query(QueryRequest(0, target, interval))
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=call, args=(target,))
                for target in (99, 88, 77, 66)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert svc.stats()["engine_runs"] == 4
            assert counting.peak == 1
        finally:
            sys.setswitchinterval(switch_interval)
            svc.close()

    def test_cache_hits_and_healthz_skip_the_lock(self, metro_tiny, interval):
        """A run held mid-search owns the engine lock; a cached answer and
        ``/healthz`` still come back at once."""
        gated = GatedNetwork(metro_tiny)
        svc = AllFPService(gated)
        server = make_server(svc, port=0)
        start_in_thread(server)
        host, port = server.server_address[:2]
        client = HTTPClient(f"http://{host}:{port}")
        try:
            status, _ = client.query(QueryRequest(0, 99, interval))
            assert status == 200
            gated.gate.clear()
            held = threading.Thread(
                target=svc.query, args=(QueryRequest(5, 77, interval),)
            )
            held.start()
            wait_until(lambda: svc.stats()["engine_runs"] == 2)
            started = time.monotonic()
            assert client.healthz()["status"] == "ok"
            status, body = client.query(QueryRequest(0, 99, interval))
            assert status == 200 and body["cached"] is True
            assert svc.query(QueryRequest(0, 99, interval)).cached
            assert time.monotonic() - started < 1.0
            gated.gate.set()
            held.join(timeout=30.0)
            assert not held.is_alive()
        finally:
            gated.gate.set()
            server.shutdown()
            server.server_close()
            svc.close()


    def test_lock_wait_honours_the_deadline(self, metro_tiny, interval):
        """A query queued behind a held run times out at its own deadline,
        not when the lock frees up."""
        gated = GatedNetwork(metro_tiny)
        svc = AllFPService(gated, config=ServiceConfig(coalesce=False))
        outcome = {}

        def queued():
            started = time.monotonic()
            try:
                svc.query(QueryRequest(0, 88, interval, deadline=0.2))
            except QueryTimeout as exc:
                outcome["error"] = exc
            outcome["seconds"] = time.monotonic() - started

        held = threading.Thread(
            target=svc.query, args=(QueryRequest(5, 77, interval),)
        )
        waiter = threading.Thread(target=queued)
        try:
            gated.gate.clear()
            held.start()
            wait_until(lambda: svc.stats()["engine_runs"] == 1)
            waiter.start()
            waiter.join(timeout=2.0)
            assert not waiter.is_alive(), "lock wait ignored the deadline"
            assert isinstance(outcome["error"], QueryTimeout)
            assert outcome["seconds"] < 1.0
            assert svc.metrics.counter_total("queue_timeouts_total") == 1
            assert svc.stats()["engine_runs"] == 1
        finally:
            gated.gate.set()
            for thread in (held, waiter):
                if thread.ident is not None:
                    thread.join(timeout=30.0)
            svc.close()


    def test_update_lock_wait_honours_the_deadline(self, interval):
        """A query queued behind a pending update batch (which itself waits
        for a held run) times out at its own deadline, not when the batch
        has gone through."""
        class GatedUpdatableNetwork(GatedNetwork):
            def find_edge(self, source, target):
                return self._graph.find_edge(source, target)

            def update_edge_pattern(self, source, target, pattern):
                return self._graph.update_edge_pattern(source, target, pattern)

        gated = GatedUpdatableNetwork(
            make_metro_network(MetroConfig(10, 10, seed=5))
        )
        svc = AllFPService(gated, config=ServiceConfig(coalesce=False))
        edge = next(gated.edges())
        batch = MutationBatch((EdgeMutation(edge.source, edge.target, edge.pattern),))
        outcome = {}

        def queued():
            started = time.monotonic()
            try:
                svc.query(QueryRequest(0, 88, interval, deadline=0.2))
            except QueryTimeout as exc:
                outcome["error"] = exc
            outcome["seconds"] = time.monotonic() - started

        held = threading.Thread(
            target=svc.query, args=(QueryRequest(5, 77, interval),)
        )
        writer = threading.Thread(target=svc.apply_updates, args=(batch,))
        waiter = threading.Thread(target=queued)
        try:
            gated.gate.clear()
            held.start()
            wait_until(lambda: svc.stats()["engine_runs"] == 1)
            writer.start()
            wait_until(lambda: svc._update_rw._writers_waiting == 1)
            waiter.start()
            waiter.join(timeout=2.0)
            assert not waiter.is_alive(), "update-lock wait ignored the deadline"
            assert isinstance(outcome["error"], QueryTimeout)
            assert outcome["seconds"] < 1.0
            assert svc.metrics.counter_total("queue_timeouts_total") == 1
            assert svc.stats()["engine_runs"] == 1
        finally:
            gated.gate.set()
            for thread in (held, writer, waiter):
                if thread.ident is not None:
                    thread.join(timeout=30.0)
            svc.close()
        assert svc.stats()["updates"]["batches_applied"] == 1


class TestEngineHooks:
    def test_edge_cache_snapshot(self, metro_tiny, interval):
        engine = IntAllFastestPaths(metro_tiny)
        engine.all_fastest_paths(0, 99, interval)
        snap = engine.edge_cache.snapshot()
        assert snap["misses"] > 0
        assert snap["entries"] > 0
        assert set(snap) == {"entries", "max_entries", "hits", "misses"}

    def test_shared_edge_cache_across_engines(self, metro_tiny, interval):
        first = IntAllFastestPaths(metro_tiny)
        first.all_fastest_paths(0, 99, interval)
        second = IntAllFastestPaths(metro_tiny, context=first.context)
        assert second.edge_cache is first.edge_cache
        result = second.all_fastest_paths(0, 99, interval)
        assert result.stats.edge_cache_hits > 0
        assert result.stats.edge_cache_misses == 0


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------

@pytest.fixture
def http_service(metro_tiny):
    svc = AllFPService(metro_tiny, config=ServiceConfig())
    server = make_server(svc, port=0)
    start_in_thread(server)
    host, port = server.server_address[:2]
    client = HTTPClient(f"http://{host}:{port}")
    yield svc, client
    server.shutdown()
    svc.close()


class TestHTTP:
    def test_healthz(self, http_service):
        _, client = http_service
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["nodes"] == 100

    def test_allfp_roundtrip(self, http_service, interval):
        _, client = http_service
        status, body = client.query(QueryRequest(0, 99, interval))
        assert status == 200
        assert body["result"]["entries"]
        assert body["cached"] is False
        status, body = client.query(QueryRequest(0, 99, interval))
        assert body["cached"] is True

    def test_clock_string_interval(self, http_service):
        _, client = http_service
        status, body = client.post(
            "/v1/singlefp",
            {"source": 0, "target": 99, "from": "7:00", "to": "8:00"},
        )
        assert status == 200
        assert body["result"]["optimal_travel_time"] > 0

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({"target": 99, "from": "7:00", "to": "8:00"}, "source"),
            ({"source": 0, "target": 99}, "interval missing"),
            ({"source": 0, "target": 99, "from": "7:00"}, "together"),
            (
                {"source": 0, "target": 99, "from": "nope", "to": "8:00"},
                "clock string",
            ),
            (
                {"source": "zero", "target": 99, "from": "7:00", "to": "8:00"},
                "integer",
            ),
            (
                {"source": 0, "target": 99, "start": 420.0, "end": 480.0,
                 "deadline": -1},
                "positive",
            ),
        ],
    )
    def test_bad_requests_are_400(self, http_service, body, fragment):
        _, client = http_service
        status, payload = client.post("/v1/allfp", body)
        assert status == 400
        assert fragment in payload["message"]

    def test_invalid_json_is_400(self, http_service):
        _, client = http_service
        req = urllib.request.Request(
            client.base_url + "/v1/allfp", data=b"{not json", method="POST"
        )
        try:
            urllib.request.urlopen(req, timeout=10)
            pytest.fail("expected HTTPError")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400

    def test_unknown_node_is_404(self, http_service, interval):
        _, client = http_service
        status, payload = client.query(QueryRequest(0, 123456, interval))
        assert status == 404
        assert payload["error"] == "NodeNotFoundError"

    def test_unknown_route_is_404(self, http_service):
        _, client = http_service
        status, _ = client.post("/v1/frobnicate", {})
        assert status == 404

    def test_deadline_maps_to_504(self, http_service, interval):
        _, client = http_service
        status, payload = client.query(QueryRequest(0, 99, interval, deadline=1e-9))
        assert status == 504
        assert payload["error"] == "QueryTimeout"

    def test_metrics_reconcile_with_client_counts(self, http_service, interval):
        svc, client = http_service
        ok = 0
        for target in (99, 55, 99, 42, 99):
            status, _ = client.query(QueryRequest(0, target, interval))
            assert status == 200
            ok += 1
        samples = parse_metrics(client.metrics_text())
        assert samples['repro_requests_total{mode="allfp"}'] == ok
        assert samples['repro_responses_total{mode="allfp",status="ok"}'] == ok
        # Two of the five were repeats served from the result cache.
        assert samples["repro_result_cache_hits_total"] == 2
        assert samples["repro_engine_runs_total"] == 3
        assert samples["repro_pending_requests"] == 0
        assert samples['repro_request_latency_seconds_count{mode="allfp"}'] == ok


_node = st.integers(0, 10**6)
_node_list = st.lists(_node, min_size=1, max_size=8)


@st.composite
def _requests(draw, http: bool) -> QueryRequest:
    """A request of any mode, optional fields ``None`` or set; ``http``
    keeps it inside the HTTP-only policy (profile ``targets`` present,
    ``deadline`` > 0, ``max_staleness`` >= 0)."""
    mode = draw(st.sampled_from(MODES))
    start = draw(st.floats(0.0, 7 * 1440.0))
    interval = TimeInterval(start, start + draw(st.floats(0.0, 600.0)))
    fields = {
        "deadline": draw(st.none() | st.floats(1e-6 if http else -1e4, 1e4)),
        "max_staleness": draw(st.none() | st.floats(0.0 if http else -1e4, 1e4)),
    }
    target = None
    if mode in ("allfp", "singlefp"):
        target = draw(_node)
    elif mode == "profile":
        fields["targets"] = draw(_node_list if http else st.none() | _node_list)
    elif mode == "knn":
        fields["candidates"] = draw(_node_list)
        fields["k"] = draw(st.integers(1, 8))
    else:
        fields["pairs"] = draw(
            st.lists(st.tuples(_node, _node), min_size=1, max_size=8)
        )
    return QueryRequest(draw(_node), target, interval, mode, **fields)


class TestWireCodec:
    """One encoding of a request: what the HTTP client POSTs, what the
    server parses and what the shard pipe carries are the same dict."""

    @settings(max_examples=200, deadline=None)
    @given(_requests(http=False))
    def test_pipe_round_trip(self, req):
        doc = request_to_wire(req)
        assert request_from_wire(doc) == req
        assert request_from_wire(pickle.loads(pickle.dumps(doc))) == req

    @settings(max_examples=200, deadline=None)
    @given(_requests(http=True))
    def test_http_body_parses_back(self, req):
        body = json.loads(json.dumps(request_to_wire(req)))
        assert body.pop("mode") == req.mode
        assert parse_request(body, req.mode) == req

    def test_none_fields_are_left_out(self, interval):
        doc = request_to_wire(QueryRequest(0, 99, interval))
        assert doc == {
            "mode": "allfp", "start": 420.0, "end": 480.0,
            "source": 0, "target": 99,
        }

    def test_answer_body_is_the_handler_body(self, http_service, interval):
        svc, client = http_service
        request = QueryRequest(0, 99, interval)
        status, body = client.query(request)
        assert status == 200
        cached = json.loads(json.dumps(response_to_wire(svc.query(request))))
        assert sorted(cached) == sorted(body)
        assert cached["result"] == body["result"]


def _read_response(stream) -> tuple[int, dict, bytes]:
    """One HTTP response off a raw socket's file: (status, headers, body)."""
    status_line = stream.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


class TestHTTPFraming:
    """Request framing over a raw socket: whatever a POST declares about its
    body, the reply is one typed JSON error and the next request — on the
    same connection, or a new one where the server had to close — is
    answered normally."""

    @pytest.fixture
    def address(self, http_service):
        _, client = http_service
        host, port = client.base_url.removeprefix("http://").split(":")
        return host, int(port)

    @staticmethod
    def _exchange(address, payload: bytes, responses: int):
        """Send ``payload`` in one write; read ``responses`` replies, then
        whether the server closed the connection."""
        import socket

        with socket.create_connection(address, timeout=2.0) as sock:
            sock.sendall(payload)
            stream = sock.makefile("rb")
            replies = [_read_response(stream) for _ in range(responses)]
            sock.settimeout(0.3)
            try:
                closed = stream.read(1) == b""
            except OSError:  # timed out: still open and idle
                closed = False
            return replies, closed

    HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"

    def _assert_healthy(self, status, headers, body):
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert json.loads(body)["status"] == "ok"

    def test_negative_content_length_is_a_typed_400(self, address):
        post = (
            b"POST /v1/allfp HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: -1\r\n\r\n{}"
        )
        [(status, headers, body)], closed = self._exchange(address, post, 1)
        assert status == 400
        assert headers["content-type"] == "application/json"
        assert json.loads(body)["error"] == "BadRequest"
        assert closed  # the body's extent is unknown: nothing more is read
        [reply], _ = self._exchange(address, self.HEALTHZ, 1)
        self._assert_healthy(*reply)

    def test_unknown_path_reads_its_body_first(self, address):
        post = (
            b"POST /v1/nope HTTP/1.1\r\nHost: t\r\n"
            b'Content-Length: 8\r\n\r\n{"a": 1}'
        )
        replies, closed = self._exchange(address, post + self.HEALTHZ, 2)
        status, headers, body = replies[0]
        assert status == 404
        assert headers["content-type"] == "application/json"
        assert json.loads(body)["error"] == "NotFound"
        self._assert_healthy(*replies[1])  # same keep-alive connection
        assert not closed

    def test_oversize_body_closes_instead_of_misframing(self, address):
        post = (
            b"POST /v1/allfp HTTP/1.1\r\nHost: t\r\n"
            b'Content-Length: 70000\r\n\r\n{"a": 1}'
        )
        [(status, headers, body)], closed = self._exchange(
            address, post + self.HEALTHZ, 1
        )
        assert status == 400
        assert headers["content-type"] == "application/json"
        assert json.loads(body)["error"] == "BadRequest"
        assert headers["connection"] == "close"
        assert closed  # the unread bytes were never parsed as a request
        [reply], _ = self._exchange(address, self.HEALTHZ, 1)
        self._assert_healthy(*reply)

    def test_expect_100_continue_is_not_buffered(self, address):
        """A client that waits for ``100 Continue`` before its body gets it
        at once, though the rest of a response is buffered until done."""
        import socket

        body = b'{"source": 0, "target": 99, "from": "7:00", "to": "8:00"}'
        head = (
            b"POST /v1/allfp HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        )
        with socket.create_connection(address, timeout=2.0) as sock:
            sock.sendall(head)
            stream = sock.makefile("rb")
            assert stream.readline().startswith(b"HTTP/1.1 100 ")
            assert stream.readline() == b"\r\n"
            sock.sendall(body)
            status, headers, payload = _read_response(stream)
        assert status == 200
        assert json.loads(payload)["result"]["entries"]


class TestKeepAliveLatency:
    """Round trips over one ``http.client`` keep-alive connection.  A
    response written as headers and then body in two small segments is held
    about 40 ms by Nagle's algorithm and the client's delayed ACK; each of
    these stays far below that."""

    ROUND_TRIPS = 20
    P50_MS = 5.0

    @pytest.fixture
    def connection(self):
        svc = AllFPService(make_metro_network(MetroConfig(10, 10, seed=5)))
        server = make_server(svc, port=0)
        start_in_thread(server)
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        yield svc, conn
        conn.close()
        server.shutdown()
        server.server_close()
        svc.close()

    @staticmethod
    def _round_trip(conn, method, path, body=None):
        """``(milliseconds, status, body)`` of one request on ``conn``."""
        data = None if body is None else json.dumps(body).encode()
        started = time.perf_counter()
        conn.request(method, path, body=data)
        response = conn.getresponse()
        payload = response.read()
        elapsed = (time.perf_counter() - started) * 1e3
        assert not response.will_close
        return elapsed, response.status, payload

    def _p50(self, conn, method, path, body=None, status=200):
        times = []
        for _ in range(self.ROUND_TRIPS):
            ms, got, _ = self._round_trip(conn, method, path, body)
            assert got == status
            times.append(ms)
        return statistics.median(times)

    def test_cache_hit_round_trip(self, connection):
        svc, conn = connection
        query = {"source": 0, "target": 99, "from": "7:00", "to": "8:00"}
        _, status, payload = self._round_trip(conn, "POST", "/v1/allfp", query)
        assert status == 200 and json.loads(payload)["cached"] is False
        assert self._p50(conn, "POST", "/v1/allfp", query) < self.P50_MS
        assert svc.stats()["engine_runs"] == 1

    @pytest.mark.parametrize("path", ["/healthz", "/metrics"])
    def test_get_round_trip(self, connection, path):
        _, conn = connection
        assert self._p50(conn, "GET", path) < self.P50_MS

    def test_update_round_trip(self, connection):
        svc, conn = connection
        edge = next(svc.network.edges())
        times = []
        for _ in range(self.ROUND_TRIPS // 2):
            for pattern in (slowdown_pattern(edge.pattern, 0.5), edge.pattern):
                batch = MutationBatch((EdgeMutation(edge.source, edge.target, pattern),))
                ms, status, _ = self._round_trip(
                    conn, "POST", "/v1/updates", batch.to_wire()
                )
                assert status == 200
                times.append(ms)
        assert statistics.median(times) < self.P50_MS
        assert svc.network.find_edge(edge.source, edge.target).pattern == edge.pattern

    def test_bad_content_length_still_closes(self, connection):
        _, conn = connection
        conn.putrequest("POST", "/v1/allfp")
        conn.putheader("Content-Length", "nope")
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 400
        assert json.loads(response.read())["error"] == "BadRequest"
        assert response.getheader("Connection") == "close"
        assert response.will_close
        # The client reconnects; the server answers the next request.
        _, status, _ = self._round_trip(conn, "GET", "/healthz")
        assert status == 200


# ----------------------------------------------------------------------
# One-to-many endpoints: /v1/profile and /v1/knn
# ----------------------------------------------------------------------

class TestOneToManyModes:
    def test_profile_matches_direct_search(self, metro_tiny, service, interval):
        from repro.core.profile import profile_search

        direct = profile_search(metro_tiny, 0, interval, targets=[5, 27, 99])
        served = service.query(
            QueryRequest(0, None, interval, "profile", targets=[5, 27, 99])
        )
        assert set(served.result.profiles) == set(direct.profiles)
        for node, fn in served.result.profiles.items():
            assert fn(interval.start) == pytest.approx(
                direct.profiles[node](interval.start), abs=1e-9
            )
        assert served.result.stats.expanded_paths > 0

    def test_knn_matches_direct_query(self, metro_tiny, service, interval):
        from repro.core.knn import interval_knn

        direct = interval_knn(metro_tiny, 0, [12, 34, 56, 78], 2, interval)
        served = service.query(
            QueryRequest(0, None, interval, "knn", candidates=[12, 34, 56, 78], k=2)
        )
        assert served.result.node_ids() == direct.node_ids()

    def test_profile_repeat_is_cached(self, service, interval):
        first = service.query(
            QueryRequest(0, None, interval, "profile", targets=[5, 99])
        )
        second = service.query(
            QueryRequest(0, None, interval, "profile", targets=[99, 5, 5])
        )
        assert not first.cached
        # Target normalisation makes the permuted repeat the same cache key.
        assert second.cached

    def test_http_profile_roundtrip(self, http_service, interval):
        _, client = http_service
        status, body = client.query(
            QueryRequest(0, None, interval, "profile", targets=[5, 27, 99])
        )
        assert status == 200
        assert set(body["result"]["profiles"]) == {"5", "27", "99"}
        assert body["result"]["stats"]["expanded_paths"] > 0

    def test_http_knn_roundtrip(self, http_service, interval):
        _, client = http_service
        status, body = client.query(
            QueryRequest(0, None, interval, "knn", candidates=[12, 34, 56, 78], k=2)
        )
        assert status == 200
        neighbors = body["result"]["neighbors"]
        assert len(neighbors) == 2
        assert (
            neighbors[0]["min_travel_time"] <= neighbors[1]["min_travel_time"]
        )

    @pytest.mark.parametrize(
        "path, body, fragment",
        [
            ("/v1/profile", {"source": 0, "from": "7:00", "to": "8:00"},
             "targets"),
            ("/v1/profile",
             {"source": 0, "targets": [], "from": "7:00", "to": "8:00"},
             "targets"),
            ("/v1/profile",
             {"source": 0, "targets": list(range(300)), "from": "7:00",
              "to": "8:00"},
             "at most"),
            ("/v1/knn",
             {"source": 0, "candidates": [5, 9], "from": "7:00", "to": "8:00"},
             "k"),
            ("/v1/knn",
             {"source": 0, "candidates": [5, 9], "k": 0, "from": "7:00",
              "to": "8:00"},
             "k"),
        ],
    )
    def test_bad_one_to_many_requests_are_400(
        self, http_service, path, body, fragment
    ):
        _, client = http_service
        status, payload = client.post(path, body)
        assert status == 400
        assert fragment in payload["message"]

    def test_profile_deadline_maps_to_504(self, http_service, interval):
        _, client = http_service
        status, payload = client.query(
            QueryRequest(0, None, interval, "profile", 1e-9, targets=[99])
        )
        assert status == 504
        assert payload["error"] == "QueryTimeout"


# ----------------------------------------------------------------------
# Concurrent clients
# ----------------------------------------------------------------------

class TestConcurrentClients:
    def test_thread_pool_of_clients_all_answered(self, metro_tiny, service):
        from concurrent.futures import ThreadPoolExecutor

        queries = random_queries(
            metro_tiny, 8, morning_rush_interval(1.0), seed=11
        )
        requests = [QueryRequest(q.source, q.target, q.interval) for q in queries]
        with ThreadPoolExecutor(max_workers=4) as pool:
            responses = list(pool.map(service.query, requests))
        assert len(responses) == 8
        for spec, response in zip(queries, responses):
            assert response.result.source == spec.source
            assert response.result.target == spec.target
