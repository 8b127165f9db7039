"""CI smoke test for the HTTP query service.

Starts the full stack on a tiny generated network and an ephemeral port,
then checks the end-to-end contract the CI job cares about:

1. ``GET /healthz`` answers,
2. one ``POST /v1/allfp`` query returns a partition,
3. duplicate concurrent requests coalesce into a single engine run
   (deterministically: the network is gated so the leader is provably
   still in flight when the duplicates arrive),
4. ``GET /metrics`` counters reconcile with the client-observed request
   count,
5. the one-to-many endpoints answer: ``POST /v1/profile`` returns one
   arrival profile per requested target, ``POST /v1/batch`` answers both
   accepted request forms, and ``POST /v1/knn`` a ranked
   neighbour list, both with search stats attached.

Exits non-zero on the first failed assertion.

Usage::

    PYTHONPATH=src python benchmarks/serve_smoke.py
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.graph import GraphView
from repro.func import kernel
from repro.network.generator import MetroConfig, make_metro_network
from repro.serve import (
    AllFPService,
    HTTPClient,
    ServiceConfig,
    make_server,
    parse_metrics,
    start_in_thread,
)
from repro.timeutil import TimeInterval


class GatedNetwork(GraphView):
    """Blocks ``outgoing`` while the gate is closed (see tests/test_serve.py);
    the engine's ``outgoing_from`` reads through it."""

    def __init__(self, inner):
        super().__init__(inner)
        self.gate = threading.Event()
        self.gate.set()

    def outgoing(self, node_id):
        assert self.gate.wait(timeout=60.0), "gate never opened"
        return self._graph.outgoing(node_id)


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached within timeout")


def main() -> int:
    network = GatedNetwork(
        make_metro_network(MetroConfig(width=10, height=10, seed=5))
    )
    service = AllFPService(network, config=ServiceConfig(workers=2))
    server = make_server(service, port=0)
    start_in_thread(server)
    host, port = server.server_address[:2]
    client = HTTPClient(f"http://{host}:{port}")
    interval = TimeInterval.from_clock("7:00", "8:00")

    try:
        # 1. healthz
        health = client.healthz()
        assert health["status"] == "ok", health
        assert health["nodes"] == 100, health
        print(f"healthz ok: {health}")

        # 2. one allFP query
        status, body = client.query(0, 99, interval)
        assert status == 200, (status, body)
        assert body["result"]["entries"], body
        print(
            f"allfp ok: {len(body['result']['entries'])} sub-interval(s), "
            f"{body['elapsed_ms']:.1f} ms"
        )

        # 3. duplicate concurrent requests coalesce into one engine run
        runs_before = service.stats()["engine_runs"]
        network.gate.clear()
        n = 4
        outcomes: list[tuple[int, dict]] = []

        def duplicate():
            outcomes.append(client.query(5, 77, interval))

        threads = [threading.Thread(target=duplicate) for _ in range(n)]
        for t in threads:
            t.start()
        wait_until(
            lambda: service.stats()["single_flight"]["coalesced"] == n - 1
        )
        network.gate.set()
        for t in threads:
            t.join()
        assert all(status == 200 for status, _ in outcomes), outcomes
        coalesced_responses = sum(
            1 for _, body in outcomes if body["coalesced"]
        )
        assert coalesced_responses == n - 1, outcomes
        runs = service.stats()["engine_runs"] - runs_before
        assert runs == 1, f"expected 1 engine run for {n} duplicates, got {runs}"
        print(f"coalescing ok: {n} duplicates -> 1 engine run")

        # 4. /metrics reconciles with what this client sent.  Every sample
        # carries the kernel_backend const label now, so build names with it.
        samples = parse_metrics(client.metrics_text())
        sent = 1 + n

        def sample(name: str, **labels) -> str:
            labels["kernel_backend"] = kernel.active_backend()
            block = ",".join(
                f'{k}="{v}"' for k, v in sorted(labels.items())
            )
            return f"repro_{name}{{{block}}}"

        assert samples[sample("requests_total", mode="allfp")] == sent, samples
        assert (
            samples[sample("responses_total", mode="allfp", status="ok")] == sent
        ), samples
        assert samples[sample("coalesced_total")] == n - 1, samples
        assert samples[sample("engine_runs_total")] == 2, samples
        assert samples[sample("pending_requests")] == 0, samples
        print(f"metrics ok: {sent} requests reconciled")

        # 5. one-to-many endpoints: /v1/profile and /v1/knn
        status, body = client.profile(0, [5, 27, 99], interval)
        assert status == 200, (status, body)
        profiles = body["result"]["profiles"]
        assert set(profiles) == {"5", "27", "99"}, sorted(profiles)
        assert body["result"]["stats"]["expanded_paths"] > 0, body
        print(f"profile ok: {len(profiles)} target profile(s)")

        status, body = client.knn(0, [12, 34, 56, 78], 2, interval)
        assert status == 200, (status, body)
        neighbors = body["result"]["neighbors"]
        assert len(neighbors) == 2, body
        assert (
            neighbors[0]["min_travel_time"] <= neighbors[1]["min_travel_time"]
        ), neighbors
        print(f"knn ok: top-{len(neighbors)} of 4 candidates")

        # 6. batch endpoint: explicit pairs and the one-to-many shorthand
        status, body = client.batch([(0, 99), (3, 42)], interval)
        assert status == 200, (status, body)
        items = body["result"]["items"]
        assert [(i["source"], i["target"]) for i in items] == [(0, 99), (3, 42)]
        assert all(i["reachable"] for i in items), items
        assert body["result"]["groups"] == 2, body["result"]
        status, body = client.batch_one_to_many(0, [5, 27, 99], interval)
        assert status == 200, (status, body)
        assert len(body["result"]["items"]) == 3, body
        assert body["result"]["groups"] == 1, body["result"]
        backend = body["result"]["stats"]["kernel_backend"]
        assert backend == "array", backend
        print(f"batch ok: 2 forms answered on backend {backend!r}")
    finally:
        network.gate.set()
        server.shutdown()
        service.close()

    print("serve smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
