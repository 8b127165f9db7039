"""CI smoke test for the sharded serve tier.

Boots a 2-shard :class:`repro.shard.ShardedService` (estimator tables
mmap-ed from the tier's temporary snapshot) behind the stdlib HTTP server and checks the
end-to-end contract the CI job cares about:

1. ``GET /healthz`` aggregates both shards, alive, over the mmap
   transport,
2. an allFP query over HTTP answers identically to a single-process
   ``AllFPService``,
3. ``GET /metrics`` carries per-shard series (``shard_id`` /
   ``shard_count`` / ``kernel_backend`` labels),
4. hard-killing the shard that owns a query mid-run fails over to the
   surviving shard: the response is still the baseline answer, flagged
   ``degraded`` with ``degraded_shard`` naming the dead ring node,
5. the killed worker restarts and the tier reports 2/2 alive again.

Exits non-zero on the first failed assertion.

Usage::

    PYTHONPATH=src python benchmarks/shard_smoke.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.estimators.boundary import BoundaryNodeEstimator
from repro.func import kernel
from repro.network.generator import MetroConfig, make_metro_network
from repro.serve import AllFPService, HTTPClient, ServiceConfig, make_server, start_in_thread
from repro.serve.service import QueryRequest
from repro.shard import ShardedService, routing_key
from repro.timeutil import TimeInterval


def canonical(result_doc: dict) -> str:
    """Answer-only canonical form (mirrors repro.serve.chaos._canonical)."""
    doc = dict(result_doc)
    doc.pop("stats", None)
    doc.pop("entries", None)
    return json.dumps(doc, sort_keys=True)


def wait_until(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached within timeout")


def main() -> int:
    network = make_metro_network(MetroConfig(width=10, height=10, seed=5))
    estimator = BoundaryNodeEstimator(network, 4, 4)
    interval = TimeInterval.from_clock("7:00", "8:00")
    config = ServiceConfig(workers=2, cache_results=False, coalesce=False)

    # Single-process reference answers.
    single = AllFPService(network, estimator, config=config)
    specs = [(0, 99), (5, 77), (12, 87), (33, 66), (48, 51), (7, 92)]
    baseline = {}
    for source, target in specs:
        response = single.query(
            QueryRequest(source, target, interval, "allfp", None)
        )
        baseline[(source, target)] = canonical(response.result.as_dict())
    single.close()

    tier = ShardedService(network, estimator, config, shards=2)
    server = make_server(tier, port=0)
    start_in_thread(server)
    host, port = server.server_address[:2]
    client = HTTPClient(f"http://{host}:{port}")

    try:
        # 1. healthz aggregates both shards
        health = client.healthz()
        shards = health["shards"]
        assert len(shards) == 2, health
        assert all(s["alive"] for s in shards), shards
        assert all(s["tables_mode"] == "mmap" for s in shards), shards
        print("healthz ok: 2/2 shards alive over mmap transport")

        # 2. HTTP answer equals the single-process answer
        status, body = client.query(QueryRequest(0, 99, interval))
        assert status == 200, (status, body)
        assert canonical(body["result"]) == baseline[(0, 99)], body
        assert "degraded_shard" not in body, body
        print("allfp ok: HTTP answer matches single-process baseline")

        # 3. per-shard metrics series
        text = client.metrics_text()
        backend = kernel.active_backend()
        for sid in (0, 1):
            needle = f'shard_id="{sid}"'
            assert needle in text, f"{needle} missing from /metrics"
        assert 'shard_count="2"' in text, "shard_count label missing"
        assert f'kernel_backend="{backend}"' in text, "kernel_backend missing"
        print("metrics ok: shard_id/shard_count/kernel_backend labels present")

        # 4. kill the shard that owns a query; failover must still answer
        victim = None
        for source, target in specs:
            request = QueryRequest(source, target, interval, "allfp", None)
            owner = tier.ring.preference(routing_key(request))[0]
            if victim is None or owner == 0:
                victim = (source, target, owner)
            if owner == 0:
                break
        source, target, owner = victim
        tier.kill_shard(owner)
        status, body = client.query(QueryRequest(source, target, interval))
        assert status == 200, (status, body)
        assert body["degraded"] is True, body
        assert body.get("degraded_shard") == owner, body
        assert canonical(body["result"]) == baseline[(source, target)], body
        print(
            f"failover ok: shard {owner} killed, survivor answered "
            f"{source}->{target} with the baseline answer (flagged degraded)"
        )

        # 5. the dead worker restarts
        wait_until(lambda: tier.stats()["alive"] == 2)
        stats = tier.stats()
        assert stats["restarts"][owner] == 1, stats["restarts"]
        print(f"restart ok: shard {owner} back, 2/2 alive")
    finally:
        server.shutdown()
        tier.close()

    print("shard smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
