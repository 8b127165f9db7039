"""CI smoke test for the live-update stream and bounded staleness.

Replays the bundled incident trace (``benchmarks/data/incident_trace.jsonl``,
pinned to the 10x10 seed-23 metro network) against a 2-shard server and
holds the whole update contract:

1. **CLI replay** — ``repro-allfp replay-updates`` (a subprocess, the real
   verb) replays the trace over HTTP; every batch lands, the network
   version advances monotonically to the trace length;
2. **staleness surface** — ``/healthz`` carries the
   ``network_version``/``staleness_seconds``/``pending_updates`` triple,
   ``/metrics`` the per-shard ``network_applied_version`` gauges;
3. **versioned answers** — a post-replay query response carries the
   final network version and byte-matches a from-scratch single-process
   service on the mutated network;
4. **typed rejections** — an unknown edge is HTTP 404
   (``EdgeNotFoundError``) and leaves the version alone; a malformed
   batch and a negative ``max_staleness`` are HTTP 400;
5. **chaos under mutation** — :func:`repro.serve.chaos.run_chaos` with a
   ``trace`` replays queries concurrent with it, faults off and on
   (``default_fault_plan``): every non-stale answer must byte-match a
   fault-free re-execution at the network version it claims.

Exits non-zero on the first failed assertion.

Usage::

    PYTHONPATH=src python benchmarks/update_smoke.py
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.network.generator import MetroConfig, make_metro_network
from repro.serve import AllFPService, HTTPClient, ServiceConfig, make_server, start_in_thread
from repro.serve.chaos import _canonical, default_fault_plan, run_chaos
from repro.serve.service import QueryRequest
from repro.serve.updates import TraceEvent, apply_batch, load_trace
from repro.shard import ShardedService
from repro.timeutil import TimeInterval
from repro.workloads.queries import QuerySpec

TRACE_PATH = REPO_ROOT / "benchmarks" / "data" / "incident_trace.jsonl"
INTERVAL = TimeInterval(7 * 60.0, 8 * 60.0)


def fresh_network():
    return make_metro_network(MetroConfig(width=10, height=10, seed=23))


def check_http_replay(events) -> None:
    tier = ShardedService(
        fresh_network(),
        config=ServiceConfig(workers=2, cache_results=False, coalesce=False),
        shards=2,
    )
    server = make_server(tier, port=0, quiet=True)
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}"
    start_in_thread(server)
    try:
        # 1. The real CLI verb, as a subprocess, against the live server.
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "replay-updates",
                "--url",
                url,
                "--trace",
                str(TRACE_PATH),
                "--speed",
                "50",
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr or proc.stdout
        assert f"network version {len(events)}" in proc.stdout, proc.stdout
        print(f"replay-updates CLI: {len(events)} batch(es) applied over HTTP")

        # 2. Staleness surface on /healthz and /metrics.
        health = json.loads(urllib.request.urlopen(f"{url}/healthz").read())
        assert health["network_version"] == len(events), health
        assert health["pending_updates"] == 0, health
        assert health["staleness_seconds"] == 0.0, health
        metrics = urllib.request.urlopen(f"{url}/metrics").read().decode()
        applied_lines = [
            line
            for line in metrics.splitlines()
            if "network_applied_version" in line and not line.startswith("#")
        ]
        # Router aggregate plus one series per shard, all at the final version.
        assert len(applied_lines) == 3, applied_lines
        assert all(line.endswith(f" {len(events)}") for line in applied_lines), (
            applied_lines
        )
        for gauge in ("update_staleness_seconds", "updates_pending"):
            assert gauge in metrics, gauge
        print("staleness surface: healthz triple + per-shard gauges ok")

        # 3. Versioned answer parity with a from-scratch service.
        mutated = fresh_network()
        for event in events:
            apply_batch(mutated, event.batch)
        reference = AllFPService(
            mutated, config=ServiceConfig(workers=2, cache_results=False)
        )
        client = HTTPClient(url)
        try:
            first = events[0].batch.mutations[0]
            for source, target in ((first.source, first.target), (0, 99)):
                request = QueryRequest(source, target, INTERVAL)
                status, body = client.query(request)
                assert status == 200, body
                assert body["version"] == len(events), body
                fresh = reference.query(request)
                assert _canonical_doc(body["result"]) == _canonical(
                    fresh.result
                ), f"answer diverges on {source}->{target}"
        finally:
            reference.close()
        print("versioned answers: byte-match a from-scratch mutated service")

        # 4. Typed rejections, version untouched.
        status, body = client.updates(
            {
                "mutations": [
                    {
                        "source": 0,
                        "target": 999999,
                        "pattern": events[0].batch.mutations[0].to_wire()[
                            "pattern"
                        ],
                    }
                ]
            }
        )
        assert status == 404 and body["error"] == "EdgeNotFoundError", body
        status, body = client.updates({"mutations": []})
        assert status == 400 and body["error"] == "QueryError", body
        status, body = client.post(
            "/v1/allfp",
            {
                "source": 0,
                "target": 99,
                "start": INTERVAL.start,
                "end": INTERVAL.end,
                "max_staleness": -1.0,
            },
        )
        assert status == 400, body
        health = json.loads(urllib.request.urlopen(f"{url}/healthz").read())
        assert health["network_version"] == len(events), health
        print("typed rejections: 404 unknown edge, 400 malformed, version intact")
    finally:
        server.shutdown()
        tier.close()


def _canonical_doc(doc: dict) -> str:
    doc = dict(doc)
    doc.pop("stats", None)
    doc.pop("entries", None)
    return json.dumps(doc, sort_keys=True)


def check_mutation_chaos(events, plan=None) -> None:
    label = "faults on" if plan is not None else "faults off"
    network = fresh_network()
    edges = list(network.edges())
    queries = [
        QuerySpec(edges[0].source, edges[0].target, INTERVAL, 0.0),
        QuerySpec(0, network.node_count - 1, INTERVAL, 0.0),
        QuerySpec(edges[10].source, edges[25].target, INTERVAL, 0.0),
    ]
    # Compress the bundled offsets so the smoke stays fast.
    trace = [TraceEvent(e.at / 5.0, e.batch) for e in events]
    service = AllFPService(network, config=ServiceConfig(workers=2))
    try:
        report = run_chaos(service, queries, plan, trace=trace, clients=3)
    finally:
        service.close()
    assert report.passed(), report.violations
    assert report.versions == len(events), report.versions
    assert report.requests > 0
    print(
        f"mutation chaos ({label}): {report.requests} requests across "
        f"{report.versions + 1} versions, invariant held"
    )


def main() -> int:
    events = load_trace(TRACE_PATH)
    print(
        f"trace: {len(events)} batch(es), "
        f"{sum(len(e.batch) for e in events)} mutation(s) from {TRACE_PATH.name}"
    )
    check_http_replay(events)
    check_mutation_chaos(events)
    check_mutation_chaos(events, plan=default_fault_plan(seed=7))
    print("update smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
