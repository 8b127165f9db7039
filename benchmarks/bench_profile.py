"""Profile-search benchmark — writes ``BENCH_profile.json``.

Times the one-to-all profile search (flat-array ``compose``/``merge_min``
per relaxation, functions materialised once at the end) on the two
workloads that sit on it:

* **profile sweep** — ``profile_search`` from several sources over a
  leaving-time interval (the allFP building block and the kNN substrate);
* **shortcut build** — the hierarchy's boundary-to-boundary profile
  searches (a 1-level ``MultiLevelOverlay.build``), whose build time is
  dominated by the profile loop.

Before any timing is reported the profiles are compared, at sampled
leaving instants, with the scalar fixed-departure A* — a fast wrong answer
is worthless.

Usage::

    PYTHONPATH=src python benchmarks/bench_profile.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from emit_json import emit_bench_json

from repro.core.astar import fixed_departure_query
from repro.core.profile import profile_search
from repro.func import kernel
from repro.hierarchy import MultiLevelOverlay
from repro.network.generator import MetroConfig, make_metro_network
from repro.timeutil import TimeInterval

#: Answers must agree to this absolute tolerance at every sampled instant.
TOL = 1e-6


def timed(fn, repeat: int) -> float:
    """Best-of-``repeat`` seconds for ``fn()``."""
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def check_profiles(network, source: int, interval: TimeInterval) -> int:
    """Assert every 13th node's profile matches A* at 5 instants."""
    profiles = profile_search(network, source, interval).profiles
    checked = 0
    for node in sorted(profiles)[::13]:
        if node == source:
            continue
        for t in interval.sample(5):
            want = fixed_departure_query(network, source, node, t).arrival
            got = profiles[node](t)
            assert abs(got - want) <= TOL, (source, node, t, got, want)
            checked += 1
    return checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke sizing")
    args = parser.parse_args(argv)

    if args.quick:
        net_cfg = MetroConfig(width=10, height=10, seed=5)
        sources = (0, 44, 99)
        hier_cells = 2
        repeat = 1
    else:
        net_cfg = MetroConfig(width=16, height=16, seed=3)
        sources = (0, 85, 140, 255)
        hier_cells = 3
        repeat = 3

    network = make_metro_network(net_cfg)
    interval = TimeInterval.from_clock("7:00", "9:00")
    horizon = TimeInterval.from_clock("5:00", "14:00")
    print(
        f"network: {network.node_count} nodes, {network.edge_count} edges; "
        f"sources={list(sources)}, hierarchy {hier_cells}x{hier_cells}"
    )

    checked = sum(check_profiles(network, s, interval) for s in sources)
    print(f"profile answers match A*: {checked} sampled values compared")

    def sweep() -> None:
        for source in sources:
            profile_search(network, source, interval)

    sweep_s = timed(sweep, repeat)
    print(f"  profile sweep:  {sweep_s*1e3:8.1f} ms")

    def build():
        return MultiLevelOverlay.build(
            network, levels=1, nx=hier_cells, horizon=horizon
        )

    index = build()
    build_s = timed(build, repeat)
    print(
        f"  shortcut build: {build_s*1e3:8.1f} ms "
        f"({index.stats.shortcuts} shortcuts)"
    )

    path = emit_bench_json(
        "profile",
        [
            {"name": "profile_sweep", "sources": len(sources), "seconds": sweep_s},
            {
                "name": "hierarchy_build",
                "cells": hier_cells,
                "shortcuts": index.stats.shortcuts,
                "seconds": build_s,
            },
        ],
        scale="quick" if args.quick else "small",
        quick=args.quick,
        meta={
            "nodes": network.node_count,
            "edges": network.edge_count,
            "interval_minutes": interval.end - interval.start,
            "answers_checked": checked,
            "kernel_backend": kernel.active_backend(),
        },
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
