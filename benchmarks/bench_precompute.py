"""Estimator precompute benchmark — writes ``BENCH_precompute.json``.

Measures the three claims of the precompute subsystem on one seeded metro
network:

* **parallel fan-out** — wall-clock of the per-cell Dijkstra precompute:
  the serial path and the ``multiprocessing`` pool at several worker
  counts and grid sizes (speedups depend on the machine's core count,
  reported in meta);
* **snapshot warm-start** — cold estimator construction (full precompute)
  vs warm construction from a saved snapshot (fingerprint check + array
  reads only), plus the same comparison for a full ``AllFPService`` boot;
* **hot-path cost** — a ``bound()`` microbenchmark of the flat-array
  stores, in absolute ns per call.

Usage::

    PYTHONPATH=src python benchmarks/bench_precompute.py [--quick]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from emit_json import emit_bench_json

from repro.estimators.boundary import BoundaryNodeEstimator
from repro.func import kernel
from repro.network.generator import MetroConfig, make_metro_network
from repro.serve import AllFPService


def time_construct(factory, repeat: int) -> float:
    """Best-of-``repeat`` wall-clock seconds to run ``factory()``."""
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        factory()
        best = min(best, time.perf_counter() - started)
    return best


def bench_bound(estimator, node_ids, targets, loops: int) -> float:
    """ns per ``bound()`` call over a fixed node/target sweep."""
    calls = 0
    started = time.perf_counter()
    for _ in range(loops):
        for target in targets:
            estimator.prepare(target)
            bound = estimator.bound
            for node in node_ids:
                bound(node)
            calls += len(node_ids)
    elapsed = time.perf_counter() - started
    return elapsed / calls * 1e9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke sizing")
    args = parser.parse_args(argv)

    if args.quick:
        net_cfg = MetroConfig(width=12, height=12, seed=7)
        grids = (4,)
        worker_counts = (2,)
        repeat, bound_loops = 1, 3
    else:
        net_cfg = MetroConfig(width=24, height=24, seed=7)
        grids = (6, 8)
        worker_counts = (2, 4)
        repeat, bound_loops = 3, 10

    network = make_metro_network(net_cfg)
    print(
        f"network: {network.node_count} nodes, {network.edge_count} edges; "
        f"cpu_count={os.cpu_count()}"
    )

    results = []
    snap_tmp = tempfile.TemporaryDirectory(prefix="repro-bench-snap-")
    snap_dir = Path(snap_tmp.name)

    serial_by_grid: dict[int, float] = {}
    parallel_best: dict[int, float] = {}
    snapshot_speedups: list[float] = []
    for grid in grids:
        serial_s = time_construct(
            lambda: BoundaryNodeEstimator(network, grid, grid), repeat
        )
        serial_by_grid[grid] = serial_s
        results.append(
            {
                "name": f"precompute_array_serial_grid{grid}",
                "grid": grid,
                "seconds": serial_s,
            }
        )
        print(f"  grid {grid}x{grid}: serial {serial_s*1e3:8.1f} ms")
        for workers in worker_counts:
            par_s = time_construct(
                lambda: BoundaryNodeEstimator(
                    network, grid, grid, workers=workers
                ),
                repeat,
            )
            parallel_best[grid] = min(
                parallel_best.get(grid, float("inf")), par_s
            )
            results.append(
                {
                    "name": f"precompute_array_workers{workers}_grid{grid}",
                    "grid": grid,
                    "workers": workers,
                    "seconds": par_s,
                    "speedup_vs_serial": serial_s / par_s,
                }
            )
            print(
                f"    workers={workers}: {par_s*1e3:8.1f} ms "
                f"({serial_s/par_s:.2f}x vs serial)"
            )

        snap_path = snap_dir / f"bench_grid{grid}.est"
        BoundaryNodeEstimator(network, grid, grid).save_snapshot(snap_path)
        warm_s = time_construct(
            lambda: BoundaryNodeEstimator.from_snapshot(network, snap_path),
            repeat,
        )
        snapshot_speedups.append(serial_s / warm_s)
        results.append(
            {
                "name": f"snapshot_warm_construct_grid{grid}",
                "grid": grid,
                "seconds": warm_s,
                "speedup_vs_cold": serial_s / warm_s,
            }
        )
        print(
            f"    snapshot-warm construct: {warm_s*1e3:8.1f} ms "
            f"({serial_s/warm_s:.1f}x vs cold)"
        )

    # Cold vs snapshot-warm service boot (estimator build + AllFPService).
    boot_grid = grids[-1]
    boot_snap = snap_dir / f"bench_grid{boot_grid}.est"

    def boot(warm: bool) -> None:
        estimator = (
            BoundaryNodeEstimator.from_snapshot(network, boot_snap)
            if warm
            else BoundaryNodeEstimator(network, boot_grid, boot_grid)
        )
        AllFPService(network, estimator).close()

    boot_cold = time_construct(lambda: boot(False), repeat)
    boot_warm = time_construct(lambda: boot(True), repeat)
    results.append(
        {"name": "serve_boot_cold", "grid": boot_grid, "seconds": boot_cold}
    )
    results.append(
        {
            "name": "serve_boot_warm",
            "grid": boot_grid,
            "seconds": boot_warm,
            "speedup_vs_cold": boot_cold / boot_warm,
        }
    )
    print(
        f"  serve boot: cold {boot_cold*1e3:8.1f} ms  "
        f"warm {boot_warm*1e3:8.1f} ms ({boot_cold/boot_warm:.1f}x)"
    )

    # bound() hot-path microbenchmark.
    bound_grid = grids[-1]
    node_ids = list(network.node_ids())
    targets = node_ids[:: max(1, len(node_ids) // 8)][:8]
    array_est = BoundaryNodeEstimator(network, bound_grid, bound_grid)
    ns_array = bench_bound(array_est, node_ids, targets, bound_loops)
    results.append(
        {"name": "bound_array", "grid": bound_grid, "ns_per_call": ns_array}
    )
    print(f"  bound(): {ns_array:7.0f} ns/call")

    top_grid = grids[-1]
    meta = {
        "nodes": network.node_count,
        "edges": network.edge_count,
        "cpu_count": os.cpu_count() or 1,
        "grids": list(grids),
        "worker_counts": list(worker_counts),
        "speedup_parallel_vs_serial": serial_by_grid[top_grid]
        / parallel_best[top_grid],
        "speedup_snapshot_vs_cold": min(snapshot_speedups),
        "speedup_serve_boot_warm_vs_cold": boot_cold / boot_warm,
        "kernel_backend": kernel.active_backend(),
    }
    path = emit_bench_json(
        "precompute",
        results,
        scale="quick" if args.quick else "small",
        quick=args.quick,
        meta=meta,
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
