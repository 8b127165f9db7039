"""Metro-scale overlay benchmark — writes ``BENCH_overlay.json``.

Exercises the whole metro pipeline on one generated network: stream the
OSM-flavoured text through the importer, build a multi-level overlay,
answer allFP queries with the flat engine and the overlay engine
side-by-side, then persist a v2 snapshot and boot a warm service from the
``mmap``-ed overlay section.

Three guarantees are checked while measuring:

* **correctness** — overlay travel times equal the flat engine's at every
  sampled instant of every pair (1e-6), including the answer served from
  the mmapped snapshot;
* **speed** — in full mode the aggregate overlay-vs-flat query speedup
  across all pairs must reach 3x (quick mode sizes the network far too
  small for the hierarchy to pay off and records the numbers honestly
  without the gate);
* **warm boot** — mapping the overlay back from the snapshot must cost a
  small fraction of building it.

Usage::

    PYTHONPATH=src python benchmarks/bench_overlay.py [--quick]
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

from repro.core.engine import IntAllFastestPaths
from repro.estimators import snapshot as snap
from repro.estimators.boundary import BoundaryNodeEstimator
from repro.estimators.naive import NaiveEstimator
from repro.func import kernel
from repro.hierarchy import MultiLevelOverlay, OverlayEngine
from repro.network.generator import MetroConfig, emit_metro_lines
from repro.network.importer import parse_lines
from repro.timeutil import TimeInterval
from repro.workloads.queries import morning_rush_interval

#: Fixed far/mid/near query mix on the full-size 145x140 network; quick
#: mode swaps in corners of its 12x12 grid.
FULL_PAIRS = [(0, 20299), (100, 20100), (5, 11000), (7000, 14500)]
QUICK_PAIRS = [(0, 143), (5, 100)]


def measure_pairs(network, overlay, pairs, interval, reps):
    """Flat vs overlay timings (best of ``reps``, shared warm engines)."""
    flat = IntAllFastestPaths(network, NaiveEstimator(network))
    fast = OverlayEngine(overlay, NaiveEstimator(network))
    rows = []
    answers_checked = 0
    worst_diff = 0.0
    total_flat = total_overlay = 0.0
    for source, target in pairs:
        best_flat = best_overlay = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            r_flat = flat.all_fastest_paths(source, target, interval)
            best_flat = min(best_flat, time.perf_counter() - t0)
            t0 = time.perf_counter()
            r_overlay = fast.all_fastest_paths(source, target, interval)
            best_overlay = min(best_overlay, time.perf_counter() - t0)
        for instant in interval.sample(25):
            diff = abs(
                r_overlay.travel_time_at(instant)
                - r_flat.travel_time_at(instant)
            )
            worst_diff = max(worst_diff, diff)
            if diff > 1e-6:
                raise SystemExit(
                    f"PARITY FAILURE {source}->{target} at t={instant}: "
                    f"overlay differs from flat by {diff}"
                )
            answers_checked += 1
        rows.append(
            {
                "name": f"allfp_{source}_{target}",
                "flat_ms": best_flat * 1e3,
                "overlay_ms": best_overlay * 1e3,
                "speedup": best_flat / best_overlay,
                "labels_flat": r_flat.stats.labels_generated,
                "labels_overlay": r_overlay.stats.labels_generated,
            }
        )
        total_flat += best_flat
        total_overlay += best_overlay
        print(
            f"  allfp {source}->{target}: flat {best_flat * 1e3:7.0f} ms  "
            f"overlay {best_overlay * 1e3:6.0f} ms  "
            f"speedup {best_flat / best_overlay:.2f}x"
        )
    return rows, total_flat / total_overlay, answers_checked, worst_diff


def snapshot_roundtrip(network, overlay, estimator_grid, pair, interval):
    """Persist a v2 snapshot, map it back, serve one warm allFP query."""
    from repro.serve import AllFPService, QueryRequest, ServiceConfig

    estimator = BoundaryNodeEstimator(
        network, estimator_grid, estimator_grid
    )
    t0 = time.perf_counter()
    estimator.precompute()
    tables_seconds = time.perf_counter() - t0
    if estimator.tables is None:
        raise SystemExit("overlay snapshots require the array backend")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "overlay.snap"
        t0 = time.perf_counter()
        snap.save_tables(
            estimator.tables,
            path,
            snap.network_fingerprint(network),
            overlay=overlay,
        )
        save_seconds = time.perf_counter() - t0
        size = path.stat().st_size
        t0 = time.perf_counter()
        mapped = snap.map_overlay(path, network)
        map_seconds = time.perf_counter() - t0

        config = ServiceConfig(
            coalesce=False, cache_results=False
        )
        service = AllFPService(network, config=config, overlay=mapped)
        try:
            request = QueryRequest(pair[0], pair[1], interval)
            t0 = time.perf_counter()
            served = service.query(request).result
            serve_seconds = time.perf_counter() - t0
        finally:
            service.close()
    flat = IntAllFastestPaths(network, NaiveEstimator(network)).all_fastest_paths(
        pair[0], pair[1], interval
    )
    for instant in interval.sample(9):
        if abs(
            served.travel_time_at(instant) - flat.travel_time_at(instant)
        ) > 1e-6:
            raise SystemExit(
                f"PARITY FAILURE: warm-served answer at t={instant} "
                "differs from the flat engine"
            )
    return {
        "tables_seconds": tables_seconds,
        "save_seconds": save_seconds,
        "map_seconds": map_seconds,
        "snapshot_bytes": size,
        "warm_query_ms": serve_seconds * 1e3,
        "served_entries": len(served.entries),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke sizing")
    args = parser.parse_args(argv)

    if args.quick:
        net_cfg = MetroConfig(width=12, height=12, seed=9)
        pairs = QUICK_PAIRS
        levels, nx, reps = 2, 6, 1
        estimator_grid = 4
    else:
        net_cfg = MetroConfig(
            width=145, height=140, spacing=0.125, vertical_keep=0.17, seed=0
        )
        pairs = FULL_PAIRS
        levels, nx, reps = 2, 14, 2
        estimator_grid = 3

    horizon = TimeInterval(0.0, 1440.0)
    interval = morning_rush_interval(2.0)

    t0 = time.perf_counter()
    network, import_stats = parse_lines(emit_metro_lines(net_cfg))
    import_seconds = time.perf_counter() - t0
    print(
        f"import: {network.node_count} nodes, {network.edge_count} edges "
        f"in {import_seconds:.1f}s ({import_stats.ways} ways)"
    )

    t0 = time.perf_counter()
    overlay = MultiLevelOverlay.build(
        network, levels=levels, nx=nx, horizon=horizon
    )
    build_seconds = time.perf_counter() - t0
    shortcuts = sum(lv.shortcut_count for lv in overlay.levels)
    print(
        f"overlay: {levels} level(s), grid {nx}, {shortcuts} shortcuts "
        f"in {build_seconds:.1f}s"
    )

    rows, aggregate, answers_checked, worst_diff = measure_pairs(
        network, overlay, pairs, interval, reps
    )
    print(
        f"aggregate overlay-vs-flat speedup {aggregate:.2f}x "
        f"({answers_checked} answers checked, worst diff {worst_diff:.2e})"
    )
    if not args.quick and aggregate < 3.0:
        print(
            f"SPEEDUP FAILURE: aggregate overlay speedup {aggregate:.2f}x "
            "is below the 3x gate",
            file=sys.stderr,
        )
        return 1

    roundtrip = snapshot_roundtrip(
        network, overlay, estimator_grid, pairs[0], interval
    )
    print(
        f"snapshot: {roundtrip['snapshot_bytes']} bytes, save "
        f"{roundtrip['save_seconds'] * 1e3:.0f} ms, mmap "
        f"{roundtrip['map_seconds'] * 1e3:.1f} ms, warm serve query "
        f"{roundtrip['warm_query_ms']:.0f} ms"
    )

    results = [
        {"name": "import", "seconds": import_seconds},
        {"name": "overlay_build", "seconds": build_seconds},
        *rows,
        {"name": "snapshot_save", "seconds": roundtrip["save_seconds"]},
        {"name": "overlay_mmap_load", "seconds": roundtrip["map_seconds"]},
        {"name": "warm_serve_query", "ms": roundtrip["warm_query_ms"]},
    ]
    path = emit_bench_json(
        "overlay",
        results,
        scale="quick" if args.quick else "metro",
        quick=args.quick,
        meta={
            "nodes": network.node_count,
            "edges": network.edge_count,
            "levels": levels,
            "overlay_grid": nx,
            "shortcuts": shortcuts,
            "horizon_minutes": horizon.end - horizon.start,
            "interval": [interval.start, interval.end],
            "pairs": len(pairs),
            "answers_checked": answers_checked,
            "parity_max_abs_diff": worst_diff,
            "speedup_overlay_vs_flat": aggregate,
            "min_pair_speedup": min(r["speedup"] for r in rows),
            "build_seconds": build_seconds,
            "snapshot_bytes": roundtrip["snapshot_bytes"],
            "warm_query_ms": roundtrip["warm_query_ms"],
            "cpu_count": os.cpu_count() or 1,
            "kernel_backend": kernel.active_backend(),
        },
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
