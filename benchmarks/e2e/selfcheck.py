#!/usr/bin/env python3
"""A/A test of the benchmark: the same code measured twice must agree.

    python3 benchmarks/e2e/selfcheck.py [--runs 3] [--seed 1] [--quick]

Runs two sets of ``--runs`` runs per workload through ``run.py`` — the
same seeds in both sets; workloads alternate and so do the sets (A B, then
B A), so that both see the same stretch of machine weather — and prints,
per end-to-end metric, both medians, their gap and the bound, plus each
set's quartile spread once there are four runs to take quartiles of.  One
traced run per set and workload adds the counts only the ladder sees.
Exits non-zero when a gap (or, setup_s aside, a spread) exceeds its bound
or a per-request count differs between two runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE))

from arith import quartile_spread, worse_by  # noqa: E402
from catalogue import END_TO_END  # noqa: E402
from streams import WORKLOADS  # noqa: E402

#: Pure functions of the stream: they must repeat exactly for one seed.
COUNTS = (
    "core.labels_generated", "core.expanded_paths", "core.pruned_dominated",
    "core.max_queue_size", "estimators.bound_evaluations",
    "func.breakpoints_allocated", "func.envelope_merges", "serve.engine_runs",
    "core.answer_byte_drift",
)
TRACED_COUNTS = ("hierarchy.cells_recomputed", "func.calls")
_LINE = re.compile(r"^\s+([a-z][\w.]+)\s+(-?[\d.]+(?:e[-+]?\d+)?)\s+\S+$")


def one_run(workload: str, seed: int, seconds: int, trace: bool, quick: bool) -> dict:
    """Every metric ``run.py`` printed, by name; raises when it failed."""
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if quick:
        argv.append("--quick")
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"run.py {workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    if not json.loads(lines[-1])["correct"]:
        raise RuntimeError(f"run.py {workload} seed {seed} reported wrong answers")
    return {m.group(1): float(m.group(2)) for m in map(_LINE.match, lines) if m}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per set and workload")
    parser.add_argument("--seed", type=int, default=1, help="first seed of each set")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    args = parser.parse_args()
    if args.runs < 3:
        parser.error("--runs must be at least 3")

    names = [w.name for w in WORKLOADS]
    sets: list[dict[str, list[dict]]] = [{n: [] for n in names} for _ in range(2)]
    traced: list[dict[str, dict]] = [{}, {}]
    for i in range(args.runs):
        for name in names:
            for which in ((0, 1), (1, 0))[i % 2]:
                print(f"set {'AB'[which]} run {i + 1}/{args.runs} {name}", flush=True)
                sets[which][name].append(
                    one_run(name, args.seed + i, args.seconds, False, args.quick)
                )
    for name in names if not args.no_trace else ():
        for which in range(2):
            print(f"set {'AB'[which]} traced {name}", flush=True)
            traced[which][name] = one_run(name, args.seed, args.seconds, True, args.quick)

    failures = 0
    for name in names:
        print(f"\n{name}")
        print(
            f"  {'metric':18s} {'median A':>12s} {'median B':>12s} {'gap':>8s} "
            f"{'bound':>7s} {'spread A':>9s} {'spread B':>9s}"
        )
        for metric in END_TO_END:
            values = [[run[metric.name] for run in sets[w][name]] for w in range(2)]
            a, b = (statistics.median(v) for v in values)
            gap = max(worse_by(a, b, metric.better), worse_by(b, a, metric.better))
            spreads = [quartile_spread(v) if args.runs >= 4 else 0.0 for v in values]
            steady = metric.name == "setup_s" or max(spreads) <= metric.bound
            verdict = "ok" if gap <= metric.bound and steady else "EXCEEDS"
            failures += verdict != "ok"
            print(
                f"  {metric.name:18s} {a:12.4f} {b:12.4f} {gap:8.2%} "
                f"{metric.bound:7.0%} {spreads[0]:9.2%} {spreads[1]:9.2%}  {verdict}"
            )
        pairs = [
            (f"seed {args.seed + i}", COUNTS, sets[0][name][i], sets[1][name][i])
            for i in range(args.runs)
        ]
        if not args.no_trace:
            pairs.append(("traced", TRACED_COUNTS, traced[0][name], traced[1][name]))
        for label, counts, a, b in pairs:
            for count in counts:
                if a[count] != b[count]:
                    failures += 1
                    print(f"  COUNT DIFFERS {label} {count}: {a[count]} vs {b[count]}")
        print(f"  counts repeat exactly: {len(pairs)} pairs of runs compared")
    print(f"\nselfcheck: {'PASS' if not failures else f'{failures} FAILURE(S)'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
