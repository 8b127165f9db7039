#!/usr/bin/env python3
"""End-to-end benchmark: HTTP to kernel, four pinned workloads.

    python3 benchmarks/e2e/run.py --workload paper14k_unique --seed 1
    python3 benchmarks/e2e/run.py --all --quick
    python3 benchmarks/e2e/run.py --workload metro576_live --seed 1 --trace 1

Prints every metric by name with its unit, then — as the last line of
standard output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Exits non-zero, without that line, when it
cannot run, and with it (``"correct": false``) on any wrong answer.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

if not (ROOT / "src" / "repro" / "cli.py").is_file():
    sys.exit(f"run.py: {ROOT}/src/repro is missing — nothing to benchmark")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from catalogue import END_TO_END, LAYER_NAMES, LAYERS, UNITS  # noqa: E402
from ladder import run_ladder  # noqa: E402
from loadgen import adopt_orphans, reap_children  # noqa: E402
from session import cheap_layers, end_to_end, run_session  # noqa: E402
from streams import BY_NAME, WORKLOADS  # noqa: E402

RUN_SECONDS = 15


def contract() -> dict:
    """``BENCHMARK.json`` as this directory defines it (``--contract``
    prints it; the harness test holds the committed file to it)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYERS
        ],
    }


def fingerprint() -> dict:
    """What the numbers were measured on."""
    from repro.func import kernel

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            ref = target.read_text().strip() if target.is_file() else ref
        commit = ref[:12]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_backend": kernel.active_backend(),
        "commit": commit,
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One run; returns the result object of the last output line."""
    workload = BY_NAME[name]
    session = run_session(
        ROOT, OUT, workload, seed, seconds, quick=quick, single_boot=trace
    )
    metrics = end_to_end(session)
    layers = cheap_layers(session)
    correct = session.failed == 0
    if trace:
        traced, problems = run_ladder(ROOT, OUT, workload, seed, quick)
        layers.update(traced)
        session.problems.extend(problems)
        correct = correct and not problems

    print(f"== {name} seed={seed} {'quick ' if quick else ''}{json.dumps(fingerprint())}")
    for phase, counts in session.phases.items():
        print(
            f"   {phase}: attempted {counts.attempted}, "
            f"succeeded {counts.attempted - counts.failed}, failed {counts.failed}"
        )
    for text in session.problems:
        print(f"   PROBLEM {text}")
    for key, value in {**metrics, **layers}.items():
        print(f"   {key:32s} {value:14.4f} {UNITS[key]}")

    if trace:
        missing = [n for n in LAYER_NAMES if n not in layers]
        if missing:
            raise RuntimeError(f"traced run did not produce {missing}")
        reported = {n: layers[n] for n in LAYER_NAMES}
    else:
        reported = {m.name: metrics[m.name] for m in END_TO_END}
    return {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            key: {"value": value, "unit": UNITS[key]} for key, value in reported.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    which.add_argument("--all", action="store_true", help="every workload in turn")
    which.add_argument("--contract", action="store_true", help="print BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS,
        help="time box of the measured passes (at least 2 always run)",
    )
    parser.add_argument(
        "--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1),
        help="1: add the in-process traced ladder and report per-layer metrics",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="N=24, K=2, one set-up, small stand-in networks: a smoke run",
    )
    args = parser.parse_args(argv)
    if args.contract:
        print(json.dumps(contract(), indent=2))
        return 0

    names = [w.name for w in WORKLOADS] if args.all else [args.workload]
    results = {}
    # No process may outlive a run: orphans of a stopped server come back
    # to this process, a SIGTERM unwinds like an exception, and whatever
    # is left on any way out is killed and waited for.
    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        for name in names:
            results[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.quick
            )
    finally:
        reap_children()
    last = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{key}": value
            for name, r in results.items()
            for key, value in r["metrics"].items()
        },
    }
    print(json.dumps(last))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
