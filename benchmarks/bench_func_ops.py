"""Micro-benchmarks of the function-algebra primitives.

Every IntAllFastestPaths expansion performs one monotone composition, one
dominance check and possibly one envelope fold, so these primitives bound
the engine's per-expansion cost.  Tracked here so regressions in the
algebra show up independently of workload effects.

Two entry points:

* pytest-benchmark classes (``pytest benchmarks/bench_func_ops.py``) for
  statistical timing,
* a standalone ``main()`` (``python benchmarks/bench_func_ops.py [--quick]``)
  that times the same operations and writes ``BENCH_func_ops.json`` at the
  repo root via :mod:`emit_json`.
"""

from __future__ import annotations

if __name__ == "__main__":
    # Allow `python benchmarks/bench_func_ops.py` without PYTHONPATH=src.
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import time

import pytest

from repro.core.dominance import DominanceStore
from repro.func.envelope import AnnotatedEnvelope
from repro.func.monotone import MonotonePiecewiseLinear
from repro.func.piecewise import PiecewiseLinearFunction, pointwise_minimum
from repro.patterns.categories import Calendar
from repro.patterns.speed import CapeCodPattern, DailySpeedPattern
from repro.patterns.travel_time import edge_arrival_function


def _sawtooth(lo: float, hi: float, pieces: int, base: float) -> list[tuple[float, float]]:
    step = (hi - lo) / pieces
    return [
        (lo + i * step, base + (i % 3) * 0.7 + i * 0.01)
        for i in range(pieces + 1)
    ]


@pytest.fixture(scope="module")
def monotone_pair():
    inner = MonotonePiecewiseLinear(
        [(x, x + 5.0 + (i % 4) * 0.2) for i, x in enumerate(range(0, 200, 10))]
    )
    lo, hi = inner.value_range
    outer = MonotonePiecewiseLinear(
        [
            (lo - 1 + i * (hi - lo + 2) / 20, lo - 1 + i * (hi - lo + 2) / 18)
            for i in range(21)
        ]
    )
    return outer, inner


class TestComposition:
    def test_compose(self, benchmark, monotone_pair):
        outer, inner = monotone_pair
        result = benchmark(lambda: outer.compose(inner))
        assert result.x_min == inner.x_min

    def test_inverse(self, benchmark, monotone_pair):
        outer, _ = monotone_pair
        result = benchmark(outer.inverse)
        assert result is not None


class TestEnvelope:
    def test_envelope_fold_20_functions(self, benchmark):
        fns = [
            PiecewiseLinearFunction(_sawtooth(0.0, 100.0, 12, 5.0 + k * 0.1))
            for k in range(20)
        ]

        def fold():
            env = AnnotatedEnvelope(0.0, 100.0)
            for k, fn in enumerate(fns):
                env.add(fn, tag=k)
            return env

        env = benchmark(fold)
        assert not env.is_empty

    def test_pointwise_minimum(self, benchmark):
        a = PiecewiseLinearFunction(_sawtooth(0.0, 100.0, 15, 5.0))
        b = PiecewiseLinearFunction(_sawtooth(0.0, 100.0, 11, 5.3))
        result = benchmark(lambda: pointwise_minimum(a, b))
        assert result.min_value() <= a.min_value()


class TestDominance:
    def test_dominance_check(self, benchmark):
        store = DominanceStore(0.0, 100.0)
        for k in range(8):
            store.add(
                1,
                MonotonePiecewiseLinear(
                    [(x, x + 6.0 + k * 0.05 + (x % 17) * 0.01) for x in range(0, 101, 5)]
                ),
            )
        probe = MonotonePiecewiseLinear(
            [(x, x + 6.2) for x in range(0, 101, 10)]
        )
        result = benchmark(lambda: store.is_dominated(1, probe))
        assert isinstance(result, bool)


class TestEdgeFunctions:
    def test_edge_arrival_function_build(self, benchmark):
        cal = Calendar.single_category("d")
        pattern = CapeCodPattern(
            {
                "d": DailySpeedPattern(
                    [(0.0, 1.0), (420.0, 0.33), (540.0, 1.0), (960.0, 0.5), (1140.0, 1.0)]
                )
            }
        )
        result = benchmark(
            lambda: edge_arrival_function(3.0, pattern, cal, 360.0, 720.0)
        )
        assert result.x_min <= 360.0


# ----------------------------------------------------------------------
# Standalone mode: write BENCH_func_ops.json at the repo root.
# ----------------------------------------------------------------------

#: Breakpoint counts the standalone sweep reports — per-op cost scaling
#: with function size, not one opaque default.
SIZES = (8, 32, 128)


def _standalone_ops(n: int) -> dict:
    """The pytest-class operations as plain callables at ``n`` breakpoints."""
    inner = MonotonePiecewiseLinear(
        [
            (i * 200.0 / (n - 1), i * 200.0 / (n - 1) + 5.0 + (i % 4) * 0.2)
            for i in range(n)
        ]
    )
    lo, hi = inner.value_range
    outer = MonotonePiecewiseLinear(
        [
            (
                lo - 1 + i * (hi - lo + 2) / (n - 1),
                lo - 1 + i * (hi - lo + 2) / (n - 1) * 0.9,
            )
            for i in range(n)
        ]
    )
    env_fns = [
        PiecewiseLinearFunction(_sawtooth(0.0, 100.0, n - 1, 5.0 + k * 0.1))
        for k in range(20)
    ]

    def fold():
        env = AnnotatedEnvelope(0.0, 100.0)
        for k, fn in enumerate(env_fns):
            env.add(fn, tag=k)
        return env

    a = PiecewiseLinearFunction(_sawtooth(0.0, 100.0, n - 1, 5.0))
    b = PiecewiseLinearFunction(
        _sawtooth(0.0, 100.0, max(2, n - 5), 5.3)
    )
    store = DominanceStore(0.0, 100.0)
    for k in range(8):
        store.add(
            1,
            MonotonePiecewiseLinear(
                [
                    (
                        i * 100.0 / (n - 1),
                        i * 100.0 / (n - 1)
                        + 6.0
                        + k * 0.05
                        + (i % 17) * 0.01,
                    )
                    for i in range(n)
                ]
            ),
        )
    probe = MonotonePiecewiseLinear(
        [(i * 100.0 / (n - 1), i * 100.0 / (n - 1) + 6.2) for i in range(n)]
    )
    return {
        "compose": lambda: outer.compose(inner),
        "inverse": outer.inverse,
        "envelope_fold_20": fold,
        "pointwise_minimum": lambda: pointwise_minimum(a, b),
        "dominance_check": lambda: store.is_dominated(1, probe),
    }


def _edge_arrival_op():
    """Edge-function build: pattern-driven, so sized by the pattern alone."""
    cal = Calendar.single_category("d")
    pattern = CapeCodPattern(
        {
            "d": DailySpeedPattern(
                [
                    (0.0, 1.0),
                    (420.0, 0.33),
                    (540.0, 1.0),
                    (960.0, 0.5),
                    (1140.0, 1.0),
                ]
            )
        }
    )
    return lambda: edge_arrival_function(3.0, pattern, cal, 360.0, 720.0)


def time_op(fn, reps: int) -> float:
    """Best-of-3 mean ns per call."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best * 1e9


def main(argv: list | None = None) -> int:
    import argparse
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from emit_json import emit_bench_json

    from repro.func import kernel

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="few reps")
    args = parser.parse_args(argv)
    reps = 20 if args.quick else 300

    rows = []
    for n in SIZES:
        for name, op in _standalone_ops(n).items():
            ns = time_op(op, reps)
            rows.append(
                {"name": f"{name}/n{n}", "breakpoints": n, "ns_per_op": round(ns, 1)}
            )
            print(f"{name + '/n' + str(n):<26} {ns:>12.0f} ns/op")
    ns = time_op(_edge_arrival_op(), reps)
    rows.append({"name": "edge_arrival_build", "ns_per_op": round(ns, 1)})
    print(f"{'edge_arrival_build':<26} {ns:>12.0f} ns/op")
    path = emit_bench_json(
        "func_ops",
        rows,
        quick=args.quick,
        meta={
            "sizes": list(SIZES),
            "kernel_backend": kernel.active_backend(),
        },
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
