"""Property-based cross-checks of the array kernel.

Every kernel operator is verified on randomized piecewise-linear functions:

* against a **dense-sampling oracle** (the mathematical definition evaluated
  pointwise),
* for the boolean operators and envelope provenance, against the
  **definition evaluated at the union of the inputs' breakpoints** — exact,
  because the difference of two piecewise-linear functions is linear between
  consecutive union abscissae,
* on **degenerate inputs** — single-point domains and near-duplicate
  abscissae — that historically hide off-by-one sweeps.

Plus direct tests of the configuration surface: the MAX_BREAKPOINTS guard
(triggered through repeated composition) and the named continuity tolerance.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import FunctionShapeError
from repro.func import kernel
from repro.func.envelope import AnnotatedEnvelope
from repro.func.monotone import MonotonePiecewiseLinear
from repro.func.piecewise import (
    CONTINUITY_TOL,
    XTOL,
    YTOL,
    PiecewiseLinearFunction,
    pointwise_minimum,
)

LO, HI = 0.0, 10.0
#: Dense oracle grid over the shared domain.
GRID = [LO + i * (HI - LO) / 97 for i in range(98)]


def _union_xs(*fns: PiecewiseLinearFunction) -> list[float]:
    """Breakpoint abscissae of all inputs; points within XTOL are one point."""
    xs: list[float] = []
    for x in sorted(x for fn in fns for x, _ in fn.breakpoints):
        if not xs or x > xs[-1] + XTOL:
            xs.append(x)
    return xs


# ----------------------------------------------------------------------
# Strategies.
# ----------------------------------------------------------------------

_Y = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
# Interior abscissae include values snapped onto near-duplicate positions.
_X = st.floats(min_value=LO, max_value=HI, allow_nan=False)


@st.composite
def plf(draw) -> PiecewiseLinearFunction:
    """A random PLF on [LO, HI], occasionally with near-duplicate abscissae."""
    interior = draw(st.lists(_X, max_size=6))
    raw = [LO, *sorted(interior), HI]
    xs = [raw[0]]
    for x in raw[1:]:
        if x > xs[-1] + 2 * XTOL:
            xs.append(x)
    ys = [draw(_Y) for _ in xs]
    pts = list(zip(xs, ys))
    if draw(st.booleans()) and len(xs) > 2:
        # Shadow one interior point at distance ~XTOL/2 with a
        # continuity-compatible ordinate: dedupe territory.
        wiggle = draw(
            st.floats(min_value=-5e-7, max_value=5e-7, allow_nan=False)
        )
        pts.append((xs[1] + 4e-10, ys[1] + wiggle))
        pts.sort()
    return PiecewiseLinearFunction(pts)


@st.composite
def monotone(draw, lo: float = LO, hi: float = HI) -> MonotonePiecewiseLinear:
    """A strictly increasing PLF on [lo, hi] (invertible)."""
    interior = draw(st.lists(_X, max_size=6))
    span = hi - lo
    raw = sorted({lo, hi, *[lo + (x - LO) / (HI - LO) * span for x in interior]})
    xs = [raw[0]]
    for x in raw[1:]:
        if x > xs[-1] + XTOL:
            xs.append(x)
    deltas = [
        draw(st.floats(min_value=0.05, max_value=3.0, allow_nan=False))
        for _ in xs
    ]
    y = draw(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
    pts = []
    for x, d in zip(xs, deltas):
        pts.append((x, y))
        y += d
    return MonotonePiecewiseLinear(pts)


# ----------------------------------------------------------------------
# Binary operators: add / min / dominates.
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(plf(), plf())
def test_add_matches_oracle_and_legacy(a, b):
    fused = a + b
    for t in GRID:
        assert fused(t) == pytest.approx(a(t) + b(t), abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(plf(), plf())
def test_min_matches_oracle_and_legacy(a, b):
    fused = pointwise_minimum(a, b)
    for t in GRID:
        assert fused(t) == pytest.approx(min(a(t), b(t)), abs=1e-6)
    # min never exceeds either input anywhere (including crossing points).
    for x, y in fused.breakpoints:
        assert y <= a(x) + 1e-6
        assert y <= b(x) + 1e-6


@settings(max_examples=60, deadline=None)
@given(plf(), plf())
def test_dominates_matches_legacy(a, b):
    # ``a`` dominates ``b`` iff a(x) <= b(x) + tol at every union abscissa;
    # ``lt_somewhere`` is the strict negation with the roles swapped.
    worst = max(a(x) - b(x) for x in _union_xs(a, b))
    if abs(worst - YTOL) > 1e-12:  # off the rounding edge of the tolerance
        assert a.dominates(b) == (worst <= YTOL)
        assert kernel.lt_somewhere(b._xs, b._ys, a._xs, a._ys, YTOL) == (
            worst > YTOL
        )
    # Self-dominance always holds (the tie case).
    assert a.dominates(a)
    assert not kernel.lt_somewhere(a._xs, a._ys, a._xs, a._ys, YTOL)


# ----------------------------------------------------------------------
# Monotone operators: compose / inverse.
# ----------------------------------------------------------------------

@st.composite
def composable(draw) -> tuple[MonotonePiecewiseLinear, MonotonePiecewiseLinear]:
    """``(inner, outer)`` with the outer's domain covering the inner's range."""
    inner = draw(monotone())
    lo, hi = inner.value_range
    return inner, draw(monotone(lo - 1.0, hi + 1.0))


#: An outer breakpoint (0.95) whose preimage lands within XTOL *before* the
#: inner breakpoint at 1.28e-8, on a near-vertical inner segment.
_NEAR_VERTICAL = (
    MonotonePiecewiseLinear([(0.0, 0.0), (1.28e-8, 1.0), (1.0, 2.0), (HI, 3.0)]),
    MonotonePiecewiseLinear([(-1.0, 0.0), (0.95, 1.0), (4.0, 2.0)]),
)


@settings(max_examples=60, deadline=None)
@given(composable())
@example(_NEAR_VERTICAL)
def test_compose_matches_oracle_and_legacy(pair):
    inner, outer = pair
    fused = outer.compose(inner)
    assert fused.x_min == pytest.approx(inner.x_min)
    assert fused.x_max == pytest.approx(inner.x_max)
    for t in GRID:
        want = outer(min(max(inner(t), outer.x_min), outer.x_max))
        assert fused(t) == pytest.approx(want, abs=1e-6)


def test_compose_keeps_inner_breakpoint_next_to_outer_preimage():
    # The case ROADMAP item 2 (i) recorded: the preimage of the outer
    # breakpoint 0.95 is 1.216e-8, within XTOL of the inner breakpoint at
    # 1.28e-8; dropping the inner one bent the result by 1.1e-2 at t = 0.1.
    xs, ys = kernel.compose(
        [-1, 0.95, 5], [0, 1, 2], [0, 1.28e-8, 1, 2], [0, 1, 2, 3]
    )
    assert xs == [0, 1.28e-8, 1, 2]
    inner_at = kernel.eval_at([0, 1.28e-8, 1, 2], [0, 1, 2, 3], 0.1)
    want = kernel.eval_at([-1, 0.95, 5], [0, 1, 2], inner_at)
    assert kernel.eval_at(xs, ys, 0.1) == pytest.approx(want, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(monotone())
def test_inverse_roundtrip_and_legacy(f):
    fused = f.inverse()
    for t in GRID:
        assert fused(f(t)) == pytest.approx(t, abs=1e-6)


# ----------------------------------------------------------------------
# Reshaping: simplify / restrict.
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(plf())
def test_simplify_preserves_values(f):
    fused = f.simplify(1e-9)
    # Only interior breakpoints may go, and none of them may move the value.
    assert set(fused.breakpoints) <= set(f.breakpoints)
    assert fused.domain == f.domain
    for t in [*GRID, *(x for x, _ in f.breakpoints)]:
        assert fused(t) == pytest.approx(f(t), abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(plf(), st.floats(min_value=LO, max_value=HI), st.floats(min_value=LO, max_value=HI))
@example(
    PiecewiseLinearFunction([(0.0, 0.0), (1.19209e-07, 1.0), (10.0, 0.0)]),
    0.0,
    1e-09,
)
# A window at the right end: f(10) is the stored ordinate, not one
# interpolated on the last segment.
@example(PiecewiseLinearFunction([(0, 10), (10, 1.2605973132663495)]), 10.0, 10.0)
@example(PiecewiseLinearFunction([(0, 1), (10, 2.08782e-117)]), 10.0, 10.0)
def test_restrict_matches_legacy(f, p, q):
    lo, hi = min(p, q), max(p, q)
    fused = f.restrict(lo, hi)
    assert fused.x_min == lo
    assert fused.x_max == pytest.approx(hi, abs=XTOL)
    steps = 20
    ts = [lo + (hi - lo) * i / steps for i in range(steps + 1)]
    if hi - lo <= XTOL:
        # The kernel's resolution contract: a window no wider than XTOL is
        # the instant ``(lo, f(lo))``, and f drifts from it inside the window
        # by no more than its steepest slope times the distance from ``lo``.
        pts = f.breakpoints
        steepest = max(
            (abs((y1 - y0) / (x1 - x0)) for (x0, y0), (x1, y1) in zip(pts, pts[1:])),
            default=0.0,
        )
        for t in ts:
            assert fused(t) == f(lo)
            assert abs(f(t) - f(lo)) <= steepest * (t - lo) + 1e-12
        return
    for t in ts:
        assert fused(t) == pytest.approx(f(t), abs=1e-6)


# ----------------------------------------------------------------------
# Envelope fold.
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(plf(), min_size=1, max_size=5))
# Folds whose only change is at XTOL width: a non-improving fold must leave
# the envelope as it was, an improving one must leave the newcomer a piece.
@example(
    [
        PiecewiseLinearFunction([(0, 0), (1, 9), (10, 0)]),
        PiecewiseLinearFunction([(0, 0), (2.8125, 0), (10, 1e-9)]),
        PiecewiseLinearFunction([(0, 0), (10, 0)]),
    ]
)
@example(
    [
        PiecewiseLinearFunction([(0, 0), (9.25, 0), (10, 1e-9)]),
        PiecewiseLinearFunction([(0, 0), (4, 7), (10, 0)]),
    ]
)
# A later fold must not snap away the first-piece sliver a crossing left
# at lo: f1's steep line extended over it would read 7.3125 at 0.
@example(
    [
        PiecewiseLinearFunction([(0, 7.28125), (10, 0)]),
        PiecewiseLinearFunction(
            [(0, 7.3125), (1.19209e-07, 0), (1, 0), (1.5, 0), (2, 0), (10, 1)]
        ),
        PiecewiseLinearFunction([(0, 8), (1, 0), (10, 0)]),
    ]
)
# A near-vertical newcomer that crosses the incumbent within XTOL of lo
# leaves a first piece narrower than XTOL whose ends differ by far more
# than CONTINUITY_TOL; as a function it must stay continuous.
@example(
    [
        PiecewiseLinearFunction([(0, -5), (10, 0)]),
        PiecewiseLinearFunction([(0, -6), (3.22277e-09, 0), (1, 0), (10, 0)]),
        PiecewiseLinearFunction([(0, 0), (10, 0)]),
    ]
)
@example(
    [
        PiecewiseLinearFunction([(0, 0), (10, 0)]),
        PiecewiseLinearFunction(
            [(0, -0.015625), (5.96046e-08, 1), (1, 0), (1.25, 0), (1.5, 0),
             (2, 0), (10, 0)]
        ),
        PiecewiseLinearFunction([(0, 0), (10, 0)]),
    ]
)
def test_envelope_fold_matches_oracle_and_legacy(fns):
    env = AnnotatedEnvelope(LO, HI)
    for k, fn in enumerate(fns):
        before = None if env.is_empty else env.as_function()
        improved = env.add(fn, tag=k)
        if before is None:
            # The first fold always improves an empty envelope.
            assert improved is True
        elif improved:
            # The newcomer owns a piece, so it was strictly lower somewhere.
            assert k in env.tags()
        else:
            # Nowhere strictly lower: the envelope is untouched ...
            assert k not in env.tags()
            assert env.as_function().breakpoints == before.breakpoints
            # ... and the dense oracle agrees the newcomer never won.
            assert all(fn(t) >= before(t) - 1e-6 for t in GRID)
    for t in GRID:
        # The envelope dedupes abscissae within XTOL, so a crossing sliver
        # narrower than XTOL may legitimately be snapped away.  On functions
        # with near-vertical segments that snap moves the value by
        # slope * XTOL, so the oracle is checked as an interval: the fold's
        # value must fall between the true minimum's extremes over an
        # XTOL-wide neighbourhood of t.
        nbhd = [t, max(LO, t - 2e-9), min(HI, t + 2e-9)]
        want_lo = min(fn(s) for fn in fns for s in nbhd)
        want_hi = min(max(fn(s) for s in nbhd) for fn in fns)
        assert want_lo - 1e-6 <= env.value_at(t) <= want_hi + 1e-6
        # Provenance: the piece's owner attains that minimum there.
        owner = fns[env.tag_at(t)]
        assert min(owner(s) for s in nbhd) <= want_hi + 1e-6


def test_envelope_fold_instant_domain():
    env = AnnotatedEnvelope(5.0, 5.0)
    assert env.add(PiecewiseLinearFunction([(5.0, 3.0)]), tag="a")
    assert not env.add(PiecewiseLinearFunction([(5.0, 3.0)]), tag="b")
    assert env.add(PiecewiseLinearFunction([(5.0, 1.0)]), tag="c")
    assert env.tag_at(5.0) == "c"
    assert env.value_at(5.0) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Degenerate single-point domains.
# ----------------------------------------------------------------------

def test_single_point_add_and_min():
    a = PiecewiseLinearFunction([(5.0, 2.0)])
    b = PiecewiseLinearFunction([(5.0, 7.0)])
    assert (a + b)(5.0) == pytest.approx(9.0)
    assert pointwise_minimum(a, b)(5.0) == pytest.approx(2.0)
    assert a.dominates(b)
    assert not b.dominates(a)


def test_single_point_compose():
    inner = MonotonePiecewiseLinear([(5.0, 3.0)])
    outer = MonotonePiecewiseLinear([(2.0, 0.0), (4.0, 8.0)])
    out = outer.compose(inner)
    assert out(5.0) == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Guard and configuration surface.
# ----------------------------------------------------------------------

def test_max_breakpoints_guard_via_repeated_composition():
    """Repeated composition fattens a function until the guard trips."""
    n = 60
    step = (HI - LO) / (n - 1)
    pts = []
    y = 0.0
    for i in range(n):
        pts.append((LO + i * step, y))
        y += 0.11 if i % 2 == 0 else 0.25
    f = MonotonePiecewiseLinear(pts)
    # An identity-like outer spanning f's range, equally fat.
    lo, hi = f.value_range
    ostep = (hi - lo) / (n - 1)
    outer = MonotonePiecewiseLinear(
        [(lo + i * ostep, lo + i * ostep) for i in range(n)]
    )
    previous = kernel.set_max_breakpoints(100)
    try:
        with pytest.raises(FunctionShapeError, match="MAX_BREAKPOINTS"):
            g = f
            for _ in range(50):
                g = outer.compose(g)  # breakpoints accumulate each round
    finally:
        kernel.set_max_breakpoints(previous)


def test_set_max_breakpoints_validates():
    with pytest.raises(ValueError):
        kernel.set_max_breakpoints(1)
    previous = kernel.set_max_breakpoints(500)
    assert kernel.get_max_breakpoints() == 500
    assert kernel.set_max_breakpoints(previous) == 500


def test_counters_delta():
    snap = kernel.COUNTERS.snapshot()
    up = PiecewiseLinearFunction([(0.0, 1.0), (1.0, 2.0)])
    down = PiecewiseLinearFunction([(0.0, 1.0), (1.0, 0.0)])
    up + down
    bp, _merges = kernel.COUNTERS.delta(snap)
    assert bp >= 2


def test_continuity_tolerance_is_named_and_consistent():
    """Satellite fix: the dedupe tolerance is one named constant (1e-6)."""
    assert CONTINUITY_TOL == 1e-6
    # Just-inside the tolerance: duplicate abscissae merge fine.
    f = PiecewiseLinearFunction(
        [(0.0, 1.0), (5.0, 2.0), (5.0 + 1e-10, 2.0 + 5e-7), (10.0, 3.0)]
    )
    assert len(f.breakpoints) == 3
    # Beyond it: a genuine discontinuity is rejected.
    with pytest.raises(Exception):
        PiecewiseLinearFunction(
            [(0.0, 1.0), (5.0, 2.0), (5.0 + 1e-10, 2.1), (10.0, 3.0)]
        )
