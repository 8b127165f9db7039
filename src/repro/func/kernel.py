"""Flat-array kernel for piecewise-linear function arithmetic.

Every inner-loop operation of IntAllFastestPaths — edge-function composition,
ranking-function addition, lower-envelope/border maintenance — reduces to a
handful of primitives over breakpoint sequences.  This module is the one
implementation of that algebra: **fused single-pass merge-sweeps** that walk
both inputs once with two pointers (``O(n + m)``), allocate exactly one
output array pair, and never build intermediate function objects.

Representation
--------------
A function is two parallel sequences ``xs`` / ``ys`` (any indexable float
sequence; the classes store tuples, the kernel returns plain lists).  The
invariants are the same as :class:`~repro.func.piecewise.PiecewiseLinearFunction`:
``xs`` strictly increasing beyond :data:`XTOL`, linear interpolation between
breakpoints, closed domain ``[xs[0], xs[-1]]``.

Resolution
----------
Abscissae within :data:`XTOL` of each other are one instant: a segment no
wider than ``XTOL`` evaluates to its left ordinate (:func:`eval_at`,
:class:`~repro.func.piecewise.PiecewiseLinearFunction`), and a restriction
to a window no wider than ``XTOL`` is the single point ``(lo, f(lo))``
(:func:`restrict`).  Inside such a window ``f`` differs from that point by
at most ``max|slope(f)| · XTOL``; an arrival function built from speed
patterns has slope at most max speed / min speed, so the error stays a few
``XTOL``.

The classes in :mod:`repro.func.piecewise` / :mod:`repro.func.monotone` /
:mod:`repro.func.envelope` remain the public API — they are thin views over
this kernel, and the engines call it directly on raw arrays where no object
is needed.  Every caller resolves operators as module attributes
(``kernel.<op>(...)``), so a tracer can time them by rebinding the
attribute (``benchmarks/e2e/ladder.py`` does).

Guard rails
-----------
Operations that would produce more than :func:`get_max_breakpoints`
breakpoints raise :class:`~repro.exceptions.FunctionShapeError` instead of
silently degrading into an ever-fatter function (configurable via
:func:`set_max_breakpoints`; the CLI applies :envvar:`REPRO_MAX_BREAKPOINTS`
through :func:`configure_from_env` when it starts).

Counters
--------
:data:`COUNTERS` tallies kernel work (breakpoints allocated, envelope merges)
so :class:`~repro.core.results.SearchStats` can report per-query totals.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from typing import Hashable, Sequence

from ..exceptions import FunctionShapeError, NotMonotoneError

#: Tolerance for comparing abscissae (times, in minutes).  The one
#: definition; :mod:`repro.func.piecewise` re-exports it.
XTOL = 1e-9
#: Tolerance for comparing ordinates (travel times, in minutes).
YTOL = 1e-9
#: Tolerance for deciding that two breakpoints sharing (nearly) the same
#: abscissa describe the *same* point rather than a jump discontinuity.
#: Deliberately looser than :data:`YTOL`: merged breakpoints come from
#: independently-computed operations whose values agree only up to
#: accumulated rounding, whereas YTOL compares values produced by one
#: computation.  :mod:`repro.func.piecewise` re-exports it.
CONTINUITY_TOL = 1e-6

# ----------------------------------------------------------------------
# Configuration: breakpoint-count guard.
# ----------------------------------------------------------------------

#: Default ceiling on the breakpoint count of any kernel-produced function.
DEFAULT_MAX_BREAKPOINTS = 100_000

_max_breakpoints = DEFAULT_MAX_BREAKPOINTS


def active_backend() -> str:
    """Name of the function algebra answering queries: always ``array``.

    Recorded in :class:`~repro.core.results.SearchStats` and on every
    ``/metrics`` sample, so stored results stay comparable with the ones
    written when other backends existed.
    """
    return "array"


def get_max_breakpoints() -> int:
    """The current ceiling on per-function breakpoint counts."""
    return _max_breakpoints


def set_max_breakpoints(limit: int) -> int:
    """Set the breakpoint ceiling; returns the previous value."""
    global _max_breakpoints
    if limit < 2:
        raise ValueError(f"MAX_BREAKPOINTS must be >= 2, got {limit}")
    previous = _max_breakpoints
    _max_breakpoints = int(limit)
    return previous


def configure_from_env() -> None:
    """Apply :envvar:`REPRO_MAX_BREAKPOINTS` when it is set.

    Called by the CLI entry point, not at import, so a bad value is an
    ordinary ``ValueError`` the caller can report.
    """
    raw = os.environ.get("REPRO_MAX_BREAKPOINTS")
    if raw is None:
        return
    try:
        limit = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_MAX_BREAKPOINTS={raw!r} is not an integer"
        ) from None
    set_max_breakpoints(limit)


def _guard_size(n: int, op: str) -> None:
    if n > _max_breakpoints:
        raise FunctionShapeError(
            f"{op} would produce {n} breakpoints, exceeding the "
            f"MAX_BREAKPOINTS guard ({_max_breakpoints}); simplify inputs or "
            f"raise the limit via repro.func.kernel.set_max_breakpoints"
        )


class KernelCounters:
    """Running totals of kernel work, snapshot-able per query."""

    __slots__ = ("breakpoints_allocated", "envelope_merges")

    def __init__(self) -> None:
        self.breakpoints_allocated = 0
        self.envelope_merges = 0

    def snapshot(self) -> tuple[int, int]:
        return (self.breakpoints_allocated, self.envelope_merges)

    def delta(self, snap: tuple[int, int]) -> tuple[int, int]:
        return (
            self.breakpoints_allocated - snap[0],
            self.envelope_merges - snap[1],
        )


#: Global counters; the engine snapshots them around each query.
COUNTERS = KernelCounters()


# ----------------------------------------------------------------------
# Scalar helpers (no fusion needed, but kept here so every array-producing
# path shares the size guard and allocation counter).
# ----------------------------------------------------------------------

def eval_at(xs: Sequence[float], ys: Sequence[float], x: float) -> float:
    """Evaluate at ``x``, clamping outside the domain (no error)."""
    n = len(xs)
    if x <= xs[0]:
        return ys[0]
    if x >= xs[n - 1]:
        return ys[n - 1]
    lo, hi = 0, n - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if xs[mid] <= x:
            lo = mid
        else:
            hi = mid
    x0, x1 = xs[lo], xs[hi]
    if x1 - x0 <= XTOL:
        return ys[lo]
    t = (x - x0) / (x1 - x0)
    return ys[lo] + t * (ys[hi] - ys[lo])


def min_travel(xs: Sequence[float], ys: Sequence[float]) -> float:
    """``min(A(l) - l)`` over the breakpoints of an arrival function.

    The lazy ranking evaluation: for a piecewise-linear arrival function the
    travel-time function shares its breakpoints, so the minimum over them is
    exact — no intermediate travel-time object needed.
    """
    best = ys[0] - xs[0]
    for i in range(1, len(xs)):
        v = ys[i] - xs[i]
        if v < best:
            best = v
    return best


def snap_monotone(ys: list[float], tol: float) -> list[float]:
    """Snap decreases up to ``tol`` flat in place; raise beyond ``tol``."""
    prev = ys[0]
    for i in range(1, len(ys)):
        y = ys[i]
        if y < prev:
            if y < prev - tol:
                raise NotMonotoneError(
                    f"arrival function decreases at index {i}: {prev} -> {y}"
                )
            ys[i] = prev
        else:
            prev = y
    return ys


# ----------------------------------------------------------------------
# Fused binary operators.
# ----------------------------------------------------------------------

def merge_add(
    axs: Sequence[float],
    ays: Sequence[float],
    bxs: Sequence[float],
    bys: Sequence[float],
) -> tuple[list[float], list[float]]:
    """Pointwise sum of two same-domain functions in one merge sweep.

    The output abscissae are the union of the inputs' (deduped within
    :data:`XTOL`), clamped to the intersection of the two domains; values are
    interpolated incrementally while merging — no per-point bisect.
    """
    na, nb = len(axs), len(bxs)
    x_lo = axs[0] if axs[0] >= bxs[0] else bxs[0]
    x_hi = axs[na - 1] if axs[na - 1] <= bxs[nb - 1] else bxs[nb - 1]
    if x_hi - x_lo <= XTOL:
        return [x_lo], [eval_at(axs, ays, x_lo) + eval_at(bxs, bys, x_lo)]
    _guard_size(na + nb, "merge_add")
    xs: list[float] = []
    ys: list[float] = []
    ia = ib = 0  # merge cursors
    sa = sb = 0  # interpolation segment cursors
    while ia < na or ib < nb:
        if ib >= nb or (ia < na and axs[ia] <= bxs[ib]):
            x = axs[ia]
            ia += 1
        else:
            x = bxs[ib]
            ib += 1
        if x < x_lo:
            x = x_lo
        elif x > x_hi:
            x = x_hi
        if xs and x <= xs[-1] + XTOL:
            continue
        while sa < na - 1 and axs[sa + 1] <= x:
            sa += 1
        if sa >= na - 1 or x <= axs[sa]:
            va = ays[sa]
        else:
            dx = axs[sa + 1] - axs[sa]
            va = (
                ays[sa]
                if dx <= XTOL
                else ays[sa] + (x - axs[sa]) / dx * (ays[sa + 1] - ays[sa])
            )
        while sb < nb - 1 and bxs[sb + 1] <= x:
            sb += 1
        if sb >= nb - 1 or x <= bxs[sb]:
            vb = bys[sb]
        else:
            dx = bxs[sb + 1] - bxs[sb]
            vb = (
                bys[sb]
                if dx <= XTOL
                else bys[sb] + (x - bxs[sb]) / dx * (bys[sb + 1] - bys[sb])
            )
        xs.append(x)
        ys.append(va + vb)
    if xs[-1] < x_hi - XTOL:
        xs.append(x_hi)
        ys.append(eval_at(axs, ays, x_hi) + eval_at(bxs, bys, x_hi))
    COUNTERS.breakpoints_allocated += len(xs)
    return xs, ys


def merge_min(
    axs: Sequence[float],
    ays: Sequence[float],
    bxs: Sequence[float],
    bys: Sequence[float],
) -> tuple[list[float], list[float]]:
    """Pointwise minimum with crossing breakpoints, in one merge sweep.

    Same semantics as :func:`repro.func.piecewise.pointwise_minimum`: the
    result's abscissae are the deduped union of the inputs' plus every strict
    sign change of ``a - b`` inside an elementary interval.
    """
    na, nb = len(axs), len(bxs)
    _guard_size(2 * (na + nb), "merge_min")
    # Deduped union of abscissae (evaluation clamps outside a domain).
    union: list[float] = []
    ia = ib = 0
    while ia < na or ib < nb:
        if ib >= nb or (ia < na and axs[ia] <= bxs[ib]):
            x = axs[ia]
            ia += 1
        else:
            x = bxs[ib]
            ib += 1
        if not union or x > union[-1] + XTOL:
            union.append(x)
    xs: list[float] = []
    ys: list[float] = []
    sa = sb = 0
    va0 = vb0 = 0.0
    for k, x in enumerate(union):
        while sa < na - 1 and axs[sa + 1] <= x:
            sa += 1
        if x <= axs[0]:
            va = ays[0]
        elif sa >= na - 1:
            va = ays[na - 1]
        else:
            dx = axs[sa + 1] - axs[sa]
            va = (
                ays[sa]
                if dx <= XTOL
                else ays[sa] + (x - axs[sa]) / dx * (ays[sa + 1] - ays[sa])
            )
        while sb < nb - 1 and bxs[sb + 1] <= x:
            sb += 1
        if x <= bxs[0]:
            vb = bys[0]
        elif sb >= nb - 1:
            vb = bys[nb - 1]
        else:
            dx = bxs[sb + 1] - bxs[sb]
            vb = (
                bys[sb]
                if dx <= XTOL
                else bys[sb] + (x - bxs[sb]) / dx * (bys[sb + 1] - bys[sb])
            )
        if k > 0:
            d0 = va0 - vb0
            d1 = va - vb
            if (d0 > YTOL and d1 < -YTOL) or (d0 < -YTOL and d1 > YTOL):
                x0 = xs[-1]
                t = d0 / (d0 - d1)
                x_cross = x0 + t * (x - x0)
                if x0 + XTOL < x_cross < x - XTOL:
                    y_cross = va0 + t * (va - va0)
                    xs.append(x_cross)
                    ys.append(y_cross)
        xs.append(x)
        ys.append(va if va <= vb else vb)
        va0, vb0 = va, vb
    COUNTERS.breakpoints_allocated += len(xs)
    return xs, ys


def le_everywhere(
    axs: Sequence[float],
    ays: Sequence[float],
    bxs: Sequence[float],
    bys: Sequence[float],
    tol: float,
) -> bool:
    """``a(x) <= b(x) + tol`` for every x — the dominance test, fused.

    Both functions are linear between union abscissae, so checking the union
    breakpoints is exact.  The test fails exactly when
    ``b(x) < a(x) - tol`` somewhere.
    """
    return not lt_somewhere(bxs, bys, axs, ays, tol)


def lt_somewhere(
    axs: Sequence[float],
    ays: Sequence[float],
    bxs: Sequence[float],
    bys: Sequence[float],
    tol: float,
) -> bool:
    """True when ``a(x) < b(x) - tol`` at some union abscissa (clamped eval)."""
    na, nb = len(axs), len(bxs)
    ia = ib = 0
    sa = sb = 0
    last_x: float | None = None
    while ia < na or ib < nb:
        if ib >= nb or (ia < na and axs[ia] <= bxs[ib]):
            x = axs[ia]
            ia += 1
        else:
            x = bxs[ib]
            ib += 1
        if last_x is not None and x <= last_x + XTOL:
            continue
        last_x = x
        while sa < na - 1 and axs[sa + 1] <= x:
            sa += 1
        if x <= axs[0]:
            va = ays[0]
        elif sa >= na - 1:
            va = ays[na - 1]
        else:
            dx = axs[sa + 1] - axs[sa]
            va = (
                ays[sa]
                if dx <= XTOL
                else ays[sa] + (x - axs[sa]) / dx * (ays[sa + 1] - ays[sa])
            )
        while sb < nb - 1 and bxs[sb + 1] <= x:
            sb += 1
        if x <= bxs[0]:
            vb = bys[0]
        elif sb >= nb - 1:
            vb = bys[nb - 1]
        else:
            dx = bxs[sb + 1] - bxs[sb]
            vb = (
                bys[sb]
                if dx <= XTOL
                else bys[sb] + (x - bxs[sb]) / dx * (bys[sb + 1] - bys[sb])
            )
        if va < vb - tol:
            return True
    return False


# ----------------------------------------------------------------------
# Monotone operators: composition and inverse.
# ----------------------------------------------------------------------

def compose(
    oxs: Sequence[float],
    oys: Sequence[float],
    ixs: Sequence[float],
    iys: Sequence[float],
) -> tuple[list[float], list[float]]:
    """``outer ∘ inner`` for nondecreasing functions, fused.

    The output abscissae are the inner function's breakpoints plus the
    preimages of the outer's — exactly the §4.4 breakpoints the paper derives
    case-by-case.  Because the inner function is nondecreasing, preimages can
    be generated in globally sorted order while walking inner segments, and
    the outer function is evaluated with a forward-only cursor: a single
    ``O(n + m)`` sweep instead of one bisect per candidate breakpoint.
    """
    ni, no = len(ixs), len(oxs)
    _guard_size(ni + no, "compose")
    lo = iys[0]
    hi = iys[ni - 1]
    xs: list[float] = []
    ys: list[float] = []
    # Both cursors only ever move forward, so start them at the window:
    # with a full-horizon outer function (an overlay shortcut profile) a
    # zero start would pay a linear scan up to ``lo`` on every compose.
    oj = max(0, bisect_right(oxs, lo) - 1)  # outer evaluation cursor
    op = bisect_right(oxs, lo + XTOL)  # outer breakpoint preimage cursor

    def outer_at(v: float) -> float:
        nonlocal oj
        if v <= oxs[0]:
            return oys[0]
        while oj < no - 1 and oxs[oj + 1] <= v:
            oj += 1
        if oj >= no - 1:
            return oys[no - 1]
        dx = oxs[oj + 1] - oxs[oj]
        if dx <= XTOL:
            return oys[oj]
        return oys[oj] + (v - oxs[oj]) / dx * (oys[oj + 1] - oys[oj])

    last_is_preimage = False
    for i in range(ni):
        x = ixs[i]
        if not xs or x > xs[-1] + XTOL:
            xs.append(x)
            ys.append(outer_at(iys[i]))
        elif last_is_preimage:
            # On a near-vertical inner segment an outer breakpoint's preimage
            # can land within XTOL before this inner breakpoint.  The inner
            # kink bends the result over the whole next segment, the outer
            # one only inside that XTOL sliver: the inner breakpoint wins.
            xs[-1] = x
            ys[-1] = outer_at(iys[i])
        last_is_preimage = False
        if i + 1 >= ni:
            break
        y0, y1 = iys[i], iys[i + 1]
        if y1 - y0 <= XTOL:
            continue
        x1 = ixs[i + 1]
        while op < no and oxs[op] < y1 - XTOL:
            by = oxs[op]
            if by >= hi - XTOL:
                op = no
                break
            if by > y0 + XTOL:
                t = (by - y0) / (y1 - y0)
                xq = x + t * (x1 - x)
                if xq > xs[-1] + XTOL:
                    xs.append(xq)
                    ys.append(outer_at(by))
                    last_is_preimage = True
            op += 1
    COUNTERS.breakpoints_allocated += len(xs)
    return xs, ys


def inverse(
    xs: Sequence[float], ys: Sequence[float]
) -> tuple[list[float], list[float]]:
    """The inverse of a strictly increasing function: swap the axes.

    A flat segment (``y`` constant over a non-degenerate ``x`` interval)
    would make the inverse discontinuous and raises
    :class:`~repro.exceptions.NotMonotoneError`.  Near-duplicate ``y`` values
    over degenerate ``x`` spans are merged, mirroring construction dedupe.
    """
    n = len(xs)
    out_x: list[float] = []
    out_y: list[float] = []
    for i in range(n):
        if i + 1 < n and ys[i + 1] - ys[i] <= XTOL and xs[i + 1] - xs[i] > XTOL:
            raise NotMonotoneError(
                f"cannot invert: function is flat on [{xs[i]}, {xs[i + 1]}]"
            )
        y = ys[i]
        if out_x and y <= out_x[-1] + XTOL:
            continue
        out_x.append(y)
        out_y.append(xs[i])
    COUNTERS.breakpoints_allocated += len(out_x)
    return out_x, out_y


# ----------------------------------------------------------------------
# Unary reshaping operators.
# ----------------------------------------------------------------------

def simplify(
    xs: Sequence[float], ys: Sequence[float], tol: float
) -> tuple[list[float], list[float]]:
    """Drop interior breakpoints within ``tol`` of the running chord."""
    n = len(xs)
    if n <= 2:
        return list(xs), list(ys)
    out_x: list[float] = [xs[0]]
    out_y: list[float] = [ys[0]]
    for i in range(1, n - 1):
        x0, y0 = out_x[-1], out_y[-1]
        x2, y2 = xs[i + 1], ys[i + 1]
        if x2 - x0 <= XTOL:
            continue
        t = (xs[i] - x0) / (x2 - x0)
        if abs(y0 + t * (y2 - y0) - ys[i]) > tol:
            out_x.append(xs[i])
            out_y.append(ys[i])
    out_x.append(xs[n - 1])
    out_y.append(ys[n - 1])
    COUNTERS.breakpoints_allocated += len(out_x)
    return out_x, out_y


def restrict(
    xs: Sequence[float], ys: Sequence[float], lo: float, hi: float
) -> tuple[list[float], list[float]]:
    """Restrict to ``[lo, hi]`` (caller guarantees containment)."""
    if hi - lo <= XTOL:
        return [lo], [eval_at(xs, ys, lo)]
    i = bisect_right(xs, lo + XTOL)
    j = bisect_left(xs, hi - XTOL, i)
    out_x: list[float] = [lo, *xs[i:j], hi]
    out_y: list[float] = [eval_at(xs, ys, lo), *ys[i:j], eval_at(xs, ys, hi)]
    COUNTERS.breakpoints_allocated += len(out_x)
    return out_x, out_y


# ----------------------------------------------------------------------
# Annotated lower envelope: fused fold and k-way construction.
# ----------------------------------------------------------------------

def envelope_fold(
    bx: Sequence[float],
    slope: Sequence[float],
    icept: Sequence[float],
    tags: Sequence[Hashable],
    fxs: Sequence[float],
    fys: Sequence[float],
    new_tag: Hashable,
    lo: float,
    hi: float,
) -> tuple[list[float], list[float], list[float], list[Hashable], bool]:
    """Fold one function into an annotated envelope in a single sweep.

    The envelope is ``P`` pieces tiling ``[lo, hi]``: boundaries ``bx``
    (length ``P + 1``) with per-piece ``slope`` / ``icept`` / ``tags``.  An
    empty envelope (``bx`` empty) is +infinity everywhere.  Ties keep the
    incumbent piece (the paper's first-identified-path convention); the
    ``improved`` flag reports whether the new function owns a piece of the
    result.  When it owns none, the input arrays come back unchanged.

    Two forward-only cursors walk the envelope and the new function, so a
    fold is linear in their piece counts.
    """
    COUNTERS.envelope_merges += 1
    np_env = len(slope)
    nf = len(fxs)
    _guard_size(2 * (np_env + nf + 2), "envelope_fold")

    # Merged elementary boundaries: envelope boundaries ∪ clamped fn
    # breakpoints ∪ {lo, hi}, deduped within XTOL — except that an envelope
    # boundary always survives the one before it: two that close bound the
    # envelope's first piece (the one piece ``emit`` keeps at any width),
    # and snapping it away would extend its neighbour's line over it.
    bounds: list[float] = []
    ie = 0
    if_ = 0
    nb_env = len(bx)
    last_env = False
    while ie < nb_env or if_ < nf:
        from_env = if_ >= nf or (ie < nb_env and bx[ie] <= fxs[if_])
        if from_env:
            x = bx[ie]
            ie += 1
        else:
            x = fxs[if_]
            if_ += 1
        if x < lo - XTOL or x > hi + XTOL:
            continue
        x = lo if x < lo else (hi if x > hi else x)
        if (
            not bounds
            or x > bounds[-1] + XTOL
            or (from_env and last_env and x > bounds[-1])
        ):
            bounds.append(x)
            last_env = from_env
    # Snap the extreme bounds onto the domain edges: a breakpoint within
    # XTOL of lo/hi must not leave the partition starting (or ending) a
    # hair inside the domain.
    if not bounds or bounds[0] > lo + XTOL:
        bounds.insert(0, lo)
    else:
        bounds[0] = lo
    if len(bounds) == 1:
        bounds.append(bounds[0])
    elif bounds[-1] < hi - XTOL:
        bounds.append(hi)
    else:
        bounds[-1] = hi

    out_bx: list[float] = []
    out_slope: list[float] = []
    out_icept: list[float] = []
    out_tags: list[Hashable] = []
    improved = False  # a piece of the new function was kept

    def emit(x0: float, x1: float, sl: float, ic: float, tg: Hashable) -> None:
        nonlocal improved
        if x1 - x0 <= XTOL and out_slope:
            return
        if (
            out_slope
            and out_tags[-1] == tg
            and abs(out_slope[-1] - sl) <= 1e-9
            and abs(out_icept[-1] - ic) <= 1e-6
        ):
            out_bx[-1] = x1
            return
        if len(out_slope) == 1 and out_bx[1] - out_bx[0] <= XTOL:
            # The first piece is narrower than XTOL, which a function reads
            # as one instant.  If its line climbs more than CONTINUITY_TOL
            # across it (a near-vertical crossing at lo), that instant would
            # hold two values, so the piece becomes the chord from its value
            # at lo to this piece's line just past the instant.
            x_lo = out_bx[0]
            y_lo = out_slope[0] * x_lo + out_icept[0]
            if abs(out_slope[0] * out_bx[1] + out_icept[0] - y_lo) > CONTINUITY_TOL:
                x_b = x_lo + 2 * XTOL
                if x1 - x_b <= XTOL:
                    x_b = x1  # no wider-than-XTOL rest: the chord takes it all
                chord = (sl * x_b + ic - y_lo) / (x_b - x_lo)
                out_bx[1] = x_b
                out_slope[0] = chord
                out_icept[0] = y_lo - chord * x_lo
                if x_b == x1:
                    return
                x0 = x_b
        improved = improved or tg is new_tag
        if not out_bx:
            out_bx.append(x0)
        out_bx.append(x1)
        out_slope.append(sl)
        out_icept.append(ic)
        out_tags.append(tg)

    if len(bounds) == 2 and bounds[1] - bounds[0] <= XTOL:
        # Degenerate single-instant domain.
        x = bounds[0]
        new_val = eval_at(fxs, fys, x)
        if np_env == 0:
            return [x, x], [0.0], [new_val], [new_tag], True
        old_val = slope[0] * x + icept[0]
        if new_val < old_val - YTOL:
            return [x, x], [0.0], [new_val], [new_tag], True
        return list(bx), list(slope), list(icept), list(tags), False

    ep = 0  # envelope piece cursor
    fp = 0  # fn segment cursor
    for i in range(len(bounds) - 1):
        x0, x1 = bounds[i], bounds[i + 1]
        # Line of fn over [x0, x1]: the segment containing the midpoint.
        mid = 0.5 * (x0 + x1)
        while fp < nf - 2 and fxs[fp + 1] <= mid:
            fp += 1
        if nf == 1:
            f_sl, f_ic = 0.0, fys[0]
        else:
            fx0, fx1 = fxs[fp], fxs[fp + 1]
            dx = fx1 - fx0
            f_sl = 0.0 if dx <= XTOL else (fys[fp + 1] - fys[fp]) / dx
            f_ic = fys[fp] - f_sl * fx0
        if np_env == 0:
            emit(x0, x1, f_sl, f_ic, new_tag)
            continue
        while ep < np_env - 1 and bx[ep + 1] <= mid:
            ep += 1
        e_sl, e_ic, e_tag = slope[ep], icept[ep], tags[ep]
        d0 = (f_sl * x0 + f_ic) - (e_sl * x0 + e_ic)
        d1 = (f_sl * x1 + f_ic) - (e_sl * x1 + e_ic)
        if d0 >= -YTOL and d1 >= -YTOL:
            emit(x0, x1, e_sl, e_ic, e_tag)
        elif d0 <= YTOL and d1 <= YTOL:
            # At or below the incumbent: only claim when strictly better
            # somewhere on the interval.
            if d0 < -YTOL or d1 < -YTOL:
                emit(x0, x1, f_sl, f_ic, new_tag)
            else:
                emit(x0, x1, e_sl, e_ic, e_tag)
        else:
            denom = f_sl - e_sl
            x_cross = (e_ic - f_ic) / denom if abs(denom) > 1e-15 else mid
            x_cross = x0 if x_cross < x0 else (x1 if x_cross > x1 else x_cross)
            if d0 < 0:
                emit(x0, x_cross, f_sl, f_ic, new_tag)
                emit(x_cross, x1, e_sl, e_ic, e_tag)
            else:
                emit(x0, x_cross, e_sl, e_ic, e_tag)
                emit(x_cross, x1, f_sl, f_ic, new_tag)
    if not improved:
        return list(bx), list(slope), list(icept), list(tags), False
    COUNTERS.breakpoints_allocated += len(out_bx)
    return out_bx, out_slope, out_icept, out_tags, True


def lower_envelope(
    functions: Sequence[tuple[Sequence[float], Sequence[float], Hashable]],
    lo: float,
    hi: float,
) -> tuple[list[float], list[float], list[float], list[Hashable]]:
    """K-way annotated lower envelope of ``(xs, ys, tag)`` functions.

    Folds the inputs one by one with :func:`envelope_fold`; each fold is a
    single merge sweep, so the total work is linear in the sum of the input
    sizes times the number of folds (the classic incremental construction).
    """
    bx: list[float] = []
    slope: list[float] = []
    icept: list[float] = []
    tags: list[Hashable] = []
    for fxs, fys, tag in functions:
        bx, slope, icept, tags, _ = envelope_fold(
            bx, slope, icept, tags, fxs, fys, tag, lo, hi
        )
    return bx, slope, icept, tags
