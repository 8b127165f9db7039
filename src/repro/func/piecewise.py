"""Continuous piecewise-linear functions over a closed interval.

A :class:`PiecewiseLinearFunction` is stored as a sequence of breakpoints
``(x_0, y_0), ..., (x_k, y_k)`` with strictly increasing ``x`` and linear
interpolation between consecutive breakpoints; the domain is ``[x_0, x_k]``.
All functions in this library are continuous — the paper proves travel-time
functions on CapeCod networks are continuous piecewise linear (§4.1).

Design notes
------------
* Breakpoints are plain floats; a global tolerance :data:`XTOL` governs when
  two abscissae are considered equal.  Values (``y``) are compared with
  :data:`YTOL` where a tolerance is needed.
* Instances are immutable: every operation returns a new function.  This keeps
  priority-queue entries safe to share.
* A function may consist of a single breakpoint, in which case its domain is a
  single instant — the degenerate "leave exactly at time t" query.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from ..exceptions import FunctionDomainError, FunctionShapeError
from . import kernel
from .kernel import (  # defined once, in the kernel; public here too
    CONTINUITY_TOL,
    XTOL,
    YTOL,
)


@dataclass(frozen=True)
class LinearPiece:
    """One linear piece ``y = slope * x + intercept`` on ``[x_start, x_end]``."""

    x_start: float
    x_end: float
    slope: float
    intercept: float

    def value_at(self, x: float) -> float:
        """Evaluate the piece's line at ``x`` (no domain check)."""
        return self.slope * x + self.intercept

    @property
    def y_start(self) -> float:
        return self.value_at(self.x_start)

    @property
    def y_end(self) -> float:
        return self.value_at(self.x_end)


def _dedupe_points(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Drop consecutive points with (near-)equal x, keeping the first.

    Raises if two near-equal abscissae carry conflicting ordinates, which
    would make the input discontinuous.
    """
    cleaned: list[tuple[float, float]] = []
    for x, y in points:
        if cleaned and x <= cleaned[-1][0] + XTOL:
            if abs(y - cleaned[-1][1]) > CONTINUITY_TOL:
                raise FunctionShapeError(
                    f"discontinuity at x={x}: y={cleaned[-1][1]} vs y={y}"
                )
            continue
        cleaned.append((float(x), float(y)))
    return cleaned


class PiecewiseLinearFunction:
    """An immutable continuous piecewise-linear function on a closed interval.

    Parameters
    ----------
    points:
        Breakpoints ``(x, y)`` with nondecreasing ``x``.  Consecutive points
        closer than :data:`XTOL` in ``x`` are merged (they must then agree in
        ``y``).  At least one point is required.
    """

    __slots__ = ("_xs", "_ys")

    def __init__(self, points: Iterable[tuple[float, float]]) -> None:
        pts = list(points)
        if not pts:
            raise FunctionShapeError("a piecewise function needs >= 1 breakpoint")
        for i in range(1, len(pts)):
            if pts[i][0] < pts[i - 1][0] - XTOL:
                raise FunctionShapeError(
                    f"breakpoint abscissae must be nondecreasing; "
                    f"got {pts[i - 1][0]} then {pts[i][0]}"
                )
        cleaned = _dedupe_points(pts)
        for x, y in cleaned:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise FunctionShapeError(f"non-finite breakpoint ({x}, {y})")
        self._xs: tuple[float, ...] = tuple(p[0] for p in cleaned)
        self._ys: tuple[float, ...] = tuple(p[1] for p in cleaned)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _trusted(
        cls, xs: tuple[float, ...], ys: tuple[float, ...]
    ) -> "PiecewiseLinearFunction":
        """Bypass validation for breakpoints already known to be well formed.

        Internal fast path for element-wise operations (adding a scalar,
        subtracting the identity, ...) and for kernel outputs, which are well
        formed by construction.  Instantiates ``cls``, so monotone subclasses
        can reuse it once their own invariant is established.
        """
        obj = object.__new__(cls)
        obj._xs = xs
        obj._ys = ys
        return obj

    @classmethod
    def constant(cls, lo: float, hi: float, value: float) -> "PiecewiseLinearFunction":
        """A constant function ``value`` on ``[lo, hi]``."""
        if hi < lo - XTOL:
            raise FunctionShapeError(f"empty domain [{lo}, {hi}]")
        if hi - lo <= XTOL:
            return cls([(lo, value)])
        return cls([(lo, value), (hi, value)])

    @classmethod
    def linear(
        cls, lo: float, hi: float, slope: float, intercept: float
    ) -> "PiecewiseLinearFunction":
        """The line ``slope * x + intercept`` restricted to ``[lo, hi]``."""
        if hi - lo <= XTOL:
            return cls([(lo, slope * lo + intercept)])
        return cls([(lo, slope * lo + intercept), (hi, slope * hi + intercept)])

    @classmethod
    def from_callable(
        cls, fn: Callable[[float], float], breakpoints: Sequence[float]
    ) -> "PiecewiseLinearFunction":
        """Sample ``fn`` at the given abscissae (assumed linear in between)."""
        return cls([(x, fn(x)) for x in breakpoints])

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def x_min(self) -> float:
        return self._xs[0]

    @property
    def x_max(self) -> float:
        return self._xs[-1]

    @property
    def domain(self) -> tuple[float, float]:
        """The closed domain ``[x_min, x_max]``."""
        return (self._xs[0], self._xs[-1])

    @property
    def breakpoints(self) -> tuple[tuple[float, float], ...]:
        """All breakpoints as ``(x, y)`` pairs."""
        return tuple(zip(self._xs, self._ys))

    @property
    def is_instant(self) -> bool:
        """True when the domain is a single point."""
        return len(self._xs) == 1

    def __len__(self) -> int:
        return len(self._xs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pts = ", ".join(f"({x:g}, {y:g})" for x, y in self.breakpoints[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return f"PiecewiseLinearFunction([{pts}{suffix}])"

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _check_domain(self, x: float) -> None:
        if x < self._xs[0] - XTOL or x > self._xs[-1] + XTOL:
            raise FunctionDomainError(
                f"x={x} outside domain [{self._xs[0]}, {self._xs[-1]}]"
            )

    def _locate(self, x: float) -> int:
        """Index ``i`` such that x lies in segment [xs[i], xs[i+1]] (clamped)."""
        self._check_domain(x)
        i = bisect.bisect_right(self._xs, x) - 1
        return min(max(i, 0), max(len(self._xs) - 2, 0))

    def __call__(self, x: float) -> float:
        """Evaluate the function at ``x`` (must lie in the domain, to within
        ``XTOL``) with the kernel's evaluator: a breakpoint gives back its
        stored ordinate, and ``x`` just outside the domain its end's."""
        self._check_domain(x)
        return kernel.eval_at(self._xs, self._ys, x)

    def piece_at(self, x: float) -> LinearPiece:
        """The linear piece whose interval contains ``x``.

        At an interior breakpoint the piece to the *right* is returned, except
        at the domain's right endpoint where the last piece is returned.
        """
        if len(self._xs) == 1:
            return LinearPiece(self._xs[0], self._xs[0], 0.0, self._ys[0])
        i = self._locate(x)
        x0, x1 = self._xs[i], self._xs[i + 1]
        y0, y1 = self._ys[i], self._ys[i + 1]
        slope = 0.0 if x1 - x0 <= XTOL else (y1 - y0) / (x1 - x0)
        return LinearPiece(x0, x1, slope, y0 - slope * x0)

    def pieces(self) -> Iterator[LinearPiece]:
        """Iterate over the linear pieces left to right."""
        if len(self._xs) == 1:
            yield LinearPiece(self._xs[0], self._xs[0], 0.0, self._ys[0])
            return
        for i in range(len(self._xs) - 1):
            x0, x1 = self._xs[i], self._xs[i + 1]
            y0, y1 = self._ys[i], self._ys[i + 1]
            slope = 0.0 if x1 - x0 <= XTOL else (y1 - y0) / (x1 - x0)
            yield LinearPiece(x0, x1, slope, y0 - slope * x0)

    # ------------------------------------------------------------------
    # Extrema
    # ------------------------------------------------------------------
    def min_value(self) -> float:
        """Minimum of the function over its domain."""
        return min(self._ys)

    def max_value(self) -> float:
        """Maximum of the function over its domain."""
        return max(self._ys)

    def argmin_intervals(self, tol: float = YTOL) -> list[tuple[float, float]]:
        """Maximal sub-intervals on which the function attains its minimum.

        The paper reports optimal leaving *intervals* (e.g. "[7:00, 7:03]"),
        so the answer is a list of closed intervals, possibly degenerate.
        """
        m = self.min_value()
        intervals: list[tuple[float, float]] = []
        if len(self._xs) == 1:
            return [(self._xs[0], self._xs[0])]
        for piece in self.pieces():
            lo_val, hi_val = piece.y_start, piece.y_end
            seg: tuple[float, float] | None = None
            if lo_val <= m + tol and hi_val <= m + tol:
                seg = (piece.x_start, piece.x_end)
            elif lo_val <= m + tol:
                seg = (piece.x_start, piece.x_start)
            elif hi_val <= m + tol:
                seg = (piece.x_end, piece.x_end)
            if seg is None:
                continue
            if intervals and seg[0] <= intervals[-1][1] + XTOL:
                intervals[-1] = (intervals[-1][0], max(intervals[-1][1], seg[1]))
            else:
                intervals.append(seg)
        return intervals

    def argmin(self) -> float:
        """One abscissa at which the minimum is attained (leftmost)."""
        return self.argmin_intervals()[0][0]

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _merged_xs(self, other: "PiecewiseLinearFunction") -> list[float]:
        """Union of breakpoint abscissae of two same-domain functions."""
        xs: list[float] = []
        i = j = 0
        a, b = self._xs, other._xs
        while i < len(a) or j < len(b):
            if j >= len(b) or (i < len(a) and a[i] <= b[j]):
                x = a[i]
                i += 1
            else:
                x = b[j]
                j += 1
            if not xs or x > xs[-1] + XTOL:
                xs.append(x)
        return xs

    def _check_same_domain(self, other: "PiecewiseLinearFunction") -> None:
        if (
            abs(self.x_min - other.x_min) > 1e-6
            or abs(self.x_max - other.x_max) > 1e-6
        ):
            raise FunctionDomainError(
                f"domain mismatch: {self.domain} vs {other.domain}"
            )

    def __add__(self, other: "PiecewiseLinearFunction | float") -> "PiecewiseLinearFunction":
        if isinstance(other, (int, float)):
            return PiecewiseLinearFunction._trusted(
                self._xs, tuple(y + other for y in self._ys)
            )
        self._check_same_domain(other)
        xs, ys = kernel.merge_add(self._xs, self._ys, other._xs, other._ys)
        return PiecewiseLinearFunction._trusted(tuple(xs), tuple(ys))

    __radd__ = __add__

    def __sub__(self, other: "PiecewiseLinearFunction | float") -> "PiecewiseLinearFunction":
        if isinstance(other, (int, float)):
            return self + (-other)
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "PiecewiseLinearFunction":
        """Pointwise multiplication by a scalar."""
        return PiecewiseLinearFunction._trusted(
            self._xs, tuple(y * factor for y in self._ys)
        )

    def shift_x(self, dx: float) -> "PiecewiseLinearFunction":
        """Translate the domain: ``g(x) = f(x - dx)``."""
        return PiecewiseLinearFunction._trusted(
            tuple(x + dx for x in self._xs), self._ys
        )

    def minus_identity(self) -> "PiecewiseLinearFunction":
        """Return ``f(x) - x`` — converts an arrival function to travel time."""
        return PiecewiseLinearFunction._trusted(
            self._xs, tuple(y - x for x, y in zip(self._xs, self._ys))
        )

    def plus_identity(self) -> "PiecewiseLinearFunction":
        """Return ``f(x) + x`` — converts travel time to an arrival function."""
        return PiecewiseLinearFunction._trusted(
            self._xs, tuple(y + x for x, y in zip(self._xs, self._ys))
        )

    # ------------------------------------------------------------------
    # Restriction / simplification / comparison
    # ------------------------------------------------------------------
    def restrict(self, lo: float, hi: float) -> "PiecewiseLinearFunction":
        """Restrict to ``[lo, hi]`` (must be contained in the domain)."""
        if lo < self.x_min - 1e-6 or hi > self.x_max + 1e-6:
            raise FunctionDomainError(
                f"[{lo}, {hi}] not contained in domain {self.domain}"
            )
        lo = max(lo, self.x_min)
        hi = min(hi, self.x_max)
        if hi < lo - XTOL:
            raise FunctionDomainError(f"empty restriction [{lo}, {hi}]")
        xs, ys = kernel.restrict(self._xs, self._ys, lo, hi)
        return PiecewiseLinearFunction._trusted(tuple(xs), tuple(ys))

    def simplify(self, tol: float = YTOL) -> "PiecewiseLinearFunction":
        """Drop interior breakpoints that lie on the line through their neighbours."""
        if len(self._xs) <= 2:
            return self
        xs, ys = kernel.simplify(self._xs, self._ys, tol)
        return PiecewiseLinearFunction._trusted(tuple(xs), tuple(ys))

    def equals_approx(
        self, other: "PiecewiseLinearFunction", tol: float = 1e-6
    ) -> bool:
        """Pointwise approximate equality on a shared domain."""
        if (
            abs(self.x_min - other.x_min) > tol
            or abs(self.x_max - other.x_max) > tol
        ):
            return False
        xs = self._merged_xs(other)
        for x in xs:
            x_clamped = min(max(x, self.x_min, other.x_min), self.x_max, other.x_max)
            if abs(self(x_clamped) - other(x_clamped)) > tol:
                return False
        return True

    def dominates(self, other: "PiecewiseLinearFunction", tol: float = YTOL) -> bool:
        """True when ``self(x) <= other(x) + tol`` for every x in the shared domain.

        Used for the label-dominance pruning described in DESIGN.md.
        """
        self._check_same_domain(other)
        return kernel.le_everywhere(self._xs, self._ys, other._xs, other._ys, tol)


def pointwise_minimum(
    a: PiecewiseLinearFunction, b: PiecewiseLinearFunction
) -> PiecewiseLinearFunction:
    """The pointwise minimum ``min(a, b)`` of two same-domain functions.

    Crossing points become breakpoints of the result.  The minimum of two
    nondecreasing functions is nondecreasing, so profile search can wrap
    the result back into a monotone function.
    """
    a._check_same_domain(b)
    xs, ys = kernel.merge_min(a._xs, a._ys, b._xs, b._ys)
    return PiecewiseLinearFunction._trusted(tuple(xs), tuple(ys))
