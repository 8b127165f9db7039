"""Monotone piecewise-linear functions — arrival-time functions.

The paper expands a path ``s ⇒ n`` by an edge ``n → n_j`` by combining the
path's travel-time function with the edge's (§4.4).  Internally we phrase the
same operation as *composition of arrival functions*:

    ``A_path(l)`` = time one reaches ``n`` when leaving ``s`` at ``l``
    ``A_edge(t)`` = time one reaches ``n_j`` when leaving ``n`` at ``t``
    ``A_new = A_edge ∘ A_path``

The breakpoints the paper derives case-by-case (their Figure 5: the instants
where either input function changes line) are exactly the breakpoints of this
composition: the breakpoints of ``A_path`` plus the preimages under ``A_path``
of the breakpoints of ``A_edge``.  FIFO (proved for the flow-speed model in
[19]) means every arrival function is nondecreasing, which this class
enforces.
"""

from __future__ import annotations

from typing import Iterable

from ..exceptions import FunctionDomainError, NotMonotoneError
from . import kernel
from .piecewise import XTOL, PiecewiseLinearFunction

#: How much local decrease we forgive as floating-point noise.
_MONOTONE_TOL = 1e-7


class MonotonePiecewiseLinear(PiecewiseLinearFunction):
    """A continuous, nondecreasing piecewise-linear function.

    Raises :class:`~repro.exceptions.NotMonotoneError` when constructed from
    decreasing breakpoints.  In a FIFO network every arrival function is
    strictly increasing; tiny numerical decreases up to ``1e-7`` are snapped
    flat rather than rejected.
    """

    __slots__ = ()

    def __init__(self, points: Iterable[tuple[float, float]]) -> None:
        pts = list(points)
        fixed: list[tuple[float, float]] = []
        for x, y in pts:
            if fixed and y < fixed[-1][1]:
                if y < fixed[-1][1] - _MONOTONE_TOL:
                    raise NotMonotoneError(
                        f"arrival function decreases at x={x}: "
                        f"{fixed[-1][1]} -> {y}"
                    )
                y = fixed[-1][1]
            fixed.append((x, y))
        super().__init__(fixed)

    @classmethod
    def _trusted_monotone(
        cls, xs: list[float], ys: list[float]
    ) -> "MonotonePiecewiseLinear":
        """Wrap kernel output: snap float-noise decreases, skip revalidation.

        Kernel operators preserve the class invariants structurally (sorted
        deduped abscissae, finite values); only the monotone snap of the
        constructor still applies.
        """
        kernel.snap_monotone(ys, _MONOTONE_TOL)
        return cls._trusted(tuple(xs), tuple(ys))

    # ------------------------------------------------------------------
    @property
    def y_min(self) -> float:
        """Smallest value (attained at the left endpoint)."""
        return self._ys[0]

    @property
    def y_max(self) -> float:
        """Largest value (attained at the right endpoint)."""
        return self._ys[-1]

    @property
    def value_range(self) -> tuple[float, float]:
        """The closed range ``[f(x_min), f(x_max)]``."""
        return (self._ys[0], self._ys[-1])

    # ------------------------------------------------------------------
    def preimage_points(self, y: float) -> list[float]:
        """Abscissae where the function attains ``y``.

        For a nondecreasing function the preimage of a value is a (possibly
        empty, possibly degenerate) closed interval; both endpoints are
        returned.  Used to find the "trickier case" breakpoints of §4.4 —
        departure times at which a *downstream* function changes line.
        """
        if y < self._ys[0] - XTOL or y > self._ys[-1] + XTOL:
            return []
        ys = self._ys
        xs = self._xs
        result: list[float] = []
        # Leftmost crossing.
        for i in range(len(xs) - 1):
            if ys[i] <= y + XTOL and ys[i + 1] >= y - XTOL:
                if ys[i + 1] - ys[i] <= XTOL:
                    result.append(xs[i])
                else:
                    t = (y - ys[i]) / (ys[i + 1] - ys[i])
                    result.append(xs[i] + t * (xs[i + 1] - xs[i]))
                break
        else:
            if len(xs) == 1 and abs(ys[0] - y) <= XTOL:
                return [xs[0]]
            return []
        # Rightmost crossing.
        for i in range(len(xs) - 2, -1, -1):
            if ys[i] <= y + XTOL and ys[i + 1] >= y - XTOL:
                if ys[i + 1] - ys[i] <= XTOL:
                    right = xs[i + 1]
                else:
                    t = (y - ys[i]) / (ys[i + 1] - ys[i])
                    right = xs[i] + t * (xs[i + 1] - xs[i])
                if right > result[0] + XTOL:
                    result.append(right)
                break
        return result

    def inverse(self) -> "MonotonePiecewiseLinear":
        """The inverse function (requires strict increase).

        Arrival functions on networks with positive speeds are strictly
        increasing, so the inverse is well defined; a flat segment would make
        the inverse discontinuous and raises.
        """
        xs, ys = kernel.inverse(self._xs, self._ys)
        return MonotonePiecewiseLinear._trusted_monotone(xs, ys)

    def compose(self, inner: "MonotonePiecewiseLinear") -> "MonotonePiecewiseLinear":
        """Return ``self ∘ inner`` — the §4.4 path-expansion combine step.

        ``inner`` is the arrival function of the prefix path and ``self`` is
        the arrival function of the next edge; the result maps a leaving time
        at the path's source to the arrival time after traversing the edge.
        ``inner``'s range must be contained in ``self``'s domain.
        """
        lo, hi = inner.value_range
        if lo < self.x_min - 1e-6 or hi > self.x_max + 1e-6:
            raise FunctionDomainError(
                f"inner range [{lo}, {hi}] not within outer domain {self.domain}"
            )
        xs, ys = kernel.compose(self._xs, self._ys, inner._xs, inner._ys)
        return MonotonePiecewiseLinear._trusted_monotone(xs, ys)

    # ------------------------------------------------------------------
    # Overrides returning the monotone type where closure holds.
    # ------------------------------------------------------------------
    def restrict(self, lo: float, hi: float) -> "MonotonePiecewiseLinear":
        base = super().restrict(lo, hi)
        return MonotonePiecewiseLinear._trusted_monotone(
            list(base._xs), list(base._ys)
        )

    def simplify(self, tol: float = 1e-9) -> "MonotonePiecewiseLinear":
        # Simplify keeps a subset of already-monotone values.
        base = super().simplify(tol)
        return MonotonePiecewiseLinear._trusted(base._xs, base._ys)

    def shift_x(self, dx: float) -> "MonotonePiecewiseLinear":
        return MonotonePiecewiseLinear._trusted(
            tuple(x + dx for x in self._xs), self._ys
        )


def identity(lo: float, hi: float) -> MonotonePiecewiseLinear:
    """The identity arrival function on ``[lo, hi]`` (zero-length path)."""
    if hi - lo <= XTOL:
        return MonotonePiecewiseLinear([(lo, lo)])
    return MonotonePiecewiseLinear([(lo, lo), (hi, hi)])
