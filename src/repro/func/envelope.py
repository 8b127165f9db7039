"""Annotated lower envelope — the paper's *lower border function* (§4.6).

As paths reaching the destination are popped from the priority queue, their
travel-time functions are folded into a running pointwise minimum.  Each
linear piece of the envelope remembers *which* path produced it, so the final
envelope directly yields the allFP answer: a partition of the query interval
into sub-intervals, each labelled with its fastest path.

Internally the envelope is stored kernel-style: a flat boundary array plus
per-piece slope/intercept/tag arrays, so each fold is one fused merge sweep
(:func:`repro.func.kernel.envelope_fold`).  :class:`EnvelopePiece` objects are
materialised lazily for callers that want the piece view.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Hashable, Iterable

from ..exceptions import FunctionDomainError
from . import kernel
from .piecewise import XTOL, PiecewiseLinearFunction


@dataclass(frozen=True)
class EnvelopePiece:
    """One linear piece of the envelope, annotated with its producing tag."""

    x_start: float
    x_end: float
    slope: float
    intercept: float
    tag: Hashable

    def value_at(self, x: float) -> float:
        return self.slope * x + self.intercept

    @property
    def y_start(self) -> float:
        return self.value_at(self.x_start)

    @property
    def y_end(self) -> float:
        return self.value_at(self.x_end)


class AnnotatedEnvelope:
    """Pointwise minimum of piecewise-linear functions with piece provenance.

    The envelope lives on a fixed closed domain ``[lo, hi]`` (the query's
    leaving-time interval ``I``).  Before any function is added it is
    *empty* — its value is +infinity everywhere, so
    :meth:`max_value` returns ``inf`` and the engine keeps searching.
    Every function added must span the whole domain.
    """

    __slots__ = (
        "_lo",
        "_hi",
        "_bx",
        "_slope",
        "_icept",
        "_tags",
        "_view",
        "_max_cache",
        "_min_cache",
    )

    def __init__(self, lo: float, hi: float) -> None:
        if hi < lo - XTOL:
            raise FunctionDomainError(f"empty envelope domain [{lo}, {hi}]")
        self._lo = float(lo)
        self._hi = float(hi)
        self._bx: list[float] = []  # piece boundaries, len = pieces + 1
        self._slope: list[float] = []
        self._icept: list[float] = []
        self._tags: list[Hashable] = []
        self._view: tuple[EnvelopePiece, ...] | None = None
        self._max_cache: float | None = None
        self._min_cache: float | None = None

    def _invalidate(self) -> None:
        self._view = None
        self._max_cache = None
        self._min_cache = None

    def _piece_index(self, x: float) -> int:
        """Index of the piece covering ``x`` (pieces tile the domain)."""
        i = bisect.bisect_left(self._bx, x - XTOL, 1) - 1
        return min(i, len(self._slope) - 1)

    # ------------------------------------------------------------------
    @property
    def domain(self) -> tuple[float, float]:
        return (self._lo, self._hi)

    @property
    def is_empty(self) -> bool:
        """True before the first function has been added."""
        return not self._slope

    def pieces(self) -> tuple[EnvelopePiece, ...]:
        """The envelope's linear pieces, left to right."""
        if self._view is None:
            self._view = tuple(
                EnvelopePiece(
                    self._bx[i],
                    self._bx[i + 1],
                    self._slope[i],
                    self._icept[i],
                    self._tags[i],
                )
                for i in range(len(self._slope))
            )
        return self._view

    def tags(self) -> list[Hashable]:
        """Distinct tags appearing on the envelope, in left-to-right order."""
        seen: list[Hashable] = []
        for tag in self._tags:
            if not seen or seen[-1] != tag:
                if tag not in seen:
                    seen.append(tag)
        return seen

    # ------------------------------------------------------------------
    def value_at(self, x: float) -> float:
        """Envelope value at ``x`` (``inf`` when empty)."""
        if x < self._lo - XTOL or x > self._hi + XTOL:
            raise FunctionDomainError(
                f"x={x} outside envelope domain [{self._lo}, {self._hi}]"
            )
        if not self._slope:
            return math.inf
        i = self._piece_index(x)
        return self._slope[i] * x + self._icept[i]

    def tag_at(self, x: float) -> Hashable:
        """Tag of the piece covering ``x`` (ties go to the earlier piece)."""
        if not self._slope:
            raise FunctionDomainError("envelope is empty")
        return self._tags[self._piece_index(x)]

    def max_value(self) -> float:
        """Maximum of the envelope over the domain (``inf`` when empty).

        This is the termination threshold of IntAllFastestPaths: once the
        cheapest queue entry exceeds it, no future path can improve any
        sub-interval of the answer.  Cached between mutations — the engine
        consults it on every pop.
        """
        if not self._slope:
            return math.inf
        if self._max_cache is None:
            bx, sl, ic = self._bx, self._slope, self._icept
            self._max_cache = max(
                max(sl[i] * bx[i] + ic[i], sl[i] * bx[i + 1] + ic[i])
                for i in range(len(sl))
            )
        return self._max_cache

    def min_value(self) -> float:
        """Minimum of the envelope over the domain (``inf`` when empty)."""
        if not self._slope:
            return math.inf
        if self._min_cache is None:
            bx, sl, ic = self._bx, self._slope, self._icept
            self._min_cache = min(
                min(sl[i] * bx[i] + ic[i], sl[i] * bx[i + 1] + ic[i])
                for i in range(len(sl))
            )
        return self._min_cache

    # ------------------------------------------------------------------
    def add(self, fn: PiecewiseLinearFunction, tag: Hashable) -> bool:
        """Fold ``fn`` into the envelope; return True when it improved anywhere.

        ``fn`` must span the envelope's full domain.  Ties (equal value) keep
        the incumbent piece, matching the paper's convention that the first
        identified fastest path owns its sub-interval.
        """
        if fn.x_min > self._lo + 1e-6 or fn.x_max < self._hi - 1e-6:
            raise FunctionDomainError(
                f"function domain {fn.domain} does not cover "
                f"envelope domain [{self._lo}, {self._hi}]"
            )
        self._bx, self._slope, self._icept, self._tags, improved = (
            kernel.envelope_fold(
                self._bx,
                self._slope,
                self._icept,
                self._tags,
                fn._xs,
                fn._ys,
                tag,
                self._lo,
                self._hi,
            )
        )
        self._invalidate()
        return improved

    # ------------------------------------------------------------------
    def as_function(self) -> PiecewiseLinearFunction:
        """The envelope as a plain piecewise-linear function."""
        if not self._slope:
            raise FunctionDomainError("envelope is empty")
        pts: list[tuple[float, float]] = []
        bx, sl, ic = self._bx, self._slope, self._icept
        for i in range(len(sl)):
            if not pts or bx[i] > pts[-1][0] + XTOL:
                pts.append((bx[i], sl[i] * bx[i] + ic[i]))
            pts.append((bx[i + 1], sl[i] * bx[i + 1] + ic[i]))
        return PiecewiseLinearFunction(pts)

    def partition(self) -> list[tuple[float, float, Hashable]]:
        """The allFP partition: maximal runs ``(start, end, tag)``.

        Adjacent pieces owned by the same tag are merged; zero-width runs are
        dropped (except for a degenerate single-instant domain).
        """
        if not self._slope:
            return []
        runs: list[tuple[float, float, Hashable]] = []
        for i, tag in enumerate(self._tags):
            if runs and runs[-1][2] == tag:
                runs[-1] = (runs[-1][0], self._bx[i + 1], tag)
            else:
                runs.append((self._bx[i], self._bx[i + 1], tag))
        if len(runs) > 1:
            kept = [r for r in runs if r[1] - r[0] > XTOL]
            if not kept:
                return [(self._bx[0], self._bx[-1], runs[0][2])]
            # Dropping a zero-width run (e.g. a degenerate first piece left
            # by a crossing within XTOL of the domain edge) must not leave
            # a gap: re-stitch so the runs tile [lo, hi] exactly.
            runs = []
            for _start, end, tag in kept:
                runs.append((runs[-1][1] if runs else self._bx[0], end, tag))
            last = runs[-1]
            runs[-1] = (last[0], self._bx[-1], last[2])
        return runs

    def merge_tags(self, pairs: Iterable[tuple[Hashable, Hashable]]) -> None:
        """Rewrite tags (old -> new); used to canonicalise path labels."""
        mapping = dict(pairs)
        self._tags = [mapping.get(t, t) for t in self._tags]
        self._invalidate()
