"""Priority-queue entries of IntAllFastestPaths.

Each entry (a *label*) is an expanded path ``s ⇒ n_i`` carrying the
piecewise-linear arrival function ``A(l)`` for leaving times ``l`` in the
query interval, plus the cached minimum of the ranking function
``T(l) + T_est`` = ``(A(l) − l) + est(n_i)`` that orders the queue (step 1–2
of the paper's algorithm overview, §4.2).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from ..func import kernel
from ..func.monotone import MonotonePiecewiseLinear
from ..func.piecewise import PiecewiseLinearFunction


@dataclass(frozen=True)
class PathLabel:
    """An expanded path with its arrival function over the query interval."""

    path: tuple[int, ...]
    arrival: MonotonePiecewiseLinear
    estimate: float
    f_min: float

    @property
    def end(self) -> int:
        """The path's last node — the one a pop expands."""
        return self.path[-1]

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    def travel_time_function(self) -> PiecewiseLinearFunction:
        """``T(l) = A(l) − l`` over the query interval."""
        return self.arrival.minus_identity()

    @classmethod
    def make(
        cls,
        path: tuple[int, ...],
        arrival: MonotonePiecewiseLinear,
        estimate: float,
    ) -> "PathLabel":
        """Build a label, computing the cached ranking minimum.

        For a monotone arrival function the minimum of ``A(l) − l + c`` over
        the breakpoint abscissae is exact, since ``A(l) − l`` is piecewise
        linear with the same breakpoints.
        """
        # Lazy ranking: min(A(l) − l) read straight off the breakpoint
        # arrays — no travel-time function object is allocated.
        f_min = kernel.min_travel(arrival._xs, arrival._ys) + estimate
        return cls(path, arrival, estimate, f_min)


class LabelQueue:
    """A min-heap of labels ordered by ``f_min`` (ties: fewer hops first)."""

    __slots__ = ("_heap", "_counter", "_max_size")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, PathLabel]] = []
        self._counter = itertools.count()
        self._max_size = 0

    def push(self, label: PathLabel) -> None:
        heapq.heappush(
            self._heap, (label.f_min, label.hops, next(self._counter), label)
        )
        self._max_size = max(self._max_size, len(self._heap))

    def pop(self) -> PathLabel:
        return heapq.heappop(self._heap)[3]

    def peek_f_min(self) -> float:
        """Smallest ranking value currently queued (``inf`` when empty)."""
        return self._heap[0][0] if self._heap else float("inf")

    @property
    def max_size(self) -> int:
        """High-water mark of the queue length."""
        return self._max_size

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
