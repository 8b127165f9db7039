"""The paper's basic estimators: naive (Euclidean / v_max) and zero.

The naive bound is admissible because no drive can beat a straight line at
the fastest speed found anywhere on the network; the paper uses it for the
basic algorithm (§4) and as the ``naiveLB`` baseline of Figure 9.
"""

from __future__ import annotations

import math

from ..network.model import CapeCodNetwork
from .base import LowerBoundEstimator


class NaiveEstimator(LowerBoundEstimator):
    """``d_euclidean(n, target) / v_max`` — the paper's naiveLB.

    ``v_max`` is read off the network at every :meth:`prepare`, so one
    estimator stays admissible across live updates: an edge that got faster
    than any before raises it for the next query.
    """

    def __init__(self, network: CapeCodNetwork) -> None:
        super().__init__()
        self._network = network
        self._v_max = 0.0
        self._target_loc: tuple[float, float] | None = None

    @property
    def v_max(self) -> float:
        """The network-wide maximum speed now (miles per minute)."""
        return self._network.max_speed()

    def prepare(self, target: int) -> None:
        super().prepare(target)
        self._target_loc = self._network.location(target)
        self._v_max = self._network.max_speed()

    def bound(self, node: int) -> float:
        if self._target_loc is None:
            self.prepare(self.target)  # raises if never prepared
        x, y = self._network.location(node)
        tx, ty = self._target_loc  # type: ignore[misc]
        return math.hypot(x - tx, y - ty) / self._v_max

    @property
    def name(self) -> str:
        return "naiveLB"


class ZeroEstimator(LowerBoundEstimator):
    """Always 0 — turns the search into a Dijkstra-style blind expansion."""

    def bound(self, node: int) -> float:
        return 0.0

    @property
    def name(self) -> str:
        return "zeroLB"
