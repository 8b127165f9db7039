"""Arrival-interval allFP queries — the paper's "(or e)" variant.

The problem statement (§1, §2.1) lets a query constrain either the leaving
time at ``s`` or the arrival time at ``e``.  The arrival case is the
leaving case on the transpose graph with time negated.  Let ``D(a)`` be the
latest departure from a node that still reaches ``e`` at ``a``; an edge with
arrival function ``A`` extends it to ``A⁻¹ ∘ D``.  With ``Ď(x) = −D(−x)``
and ``Ǎ(y) = −A⁻¹(−y)`` (nondecreasing, by FIFO):

* extending a path is ``Ǎ ∘ Ď`` — the forward combine step,
* its travel time is ``Ď(x) − x = a − D(a)`` at ``a = −x``,
* a smaller ``Ď`` is a later departure, hence better — forward dominance,

so the unchanged :class:`~repro.core.engine.IntAllFastestPaths` from ``e``
to ``s`` over ``[−end, −start]`` on the view
:func:`~repro.core.graph.transpose` ``(network)`` — whose reversed edges
answer ``Ǎ`` — answers the query, and the answer is mirrored back
(``x → −x``, paths reversed).  The §5 precompute on the same view gives the
matching estimator (:func:`reverse_boundary_estimator`).
"""

from __future__ import annotations

from dataclasses import replace

from ..estimators.base import LowerBoundEstimator
from ..estimators.boundary import BoundaryNodeEstimator, Metric
from ..estimators.naive import NaiveEstimator
from ..exceptions import NoPathError
from ..func.piecewise import PiecewiseLinearFunction
from ..timeutil import TimeInterval
from .engine import IntAllFastestPaths
from .graph import transpose
from .results import AllFPEntry, AllFPResult, SingleFPResult
from .runtime import SearchContext


def reverse_boundary_estimator(
    network, nx: int = 4, ny: int = 4, metric: Metric = "time"
) -> BoundaryNodeEstimator:
    """A §5 estimator valid for arrival-window queries.

    Built over the transpose graph, so after ``prepare(s)`` its ``bound(u)``
    lower-bounds the *forward* travel time ``s → u``.
    """
    return BoundaryNodeEstimator(transpose(network), nx, ny, metric)


def _mirror(fn: PiecewiseLinearFunction) -> PiecewiseLinearFunction:
    """``a ↦ fn(−a)``: a negated-clock function read on the real clock."""
    return PiecewiseLinearFunction._trusted(
        tuple(-x for x in reversed(fn._xs)), tuple(reversed(fn._ys))
    )


class ArrivalIntAllFastestPaths:
    """allFP / singleFP queries constrained by an *arrival* interval at ``e``.

    Parameters mirror :class:`~repro.core.engine.IntAllFastestPaths`;
    ``estimator.bound(u)`` (after ``prepare(source)``) must lower-bound the
    forward travel time ``source → u`` — the default naive bound does.
    """

    def __init__(
        self,
        network,
        estimator: LowerBoundEstimator | None = None,
        prune: bool = True,
        max_pops: int | None = None,
        deadline: float | None = None,
        context: SearchContext | None = None,
    ) -> None:
        self._network = network
        self._context = context or SearchContext(
            network, max_pops=max_pops, deadline=deadline
        )
        self._engine = IntAllFastestPaths(
            transpose(network),
            estimator or NaiveEstimator(network),
            prune,
            context=self._context,
        )

    @property
    def context(self) -> SearchContext:
        return self._context

    def _reversed(self, query, source, target, arrival_interval, deadline):
        """``query`` from ``target`` to ``source`` over the negated window;
        an unknown node or no path is reported in the caller's order."""
        self._network.location(source)
        window = TimeInterval(-arrival_interval.end, -arrival_interval.start)
        try:
            return query(target, source, window, deadline=deadline)
        except NoPathError as exc:
            raise NoPathError(source, target, stats=exc.stats) from None

    def all_fastest_paths(
        self,
        source: int,
        target: int,
        arrival_interval: TimeInterval,
        deadline: float | None = None,
    ) -> "ArrivalAllFPResult":
        """Every fastest path, one per sub-interval of the arrival window."""
        result = self._reversed(
            self._engine.all_fastest_paths,
            source, target, arrival_interval, deadline,
        )
        return ArrivalAllFPResult(
            source=source,
            target=target,
            interval=arrival_interval,
            entries=tuple(
                AllFPEntry(
                    TimeInterval(-e.interval.end, -e.interval.start),
                    e.path[::-1],
                )
                for e in reversed(result.entries)
            ),
            border=_mirror(result.border),
            stats=result.stats,
        )

    def single_fastest_path(
        self,
        source: int,
        target: int,
        arrival_interval: TimeInterval,
        deadline: float | None = None,
    ) -> SingleFPResult:
        """The best arrival instant in the window and its fastest path."""
        single = self._reversed(
            self._engine.single_fastest_path,
            source, target, arrival_interval, deadline,
        )
        travel = _mirror(single.travel_time_function)
        return replace(
            single,
            source=source,
            target=target,
            interval=arrival_interval,
            path=single.path[::-1],
            travel_time_function=travel,
            optimal_intervals=tuple(travel.argmin_intervals()),
        )


class ArrivalAllFPResult(AllFPResult):
    """allFP answer whose ``interval`` / ``entries`` / ``border`` are
    indexed by the arrival instant at the target."""

    def departure_at(self, arrival_time: float) -> float:
        """Latest departure from the source to arrive exactly then."""
        return arrival_time - self.border(arrival_time)
