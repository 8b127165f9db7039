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
to ``s`` over ``[−end, −start]`` on :class:`_TimeReversedView` answers the
query, and the answer is mirrored back (``x → −x``, paths reversed).
"""

from __future__ import annotations

from dataclasses import replace

from ..estimators.base import LowerBoundEstimator
from ..estimators.boundary import BoundaryNodeEstimator, Metric
from ..estimators.naive import NaiveEstimator
from ..exceptions import NoPathError
from ..func import kernel
from ..func.monotone import MonotonePiecewiseLinear
from ..func.piecewise import PiecewiseLinearFunction
from ..timeutil import TimeInterval
from .engine import IntAllFastestPaths
from .results import AllFPEntry, AllFPResult, SingleFPResult
from .runtime import SearchContext


def reverse_boundary_estimator(
    network, nx: int = 4, ny: int = 4, metric: Metric = "time"
) -> BoundaryNodeEstimator:
    """A §5 estimator valid for arrival-window queries.

    Built over the transpose graph, so after ``prepare(s)`` its ``bound(u)``
    lower-bounds the *forward* travel time ``s → u``.
    """
    return BoundaryNodeEstimator(network.reversed_copy(), nx, ny, metric)


def _mirror(fn: PiecewiseLinearFunction) -> PiecewiseLinearFunction:
    """``a ↦ fn(−a)``: a negated-clock function read on the real clock."""
    return PiecewiseLinearFunction._trusted(
        tuple(-x for x in reversed(fn._xs)), tuple(reversed(fn._ys))
    )


class _ReversedEdge:
    """Forward edge ``w → u`` seen from ``u`` on the negated clock."""

    __slots__ = ("target", "_edge", "_context")

    def __init__(self, edge, context: SearchContext) -> None:
        self.target = edge.source
        self._edge = edge
        self._context = context

    def arrival_function(self, lo: float, hi: float) -> MonotonePiecewiseLinear:
        """``Ǎ`` on ``[lo, hi]``, from the store's ``A`` over every entry
        time that can reach ``u`` within ``[−hi, −lo]``."""
        edge = self._edge
        slowest = edge.distance / edge.pattern.min_speed()
        fn = self._context.edge_cache.arrival(edge, -hi - slowest - 1.0, -lo)
        xs, ys = kernel.inverse(fn._xs, fn._ys)
        return MonotonePiecewiseLinear._trusted_monotone(
            [-x for x in reversed(xs)], [-y for y in reversed(ys)]
        )


class _TimeReversedView:
    """The transpose of ``network`` on the negated clock: what
    :class:`~repro.core.engine.IntAllFastestPaths` reads of a network."""

    __slots__ = ("_network", "_context")

    def __init__(self, network, context: SearchContext) -> None:
        self._network = network
        self._context = context

    def location(self, node: int) -> tuple[float, float]:
        return self._network.location(node)

    def outgoing(self, node: int) -> list[_ReversedEdge]:
        return [
            _ReversedEdge(edge, self._context)
            for edge in self._network.incoming(node)
        ]


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
            _TimeReversedView(network, self._context),
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
