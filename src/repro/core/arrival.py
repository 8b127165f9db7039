"""Arrival-interval allFP queries — the paper's "(or e)" variant.

The problem statement (§1, §2.1) allows the user to constrain either the
*leaving* time at ``s`` or the *arrival* time at ``e``.  The paper develops
the leaving-interval case; this module implements the arrival-interval case
with the same machinery run backwards.

Given an arrival window ``A`` at ``e``, for each arrival instant ``a ∈ A``
we want the fastest path that reaches ``e`` exactly at ``a``.  Under FIFO
"fastest" coincides with "departing latest": the minimum travel time ending
at ``a`` is ``a − L(a)`` where ``L(a)`` is the latest departure from ``s``
that still arrives by ``a``.

The search therefore grows paths *backwards* from ``e``.  A label for a
path ``u ⇒ e`` carries the monotone piecewise-linear **departure function**
``D(a)`` — leave ``u`` at ``D(a)`` to arrive ``e`` exactly at ``a``.
Extending the path with an edge ``w → u`` composes with the *inverse* of
the edge's arrival function:

    ``D'(a) = A_{w→u}⁻¹(D(a))``

which mirrors the forward §4.4 combine step.  The queue ranks labels by the
minimum of ``(a − D(a)) + est(u)`` where ``est(u)`` lower-bounds the travel
time of the missing prefix ``s ⇒ u``; the lower border of ``a − D(a)``
functions of paths that reached ``s`` yields the answer partition of ``A``.

Estimator note: the missing prefix runs *from* the query source, so the
estimator must bound ``travel(s → u)``.  The naive bound is symmetric and
works as-is (prepared with ``target=s``); a boundary-node estimator must be
built on the **reversed network** for its bound (prepared on ``s``) to be
directionally correct — see :func:`reverse_boundary_estimator`.
"""

from __future__ import annotations

from typing import Hashable

from ..estimators.base import LowerBoundEstimator
from ..estimators.boundary import BoundaryNodeEstimator, Metric
from ..estimators.naive import NaiveEstimator
from ..exceptions import NoPathError, QueryError
from ..func import kernel
from ..func.envelope import AnnotatedEnvelope
from ..func.monotone import MonotonePiecewiseLinear, identity
from ..func.piecewise import XTOL, PiecewiseLinearFunction
from ..timeutil import EPS, TimeInterval
from .labels import LabelQueue, PathLabel
from .results import AllFPEntry, AllFPResult, SearchStats, SingleFPResult, merge_adjacent_entries
from .runtime import SearchContext


def reverse_boundary_estimator(
    network, nx: int = 4, ny: int = 4, metric: Metric = "time"
) -> BoundaryNodeEstimator:
    """A §5 estimator valid for backward searches.

    Built over the transpose graph, so after ``prepare(s)`` its ``bound(u)``
    lower-bounds the *forward* travel time ``s → u``.
    """
    return BoundaryNodeEstimator(network.reversed_copy(), nx, ny, metric)


class _LatestDepartureStore:
    """Per-node dominance for backward labels.

    A backward label at ``u`` is dominated when an already-expanded label at
    ``u`` departs *no earlier* at every arrival instant (a later departure
    with the same arrival can only help any prefix).  Stored as raw
    breakpoint arrays of the lower envelope of the *negated* departure
    functions (the lower envelope of ``−D`` is the upper envelope of ``D``),
    maintained with the kernel's fused min-merge like the forward
    :class:`~repro.core.dominance.DominanceStore`.
    """

    __slots__ = ("_lo", "_hi", "_envelopes")

    def __init__(self, lo: float, hi: float) -> None:
        self._lo = lo
        self._hi = hi
        # node -> (xs, ys) arrays of the lower envelope of −D.
        self._envelopes: dict[int, tuple[list[float], list[float]]] = {}

    def _negated(
        self, departure: PiecewiseLinearFunction
    ) -> tuple[list[float], list[float]]:
        xs, ys = departure._xs, departure._ys
        neg = [-y for y in ys]
        if xs[0] < self._lo - XTOL or xs[-1] > self._hi + XTOL:
            return kernel.restrict(
                xs, neg, max(xs[0], self._lo), min(xs[-1], self._hi)
            )
        return list(xs), neg

    def is_dominated(self, node: int, departure: PiecewiseLinearFunction) -> bool:
        env = self._envelopes.get(node)
        if env is None:
            return False
        xs, neg = self._negated(departure)
        # Strictly later departure somewhere (−D below envelope) => survives.
        return not kernel.lt_somewhere(xs, neg, env[0], env[1], 1e-9)

    def add(self, node: int, departure: PiecewiseLinearFunction) -> None:
        xs, neg = self._negated(departure)
        env = self._envelopes.get(node)
        if env is None:
            self._envelopes[node] = (xs, neg)
        else:
            kernel.COUNTERS.envelope_merges += 1
            self._envelopes[node] = kernel.merge_min(env[0], env[1], xs, neg)


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
        self._estimator = estimator or NaiveEstimator(network)
        self._prune = prune
        self._context = context or SearchContext(
            network, max_pops=max_pops, deadline=deadline
        )
        self._incoming_cache: dict[int, list] = {}

    @property
    def context(self) -> SearchContext:
        return self._context

    # ------------------------------------------------------------------
    def _incoming(self, node: int) -> list:
        """Incoming edges of a node (memoised; CCAM stores only index
        outgoing adjacency, so for them we build a transpose index once)."""
        cached = self._incoming_cache.get(node)
        if cached is not None:
            return cached
        incoming_fn = getattr(self._network, "incoming", None)
        if incoming_fn is not None:
            edges = incoming_fn(node)
        else:
            self._build_transpose_index()
            edges = self._incoming_cache.get(node, [])
        self._incoming_cache[node] = edges
        return edges

    def _build_transpose_index(self) -> None:
        for nid in self._network.node_ids():
            for edge in self._network.outgoing(nid):
                self._incoming_cache.setdefault(edge.target, []).append(edge)

    # ------------------------------------------------------------------
    def all_fastest_paths(
        self,
        source: int,
        target: int,
        arrival_interval: TimeInterval,
        deadline: float | None = None,
    ) -> "ArrivalAllFPResult":
        """Every fastest path, one per sub-interval of the arrival window."""
        _single, result = self._run(
            source, target, arrival_interval, False, deadline=deadline
        )
        assert result is not None
        return result

    def single_fastest_path(
        self,
        source: int,
        target: int,
        arrival_interval: TimeInterval,
        deadline: float | None = None,
    ) -> SingleFPResult:
        """The best arrival instant in the window and its fastest path."""
        single, _result = self._run(
            source, target, arrival_interval, True, deadline=deadline
        )
        return single

    # ------------------------------------------------------------------
    def _run(
        self,
        source: int,
        target: int,
        arrival_interval: TimeInterval,
        single_only: bool,
        deadline: float | None = None,
    ):
        self._network.location(source)
        self._network.location(target)
        if source == target:
            raise QueryError("source and target must differ")
        estimator = self._estimator
        estimator.prepare(source)
        bounds: dict[int, float] = {}

        def est(node: int) -> float:
            value = bounds.get(node)
            if value is None:
                value = estimator.bound(node)
                bounds[node] = value
                stats.bound_evaluations += 1
            return value

        lo, hi = arrival_interval.start, arrival_interval.end
        run = (
            self._context.begin()
            if deadline is None
            else self._context.begin(deadline=deadline)
        )
        stats = run.stats
        queue = LabelQueue()
        dominance = _LatestDepartureStore(lo, hi)
        border = AnnotatedEnvelope(lo, hi)
        departures: dict[Hashable, PiecewiseLinearFunction] = {}
        expanded_nodes: set[int] = set()
        first_source_label: PathLabel | None = None

        def exit_hook(s: SearchStats) -> None:
            s.distinct_nodes = len(expanded_nodes)
            s.max_queue_size = queue.max_size

        run.exit_hook = exit_hook

        # A backward label reuses PathLabel with ``arrival`` holding the
        # departure function D(a): travel = a − D(a) = −(D − identity), so
        # minus_identity() . scale(−1) gives the travel function.
        def make_label(path, departure_fn, estimate):
            # Lazy ranking: travel = a − D(a) shares D's breakpoints, so
            # its minimum is read directly off the arrays.
            t_min = min(
                x - y for x, y in zip(departure_fn._xs, departure_fn._ys)
            )
            return PathLabel(path, departure_fn, estimate, t_min + estimate)

        queue.push(make_label((target,), identity(lo, hi), est(target)))
        stats.labels_generated += 1

        while queue:
            label = queue.pop()
            if label.f_min >= border.max_value() - EPS:
                break
            head = label.path[0]
            if head == source:
                if first_source_label is None:
                    first_source_label = label
                    if single_only:
                        break
                travel_fn = label.arrival.minus_identity().scale(-1.0)
                border.add(travel_fn, tag=label.path)
                departures.setdefault(label.path, label.arrival)
                continue
            if self._prune and dominance.is_dominated(head, label.arrival):
                stats.pruned_dominated += 1
                continue
            if self._prune:
                dominance.add(head, label.arrival)

            stats.expanded_paths += 1
            expanded_nodes.add(head)
            run.tick()
            dep_lo, dep_hi = label.arrival.y_min, label.arrival.y_max
            for edge in self._incoming(head):
                if edge.source in label.path:
                    continue
                stats.labels_generated += 1
                # To reach the head within [dep_lo, dep_hi] one enters the
                # edge no earlier than its slowest traversal before dep_lo.
                slowest = edge.distance / edge.pattern.min_speed()
                inverse = run.edge_arrival(
                    edge, dep_lo - slowest - 1.0, dep_hi
                ).inverse()
                new_departure = inverse.compose(label.arrival).simplify()
                if self._prune and dominance.is_dominated(
                    edge.source, new_departure
                ):
                    stats.pruned_dominated += 1
                    continue
                new_label = make_label(
                    (edge.source,) + label.path, new_departure, est(edge.source)
                )
                if new_label.f_min >= border.max_value() - EPS:
                    stats.pruned_bound += 1
                    continue
                queue.push(new_label)

        run.finalize()

        if first_source_label is None:
            raise NoPathError(source, target, stats=stats)

        travel_fn = first_source_label.arrival.minus_identity().scale(-1.0)
        single = SingleFPResult(
            source=source,
            target=target,
            interval=arrival_interval,
            path=first_source_label.path,
            travel_time_function=travel_fn,
            optimal_travel_time=travel_fn.min_value(),
            optimal_intervals=tuple(travel_fn.argmin_intervals()),
            stats=stats,
        )
        if single_only:
            return (single, None)

        entries = [
            AllFPEntry(TimeInterval(start, end), path)
            for start, end, path in border.partition()
        ]
        result = ArrivalAllFPResult(
            source=source,
            target=target,
            interval=arrival_interval,
            entries=merge_adjacent_entries(entries),
            border=border.as_function(),
            stats=stats,
            departures=dict(departures),
        )
        return (single, result)


class ArrivalAllFPResult(AllFPResult):
    """allFP answer keyed by *arrival* time, plus departure functions.

    ``interval`` / ``entries`` / ``border`` are indexed by the arrival
    instant at the target; :meth:`departure_at` recovers the leaving time
    the plan requires.
    """

    def __init__(self, *, departures, **kwargs) -> None:
        object.__setattr__(self, "_departures", departures)
        super().__init__(**kwargs)

    def departure_at(self, arrival_time: float) -> float:
        """Latest departure from the source to arrive exactly then."""
        path = self.path_at(arrival_time)
        departure_fn = self._departures[path]
        return departure_fn(self.interval.clamp(arrival_time))
