"""IntAllFastestPaths — the paper's algorithm (§4.2–§4.6).

The engine keeps a priority queue of expanded paths, each carrying a
piecewise-linear arrival function over the query's leaving-time interval.
Per iteration it pops the path whose ranking function ``T(l) + T_est`` has
the smallest minimum, and either

* folds it into the *lower border function* when it already ends at the
  destination (the running pointwise minimum that becomes the allFP answer),
  or
* expands it along every outgoing edge, composing the path's arrival
  function with the edge's (§4.4's combine step).

It stops when the queue is exhausted or the cheapest queued entry can no
longer improve the border anywhere — the paper's termination test: popped
minima only grow while the border's maximum only shrinks.

The first destination-ending path popped answers the singleFP query; the
completed border answers the allFP query.

Loop plumbing (edge-function store, stats, budgets, deadlines) lives in
:mod:`repro.core.runtime`.
"""

from __future__ import annotations

from ..estimators.base import LowerBoundEstimator
from ..estimators.naive import NaiveEstimator
from ..exceptions import NoPathError, QueryError
from ..func.envelope import AnnotatedEnvelope
from ..func.monotone import identity
from ..timeutil import EPS, TimeInterval
from .dominance import _DOM_TOL, DominanceStore
from .labels import LabelQueue, PathLabel
from .results import (
    AllFPEntry,
    AllFPResult,
    SearchStats,
    SingleFPResult,
    merge_adjacent_entries,
)
from .runtime import (
    EdgeFunctionCache,
    QueryTimeout,
    SearchBudgetExceeded,
    SearchContext,
)

__all__ = [
    "IntAllFastestPaths",
    "SearchBudgetExceeded",
    "QueryTimeout",
    "SearchContext",
]


class IntAllFastestPaths:
    """The paper's query engine for allFP and singleFP queries.

    Parameters
    ----------
    network:
        A :class:`~repro.core.graph.Graph` — an in-memory network, a CCAM
        store or a view (transposed, restricted, overlay).
    estimator:
        A prepared-per-query :class:`~repro.estimators.base.LowerBoundEstimator`;
        defaults to the naive Euclidean/v_max bound.
    prune:
        Enable per-node dominance pruning (see DESIGN.md; ``False`` runs the
        paper's literal algorithm, which can blow up combinatorially).
    max_pops:
        Safety budget on queue pops; exceeded raises
        :class:`~repro.core.runtime.SearchBudgetExceeded`.
    deadline:
        Default wall-clock budget **in seconds** applied to every query;
        exceeded raises :class:`~repro.core.runtime.QueryTimeout`.  Each
        query method also accepts a per-call ``deadline`` override.
    context:
        An existing :class:`~repro.core.runtime.SearchContext` to run on
        (shares its edge-function store with every other engine on it);
        overrides ``max_pops``/``deadline``.
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

    @property
    def estimator(self) -> LowerBoundEstimator:
        return self._estimator

    @property
    def context(self) -> SearchContext:
        return self._context

    @property
    def edge_cache(self) -> EdgeFunctionCache:
        return self._context.edge_cache

    # ------------------------------------------------------------------
    def all_fastest_paths(
        self,
        source: int,
        target: int,
        interval: TimeInterval,
        deadline: float | None = None,
    ) -> AllFPResult:
        """Answer the allFP query: every fastest path, one per sub-interval."""
        _single, all_fp = self._run(
            source, target, interval, single_only=False, deadline=deadline
        )
        assert all_fp is not None
        return all_fp

    def single_fastest_path(
        self,
        source: int,
        target: int,
        interval: TimeInterval,
        deadline: float | None = None,
    ) -> SingleFPResult:
        """Answer the singleFP query: the best leaving instant and its path."""
        single, _all = self._run(
            source, target, interval, single_only=True, deadline=deadline
        )
        return single

    # ------------------------------------------------------------------
    def _run(
        self,
        source: int,
        target: int,
        interval: TimeInterval,
        single_only: bool,
        deadline: float | None = None,
    ) -> tuple[SingleFPResult, AllFPResult | None]:
        self._network.location(source)
        self._network.location(target)
        if source == target:
            raise QueryError("source and target must differ")

        estimator = self._estimator
        estimator.prepare(target)
        bounds: dict[int, float] = {}

        run = (
            self._context.begin()
            if deadline is None
            else self._context.begin(deadline=deadline)
        )
        stats = run.stats

        def est(node: int) -> float:
            cached = bounds.get(node)
            if cached is None:
                cached = estimator.bound(node)
                bounds[node] = cached
                stats.bound_evaluations += 1
            return cached

        lo, hi = interval.start, interval.end
        queue = LabelQueue()
        dominance = DominanceStore(lo, hi)
        border = AnnotatedEnvelope(lo, hi)
        expanded_nodes: set[int] = set()
        first_target_label: PathLabel | None = None

        def exit_hook(s: SearchStats) -> None:
            s.distinct_nodes = len(expanded_nodes)
            s.max_queue_size = queue.max_size

        run.exit_hook = exit_hook

        queue.push(PathLabel.make((source,), identity(lo, hi), est(source)))
        stats.labels_generated += 1

        # Hierarchical query graphs can trim a label's out-edges using the
        # node it arrived from (e.g. suppressing chained same-cell
        # shortcuts); plain networks just ignore the predecessor.
        outgoing_from = self._network.outgoing_from

        while queue:
            label = queue.pop()
            if label.f_min >= border.max_value() - EPS:
                break  # §4.6 termination: nothing queued can improve the border
            if label.end == target:
                if first_target_label is None:
                    first_target_label = label
                    if single_only:
                        break
                border.add(label.travel_time_function(), tag=label.path)
                continue
            if self._prune and dominance.is_dominated(label.end, label.arrival):
                stats.pruned_dominated += 1
                continue
            if self._prune:
                dominance.add(label.end, label.arrival)

            stats.expanded_paths += 1
            expanded_nodes.add(label.end)
            run.tick()

            arr_lo, arr_hi = label.arrival.value_range
            travel_lb = label.f_min - label.estimate
            path = label.path
            edges = outgoing_from(
                label.end, path[-2] if len(path) > 1 else None
            )
            for edge in edges:
                if edge.target in label.path:
                    continue  # FIFO makes non-simple paths never faster
                stats.labels_generated += 1
                # Overlay shortcuts carry a precomputed fastest traversal;
                # a label that cannot beat the border even at that speed
                # skips the compose entirely (a lower bound on the full
                # f_min check below, so exactness is untouched).
                mtt = edge.min_tt
                if (
                    mtt > 0
                    and travel_lb + mtt + est(edge.target)
                    >= border.max_value() - EPS
                ):
                    stats.pruned_bound += 1
                    continue
                # Scalar dominance pre-test: the composed arrival will be
                # everywhere >= arr_lo + (the edge's fastest traversal), so
                # when the target's envelope never exceeds that the label is
                # dominated before it exists — no compose, no allocation.
                if self._prune and arr_lo + mtt >= dominance.max_at(
                    edge.target
                ) - _DOM_TOL:
                    stats.pruned_dominated += 1
                    continue
                edge_fn = run.edge_arrival(edge, arr_lo, arr_hi)
                new_arrival = edge_fn.compose(label.arrival).simplify()
                if self._prune and dominance.is_dominated(
                    edge.target, new_arrival
                ):
                    stats.pruned_dominated += 1
                    continue
                new_label = PathLabel.make(
                    label.path + (edge.target,), new_arrival, est(edge.target)
                )
                if new_label.f_min >= border.max_value() - EPS:
                    stats.pruned_bound += 1
                    continue
                queue.push(new_label)

        run.finalize()

        if first_target_label is None:
            raise NoPathError(source, target, stats=stats)

        single = self._build_single(
            source, target, interval, first_target_label, stats
        )
        if single_only:
            return (single, None)
        return (single, self._build_all(source, target, interval, border, stats))

    # ------------------------------------------------------------------
    @staticmethod
    def _build_single(
        source: int,
        target: int,
        interval: TimeInterval,
        label: PathLabel,
        stats: SearchStats,
    ) -> SingleFPResult:
        travel = label.travel_time_function()
        return SingleFPResult(
            source=source,
            target=target,
            interval=interval,
            path=label.path,
            travel_time_function=travel,
            optimal_travel_time=travel.min_value(),
            optimal_intervals=tuple(travel.argmin_intervals()),
            stats=stats,
        )

    @staticmethod
    def _build_all(
        source: int,
        target: int,
        interval: TimeInterval,
        border: AnnotatedEnvelope,
        stats: SearchStats,
    ) -> AllFPResult:
        entries = [
            AllFPEntry(TimeInterval(start, end), path)
            for start, end, path in border.partition()
        ]
        return AllFPResult(
            source=source,
            target=target,
            interval=interval,
            entries=merge_adjacent_entries(entries),
            border=border.as_function(),
            stats=stats,
        )
