"""One-to-many and many-pair batch fastest-path queries.

A batch is a list of ``(source, target)`` pairs answered together.  The
engine groups the pairs by source and runs **one** profile search per
distinct source (:func:`~repro.core.profile.profile_search`; its
``targets=`` only filters the returned mapping, the search itself runs to
completion), so a one-to-many batch of N targets costs a single search
instead of N allFP runs, and every group shares the same
:class:`~repro.core.runtime.SearchContext` — edge arrival functions the
first group stored are reads for every later one.

Per-item semantics under failure: a deadline or budget exhausted mid-batch
does not discard the answers already computed.  The failing group's items
(and, for a deadline, every remaining group's items) are returned with
``reachable=False`` and an ``error`` string; completed items keep their
answers.  The aggregated :class:`~repro.core.results.SearchStats` sums the
per-group counters so the batch reports its total work.

Used by ``AllFPService`` mode ``"batch"``, the ``/v1/batch`` HTTP endpoint,
and the ``repro-allfp batch`` CLI verb.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..exceptions import NetworkError, QueryError
from ..func.monotone import MonotonePiecewiseLinear
from ..timeutil import TimeInterval
from .results import SearchStats
from .profile import profile_search
from .runtime import QueryTimeout, SearchBudgetExceeded, SearchContext


@dataclass(frozen=True)
class BatchItemResult:
    """Answer for one ``(source, target)`` pair of a batch query.

    ``reachable`` is False when the target has no path from the source
    within the interval *or* when the pair's group failed (deadline,
    budget, unknown node) — ``error`` distinguishes the two: it is None
    for a genuinely unreachable target and a ``"Type: detail"`` string
    for a failed group.
    """

    source: int
    target: int
    reachable: bool
    optimal_travel_time: float | None = None
    optimal_intervals: tuple[tuple[float, float], ...] = ()
    travel_time_function: MonotonePiecewiseLinear | None = None
    error: str | None = None

    def as_dict(self) -> dict:
        """JSON-ready view (used by the ``/v1/batch`` endpoint)."""
        return {
            "source": self.source,
            "target": self.target,
            "reachable": self.reachable,
            "optimal_travel_time": self.optimal_travel_time,
            "optimal_intervals": [list(w) for w in self.optimal_intervals],
            "travel_time_function": None
            if self.travel_time_function is None
            else [list(p) for p in self.travel_time_function.breakpoints],
            "error": self.error,
        }


@dataclass(frozen=True)
class BatchResult:
    """Answer to a batch query: one item per input pair, in input order.

    ``groups`` is the number of distinct sources, i.e. the number of
    profile searches the batch actually ran; comparing it against
    ``len(items)`` shows the amortisation the batch achieved.
    """

    interval: TimeInterval
    items: tuple[BatchItemResult, ...]
    groups: int
    stats: SearchStats

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def errors(self) -> tuple[BatchItemResult, ...]:
        """The items that failed (deadline/budget/unknown node)."""
        return tuple(item for item in self.items if item.error is not None)

    def __str__(self) -> str:
        ok = sum(1 for i in self.items if i.error is None)
        return (
            f"batch during {self.interval}: {len(self.items)} pair(s) in "
            f"{self.groups} group(s), {ok} answered"
        )

    def as_dict(self) -> dict:
        """JSON-ready view (used by the ``/v1/batch`` endpoint)."""
        return {
            "interval": [self.interval.start, self.interval.end],
            "groups": self.groups,
            "items": [item.as_dict() for item in self.items],
            "stats": self.stats.as_dict(),
        }


#: SearchStats counter fields summed across the batch's profile searches.
_SUMMED_COUNTERS = (
    "expanded_paths",
    "distinct_nodes",
    "labels_generated",
    "pruned_dominated",
    "pruned_bound",
    "page_reads",
    "breakpoints_allocated",
    "envelope_merges",
    "edge_cache_hits",
    "edge_cache_misses",
    "bound_evaluations",
)


def _merge_stats(agg: SearchStats, stats: SearchStats) -> None:
    for name in _SUMMED_COUNTERS:
        setattr(agg, name, getattr(agg, name) + getattr(stats, name))
    agg.max_queue_size = max(agg.max_queue_size, stats.max_queue_size)
    agg.timed_out = agg.timed_out or stats.timed_out


def _failed_items(
    members: Sequence[tuple[int, int]], source: int, error: str
) -> Iterable[tuple[int, BatchItemResult]]:
    for index, target in members:
        yield index, BatchItemResult(
            source=source, target=target, reachable=False, error=error
        )


def batch_fastest_times(
    network,
    pairs: Iterable[tuple[int, int]],
    interval: TimeInterval,
    *,
    context: SearchContext | None = None,
    max_pops: int | None = None,
    deadline: float | None = None,
) -> BatchResult:
    """Answer a batch of ``(source, target)`` fastest-time queries.

    Parameters
    ----------
    pairs:
        The queries, answered in input order.  Duplicate pairs are each
        answered (cheaply — the group's search runs once).  A one-to-many
        query is simply ``[(s, t) for t in targets]``.
    context:
        An existing :class:`~repro.core.runtime.SearchContext` to run every
        group on — this is what lets a service share its edge-function
        cache with the batch.  A private context is created when omitted.
    max_pops:
        Per-group pop budget; a group that exceeds it yields error items
        and the batch moves on to the next group.
    deadline:
        Wall-clock budget in seconds for the *whole batch*.  The remaining
        time is re-measured before each group; groups past the deadline
        yield error items without searching.
    """
    pair_list: list[tuple[int, int]] = []
    for pair in pairs:
        source, target = pair
        pair_list.append((int(source), int(target)))
    if not pair_list:
        raise QueryError("batch requires at least one (source, target) pair")

    ctx = context if context is not None else SearchContext(network)

    # Group pair indices by source, preserving first-appearance order.
    groups: dict[int, list[tuple[int, int]]] = {}
    for index, (source, target) in enumerate(pair_list):
        groups.setdefault(source, []).append((index, target))

    out: list[BatchItemResult | None] = [None] * len(pair_list)
    agg = SearchStats()
    started = time.monotonic()

    for source, members in groups.items():
        targets = sorted({target for _index, target in members})
        remaining: float | None = None
        if deadline is not None:
            remaining = deadline - (time.monotonic() - started)
            if remaining <= 0.0:
                agg.timed_out = True
                error = (
                    "QueryTimeout: batch deadline of "
                    f"{deadline:.3f}s exhausted before this group"
                )
                for index, item in _failed_items(members, source, error):
                    out[index] = item
                continue
        try:
            result = profile_search(
                network,
                source,
                interval,
                targets=targets,
                context=ctx,
                max_pops=max_pops,
                deadline=remaining,
            )
        except QueryTimeout as exc:
            agg.timed_out = True
            _merge_stats(agg, exc.stats)
            error = f"QueryTimeout: {exc}"
            for index, item in _failed_items(members, source, error):
                out[index] = item
            continue
        except SearchBudgetExceeded as exc:
            _merge_stats(agg, exc.stats)
            error = f"SearchBudgetExceeded: {exc}"
            for index, item in _failed_items(members, source, error):
                out[index] = item
            continue
        except NetworkError as exc:
            error = f"{type(exc).__name__}: {exc}"
            for index, item in _failed_items(members, source, error):
                out[index] = item
            continue
        _merge_stats(agg, result.stats)
        for index, target in members:
            arrival = result.profiles.get(target)
            if arrival is None:
                out[index] = BatchItemResult(
                    source=source, target=target, reachable=False
                )
                continue
            travel = arrival.minus_identity()
            out[index] = BatchItemResult(
                source=source,
                target=target,
                reachable=True,
                optimal_travel_time=travel.min_value(),
                optimal_intervals=tuple(travel.argmin_intervals()),
                travel_time_function=travel,
            )

    agg.elapsed_seconds = time.monotonic() - started
    return BatchResult(
        interval=interval,
        items=tuple(out),  # type: ignore[arg-type]
        groups=len(groups),
        stats=agg,
    )


def batch_one_to_many(
    network,
    source: int,
    targets: Iterable[int],
    interval: TimeInterval,
    **kwargs,
) -> BatchResult:
    """One-to-many convenience wrapper: one source, many targets."""
    return batch_fastest_times(
        network, [(source, target) for target in targets], interval, **kwargs
    )
