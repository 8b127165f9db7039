"""Result and statistics types returned by the query engines."""

from __future__ import annotations

from dataclasses import dataclass

from ..func.piecewise import PiecewiseLinearFunction
from ..timeutil import TimeInterval, format_clock, format_duration


@dataclass
class SearchStats:
    """Counters describing one query execution.

    ``expanded_paths`` is the paper's "number of expanded nodes" metric: the
    number of priority-queue pops whose entry was expanded (each pop expands
    one node's adjacency list).  ``distinct_nodes`` counts how many different
    nodes those expansions touched.

    The kernel counters describe function-algebra work done by the query:
    ``breakpoints_allocated`` (output breakpoints written by kernel
    operators), ``envelope_merges`` (fused envelope/dominance folds), and
    ``edge_cache_hits`` / ``edge_cache_misses`` for the engine's cross-query
    edge-function cache.

    ``bound_evaluations`` counts calls into the estimator's ``bound()``
    (the engines memoize per node, so this equals the number of distinct
    nodes the estimator was consulted for).

    ``elapsed_seconds`` is the wall-clock time the search took;
    ``timed_out`` is set when the search was cut short by a query deadline
    (see :class:`~repro.core.engine.QueryTimeout`).
    """

    expanded_paths: int = 0
    distinct_nodes: int = 0
    labels_generated: int = 0
    pruned_dominated: int = 0
    pruned_bound: int = 0
    max_queue_size: int = 0
    page_reads: int = 0
    breakpoints_allocated: int = 0
    envelope_merges: int = 0
    edge_cache_hits: int = 0
    edge_cache_misses: int = 0
    bound_evaluations: int = 0
    elapsed_seconds: float = 0.0
    timed_out: bool = False

    def as_dict(self) -> dict[str, int | float | bool]:
        return {
            "expanded_paths": self.expanded_paths,
            "distinct_nodes": self.distinct_nodes,
            "labels_generated": self.labels_generated,
            "pruned_dominated": self.pruned_dominated,
            "pruned_bound": self.pruned_bound,
            "max_queue_size": self.max_queue_size,
            "page_reads": self.page_reads,
            "breakpoints_allocated": self.breakpoints_allocated,
            "envelope_merges": self.envelope_merges,
            "edge_cache_hits": self.edge_cache_hits,
            "edge_cache_misses": self.edge_cache_misses,
            "bound_evaluations": self.bound_evaluations,
            "elapsed_seconds": self.elapsed_seconds,
            "timed_out": self.timed_out,
        }


@dataclass(frozen=True)
class FixedPathResult:
    """Answer to the degenerate single-leaving-instant query."""

    source: int
    target: int
    depart: float
    path: tuple[int, ...]
    arrival: float
    stats: SearchStats

    @property
    def travel_time(self) -> float:
        """Travel time in minutes."""
        return self.arrival - self.depart

    def __str__(self) -> str:
        hops = " -> ".join(str(n) for n in self.path)
        return (
            f"leave {format_clock(self.depart)}: {hops} "
            f"({format_duration(self.travel_time)})"
        )


@dataclass(frozen=True)
class SingleFPResult:
    """Answer to the singleFP query (§2.1).

    ``optimal_intervals`` lists the maximal sub-intervals of the query
    interval over which leaving achieves the minimum travel time — the paper
    reports e.g. "any time instant in [7:00, 7:03] is an optimal leaving
    time".
    """

    source: int
    target: int
    interval: TimeInterval
    path: tuple[int, ...]
    travel_time_function: PiecewiseLinearFunction
    optimal_travel_time: float
    optimal_intervals: tuple[tuple[float, float], ...]
    stats: SearchStats

    @property
    def best_leaving_time(self) -> float:
        """One optimal leaving instant (leftmost)."""
        return self.optimal_intervals[0][0]

    def __str__(self) -> str:
        hops = " -> ".join(str(n) for n in self.path)
        windows = ", ".join(
            f"[{format_clock(a)}, {format_clock(b)}]"
            for a, b in self.optimal_intervals
        )
        return (
            f"singleFP {self.source}->{self.target} during {self.interval}: "
            f"{hops}, {format_duration(self.optimal_travel_time)} "
            f"when leaving within {windows}"
        )

    def as_dict(self) -> dict:
        """A JSON-serialisable view of the answer (for APIs / logs)."""
        return {
            "source": self.source,
            "target": self.target,
            "interval": [self.interval.start, self.interval.end],
            "path": list(self.path),
            "optimal_travel_time": self.optimal_travel_time,
            "optimal_intervals": [list(w) for w in self.optimal_intervals],
            "travel_time_function": [
                list(p) for p in self.travel_time_function.breakpoints
            ],
            "stats": self.stats.as_dict(),
        }


@dataclass(frozen=True)
class AllFPEntry:
    """One piece of the allFP answer: a sub-interval and its fastest path."""

    interval: TimeInterval
    path: tuple[int, ...]

    def __str__(self) -> str:
        hops = " -> ".join(str(n) for n in self.path)
        return f"{self.interval}: {hops}"


@dataclass(frozen=True)
class AllFPResult:
    """Answer to the allFP query: a full partition of the leaving interval.

    ``entries`` are the maximal sub-intervals, in chronological order, each
    with the path that is fastest throughout it.  ``border`` is the lower
    border function (§4.6): the travel time achieved by the per-interval
    fastest paths, as a function of the leaving time.
    """

    source: int
    target: int
    interval: TimeInterval
    entries: tuple[AllFPEntry, ...]
    border: PiecewiseLinearFunction
    stats: SearchStats

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def distinct_paths(self) -> tuple[tuple[int, ...], ...]:
        """The different fastest paths, in order of first appearance."""
        seen: list[tuple[int, ...]] = []
        for entry in self.entries:
            if entry.path not in seen:
                seen.append(entry.path)
        return tuple(seen)

    def path_at(self, leaving_time: float) -> tuple[int, ...]:
        """The fastest path when leaving at the given instant."""
        for entry in self.entries:
            if entry.interval.contains(leaving_time):
                return entry.path
        raise ValueError(
            f"leaving time {leaving_time} outside query interval {self.interval}"
        )

    def travel_time_at(self, leaving_time: float) -> float:
        """Optimal travel time (minutes) when leaving at the given instant."""
        return self.border(self.interval.clamp(leaving_time))

    def best(self) -> tuple[float, float]:
        """``(best_leaving_time, best_travel_time)`` over the whole interval."""
        fn = self.border
        return (fn.argmin(), fn.min_value())

    def __str__(self) -> str:
        lines = [
            f"allFP {self.source}->{self.target} during {self.interval}: "
            f"{len(self.entries)} sub-interval(s)"
        ]
        lines.extend(f"  {entry}" for entry in self.entries)
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """A JSON-serialisable view of the answer (for APIs / logs)."""
        return {
            "source": self.source,
            "target": self.target,
            "interval": [self.interval.start, self.interval.end],
            "entries": [
                {
                    "interval": [e.interval.start, e.interval.end],
                    "path": list(e.path),
                }
                for e in self.entries
            ],
            "border": [list(p) for p in self.border.breakpoints],
            "stats": self.stats.as_dict(),
        }


def merge_adjacent_entries(entries: list[AllFPEntry]) -> tuple[AllFPEntry, ...]:
    """Merge chronologically adjacent entries that share the same path."""
    merged: list[AllFPEntry] = []
    for entry in entries:
        if merged and merged[-1].path == entry.path:
            merged[-1] = AllFPEntry(
                TimeInterval(merged[-1].interval.start, entry.interval.end),
                entry.path,
            )
        else:
            merged.append(entry)
    return tuple(merged)
