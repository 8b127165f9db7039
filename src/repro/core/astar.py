"""Time-dependent A* for a single leaving instant (system S9).

This is the special case the paper notes is "trivial": once the leaving time
at a node is fixed, the arrival time over each outgoing edge is fixed, so the
classical A* of [15] applies with the time-dependent edge delays evaluated
on the fly.  FIFO (guaranteed by the flow-speed model) makes the
label-setting expansion exact: delaying departure from a node never yields an
earlier arrival, so the first settle of a node is optimal.

Roles in this repository:

* the inner loop of the discrete-time baseline (§6.3),
* the independent test oracle that IntAllFastestPaths is validated against,
* the engine behind the constant-speed "commercial navigation" comparison.

The search runs on the shared :mod:`repro.core.runtime`: stats are
finalized on **every** exit (success, no-path, budget, timeout), and
``max_pops``/``deadline`` behave exactly as on the interval engines.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from ..exceptions import NoPathError, QueryError
from ..patterns.travel_time import traverse
from .results import FixedPathResult, SearchStats
from .runtime import SearchContext


def fixed_departure_query(
    network,
    source: int,
    target: int,
    depart: float,
    heuristic: Callable[[int], float] | None = None,
    *,
    max_pops: int | None = None,
    deadline: float | None = None,
    context: SearchContext | None = None,
) -> FixedPathResult:
    """Fastest path for one leaving instant, via time-dependent A*.

    Parameters
    ----------
    network:
        A :class:`~repro.core.graph.Graph` — an in-memory
        :class:`~repro.network.model.CapeCodNetwork`, a CCAM store or a
        view over either (one cell's streets are a
        :func:`~repro.core.graph.restrict` view).
    heuristic:
        Admissible lower bound (minutes) from a node to ``target``; ``None``
        degrades A* to time-dependent Dijkstra.  Pass
        ``estimator.bound`` after ``estimator.prepare(target)``.
    max_pops:
        Budget on settled-node expansions; exceeded raises
        :class:`~repro.core.runtime.SearchBudgetExceeded` with partial stats.
    deadline:
        Wall-clock budget in seconds; exceeded raises
        :class:`~repro.core.runtime.QueryTimeout` with partial stats.
    context:
        An existing :class:`~repro.core.runtime.SearchContext` supplying the
        defaults for both (per-call arguments override it).
    """
    network.location(source)
    network.location(target)
    if source == target:
        raise QueryError("source and target must differ")
    calendar = network.calendar
    h = heuristic if heuristic is not None else (lambda _node: 0.0)

    ctx = context or SearchContext(network)
    run = ctx.begin(
        **({} if max_pops is None else {"max_pops": max_pops}),
        **({} if deadline is None else {"deadline": deadline}),
    )
    stats = run.stats
    counter = itertools.count()
    best_arrival: dict[int, float] = {source: depart}
    parent: dict[int, int] = {}
    settled: set[int] = set()
    run.exit_hook = lambda s: setattr(s, "distinct_nodes", len(settled))
    heap: list[tuple[float, int, float, int]] = [
        (depart + h(source), next(counter), depart, source)
    ]
    stats.labels_generated += 1

    while heap:
        stats.max_queue_size = max(stats.max_queue_size, len(heap))
        _f, _tie, arrival, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            path = _reconstruct(parent, source, target)
            run.finalize()
            return FixedPathResult(
                source, target, depart, path, arrival, stats
            )
        stats.expanded_paths += 1
        run.tick()
        for edge in network.outgoing(node):
            if edge.target in settled:
                continue
            stats.labels_generated += 1
            new_arrival = traverse(
                edge.distance, edge.pattern, calendar, arrival
            )
            if new_arrival < best_arrival.get(edge.target, float("inf")) - 1e-12:
                best_arrival[edge.target] = new_arrival
                parent[edge.target] = node
                heapq.heappush(
                    heap,
                    (
                        new_arrival + h(edge.target),
                        next(counter),
                        new_arrival,
                        edge.target,
                    ),
                )
    # Queue exhausted without settling the target: finalize the partial
    # stats and attach them to the error so the work is still observable.
    raise NoPathError(source, target, stats=run.finalize())


def _reconstruct(
    parent: dict[int, int], source: int, target: int
) -> tuple[int, ...]:
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return tuple(path)


def path_arrival_time(
    network, path: tuple[int, ...], depart: float
) -> float:
    """Arrival time of driving ``path`` leaving its first node at ``depart``.

    Utility used to score paths chosen by approximate methods (the
    discrete-time baseline) at exact leaving instants.
    """
    calendar = network.calendar
    t = depart
    for u, v in zip(path, path[1:]):
        edge = network.find_edge(u, v)
        t = traverse(edge.distance, edge.pattern, calendar, t)
    return t


def path_travel_time(network, path: tuple[int, ...], depart: float) -> float:
    """Travel time (minutes) of driving ``path`` leaving at ``depart``."""
    return path_arrival_time(network, path, depart) - depart
