"""One-to-all earliest-arrival profile search.

:func:`profile_search` computes, for every node reachable from a source, the
*earliest-arrival function* over a departure window — the pointwise minimum
of the arrival functions of all paths from the source.  This is the
label-correcting "profile search" of the time-dependent routing literature,
built from the same two primitives as IntAllFastestPaths: monotone function
composition (extend a profile along an edge) and pointwise minimum (merge
alternative paths into one profile per node).

Used by the hierarchical subsystem (S15 in DESIGN.md) to materialise
boundary-to-boundary shortcut functions inside a network fragment, by the
time-interval kNN feature, and by the ``/v1/profile`` service endpoint.

Per-node profiles are kept as raw breakpoint arrays and updated with the
fused flat-array operators of :mod:`repro.func.kernel` — ``compose`` to
extend along an edge, ``lt_somewhere`` as an O(n) improvement test that
skips the merge entirely when a candidate is nowhere better, and
``merge_min`` + ``simplify`` when it is.  Function objects are only
materialised once at the end, via
``MonotonePiecewiseLinear._trusted_monotone``.

The search reads any :class:`~repro.core.graph.Graph` — a subgraph is a
:func:`~repro.core.graph.restrict` view — and runs on the shared
:mod:`repro.core.runtime`: every edge function is read through the
context's :class:`~repro.core.runtime.EdgeFunctionCache` (canonical
``(edge, day)`` functions for streets, stored rows for hierarchy
shortcuts), ``max_pops``/``deadline`` are enforced per node pop, and a
finalized :class:`~repro.core.results.SearchStats` is attached to every
exit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..func import kernel
from ..func.monotone import MonotonePiecewiseLinear, identity
from ..timeutil import TimeInterval
from .results import SearchStats
from .runtime import SearchContext

#: Safety valve against non-terminating relaxation (cannot trigger on FIFO
#: networks, where every relaxation strictly lowers a finite envelope).
_MAX_RELAXATIONS_FACTOR = 2000

#: Tolerance below which a candidate profile is not considered an improvement.
_IMPROVE_TOL = 1e-9


@dataclass(frozen=True)
class ProfileResult:
    """Answer to a one-to-all (or one-to-many) profile search.

    ``profiles`` maps node id to its earliest-arrival function over the
    query interval; unreachable nodes are absent.  ``stats`` is the
    finalized per-run counter set shared with every other engine.
    """

    source: int
    interval: TimeInterval
    profiles: Mapping[int, MonotonePiecewiseLinear]
    stats: SearchStats

    def travel_time(self, node: int):
        """Travel-time function to ``node`` (arrival minus leave), or None."""
        arrival = self.profiles.get(node)
        return None if arrival is None else arrival.minus_identity()

    def as_dict(self) -> dict:
        """JSON-ready view (used by the ``/v1/profile`` service endpoint)."""
        return {
            "source": self.source,
            "interval": [self.interval.start, self.interval.end],
            "profiles": {
                str(node): [[x, y] for x, y in fn.breakpoints]
                for node, fn in sorted(self.profiles.items())
            },
            "stats": self.stats.as_dict(),
        }


def profile_search(
    network,
    source: int,
    interval: TimeInterval,
    targets: Iterable[int] | None = None,
    *,
    context: SearchContext | None = None,
    max_pops: int | None = None,
    deadline: float | None = None,
) -> ProfileResult:
    """Earliest-arrival functions from ``source`` over a departure window.

    Parameters
    ----------
    network:
        A :class:`~repro.core.graph.Graph` (search a subgraph through a
        :func:`~repro.core.graph.restrict` view).
    interval:
        Departure window at the source.
    targets:
        Optional convenience: when given, the returned mapping is restricted
        to these nodes (the computation itself is unaffected).
    context:
        An existing :class:`~repro.core.runtime.SearchContext` to run on —
        shares its warm edge-function cache and default budgets.
    max_pops:
        Budget on node pops; exceeded raises
        :class:`~repro.core.runtime.SearchBudgetExceeded` with partial stats.
    deadline:
        Wall-clock budget in seconds; exceeded raises
        :class:`~repro.core.runtime.QueryTimeout` with partial stats.
    """
    network.location(source)
    lo, hi = interval.start, interval.end
    ctx = context or SearchContext(network)
    run = ctx.begin(
        **({} if max_pops is None else {"max_pops": max_pops}),
        **({} if deadline is None else {"deadline": deadline}),
    )
    stats = run.stats
    budget = _MAX_RELAXATIONS_FACTOR * max(1, network.node_count)

    profiles = _search(network, source, lo, hi, run, budget)
    run.finalize()

    if targets is not None:
        wanted = set(targets)
        profiles = {n: fn for n, fn in profiles.items() if n in wanted}
    return ProfileResult(source, interval, profiles, stats)


def _search(
    network, source, lo, hi, run, budget
) -> dict[int, MonotonePiecewiseLinear]:
    """Flat-array loop: profiles live as (xs, ys) arrays until the end."""
    seed = identity(lo, hi)
    prof: dict[int, tuple[list[float], list[float]]] = {
        source: (list(seed._xs), list(seed._ys))
    }
    run.exit_hook = lambda s: setattr(s, "distinct_nodes", len(prof))
    stats = run.stats
    queue: deque[int] = deque([source])
    queued = {source}
    relaxations = 0

    while queue:
        stats.max_queue_size = max(stats.max_queue_size, len(queue))
        u = queue.popleft()
        queued.discard(u)
        u_xs, u_ys = prof[u]
        arr_lo, arr_hi = u_ys[0], u_ys[-1]
        stats.expanded_paths += 1
        run.tick()
        for edge in network.outgoing(u):
            v = edge.target
            relaxations += 1
            if relaxations > budget:
                raise run.over_budget(budget, "relaxations")
            stats.labels_generated += 1
            edge_fn = run.edge_arrival(edge, arr_lo, arr_hi)
            cxs, cys = kernel.compose(edge_fn._xs, edge_fn._ys, u_xs, u_ys)
            cxs, cys = kernel.simplify(cxs, cys, _IMPROVE_TOL)
            incumbent = prof.get(v)
            if incumbent is None:
                prof[v] = (cxs, cys)
            else:
                inc_xs, inc_ys = incumbent
                if not kernel.lt_somewhere(
                    cxs, cys, inc_xs, inc_ys, _IMPROVE_TOL
                ):
                    continue  # candidate nowhere better: skip the merge
                mxs, mys = kernel.merge_min(inc_xs, inc_ys, cxs, cys)
                prof[v] = kernel.simplify(mxs, mys, _IMPROVE_TOL)
            if v not in queued:
                queue.append(v)
                queued.add(v)

    return {
        n: MonotonePiecewiseLinear._trusted_monotone(list(xs), list(ys))
        for n, (xs, ys) in prof.items()
    }
