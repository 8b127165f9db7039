"""Shared search runtime — one :class:`SearchContext` under every engine.

The loop plumbing every query engine needs — edge arrival functions,
``max_pops`` budgets, wall-clock deadlines, kernel-counter bookkeeping,
uniform :class:`~repro.core.results.SearchStats` — lives here once:

* :class:`EdgeFunctionCache` — the LRU-bounded, locked store of canonical
  edge arrival functions, one per ``(edge, calendar day)``, each checked
  against the edge's current pattern when read; what a query reads from it
  never depends on what was asked before.
* :class:`SearchContext` — the long-lived bundle an engine (or a service)
  owns: the edge store plus default ``max_pops``/``deadline`` policy.
  Contexts are cheap to share; every engine built over the same context
  reads the same store.
* :class:`SearchRun` — one query execution: a fresh
  :class:`~repro.core.results.SearchStats`, counter snapshots taken at
  start (kernel work, cache hits, CCAM page reads), uniform budget and
  deadline enforcement in :meth:`SearchRun.tick`, and idempotent
  :meth:`SearchRun.finalize` that every exit path — success, no-path,
  budget, timeout — goes through, so partial stats are always populated.

Budget and deadline failures raise :class:`SearchBudgetExceeded` /
:class:`QueryTimeout` carrying the finalized partial stats.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable

from ..exceptions import QueryError
from ..func import kernel
from ..func.monotone import MonotonePiecewiseLinear
from ..patterns.travel_time import edge_arrival_function
from ..timeutil import MINUTES_PER_DAY
from .results import SearchStats

#: Ceiling on stored ``(edge, day)`` functions; bounds memory across queries.
DEFAULT_EDGE_CACHE_SIZE = 4096


class SearchBudgetExceeded(QueryError):
    """Raised when a query exceeds its work budget (see the pruning ablation).

    ``stats`` carries the partial counters of the cut-short search.
    ``what`` names the budgeted unit — ``"max_pops"`` for the pop-count
    budget every engine honours, ``"relaxations"`` for the profile
    search's FIFO safety valve.
    """

    def __init__(
        self, budget: int, stats: SearchStats, what: str = "max_pops"
    ) -> None:
        super().__init__(f"search exceeded {what}={budget}")
        self.budget = budget
        self.stats = stats
        self.what = what


class QueryTimeout(QueryError):
    """Raised when a query exceeds its wall-clock ``deadline``.

    The deadline is checked on the same branch as the ``max_pops`` pop
    counter, so enabling it adds one clock read per expansion and nothing
    on any other path.  ``stats`` carries the partial counters (with
    ``timed_out`` set) so callers can report how far the search got.
    """

    def __init__(self, deadline: float, stats: SearchStats) -> None:
        super().__init__(
            f"query exceeded deadline of {deadline:.3f}s "
            f"after {stats.expanded_paths} expansions"
        )
        self.deadline = deadline
        self.stats = stats


class EdgeFunctionCache:
    """The store of canonical edge arrival functions, one per ``(edge, day)``.

    An edge's arrival function ``A(t) = S⁻¹(S(t) + d)`` (§4.1) is a pure
    function of its pattern, its length and the calendar day, so the store
    keeps exactly that: the function built once on the whole day
    ``[1440·day, 1440·(day+1)]``, keyed by ``(source, target, day)`` (node
    ids, because the disk-backed accessor materialises fresh ``Edge``
    objects per call) and stored with the pattern and length it was built
    from.  An entry is served only while the edge still has that pattern
    object and that length; an edge whose pattern was updated (§2.2) gets
    its function rebuilt on the next read, so the store never needs
    clearing.  The identity check is sound because the entry keeps its
    pattern alive, and the CCAM store interns patterns, so its fresh
    ``Edge`` objects pass it too.  Queries only *read* the store — a window
    inside one day gets the day's function as is, a window spanning days
    gets the days' functions joined in ascending order — so the floats
    returned depend on the edge, the calendar and the days touched, never
    on what was asked before, on LRU eviction, or on which process answers.

    LRU-bounded, so a long-lived engine's memory follows its working set,
    and locked, so engines on several threads may share one
    :class:`SearchContext` (it is public; callers may run their own
    threads); the lock is held across the (occasionally slow) build on
    purpose: concurrent runs never build the same function twice.
    ``hits`` / ``misses`` count
    ``(edge, day)`` lookups and feed ``SearchStats.edge_cache_*``.
    """

    __slots__ = (
        "_calendar", "_cache", "_max_entries", "_lock", "hits", "misses"
    )

    def __init__(
        self, calendar, max_entries: int = DEFAULT_EDGE_CACHE_SIZE
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._calendar = calendar
        # (source, target, day) -> (pattern, distance, function)
        self._cache: OrderedDict[tuple[int, int, int], tuple] = OrderedDict()
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def arrival(self, edge, lo: float, hi: float) -> MonotonePiecewiseLinear:
        """The edge's arrival function on a domain covering ``[lo, hi]``:
        every edge read passes here, and the edge says what it is."""
        return edge.arrival_function(self, lo, hi)

    def _street(self, edge, lo: float, hi: float) -> MonotonePiecewiseLinear:
        """A street edge's function over ``[lo, hi]`` from the day store."""
        first = int(lo // MINUTES_PER_DAY)
        last = int(hi // MINUTES_PER_DAY)
        if last > first and hi <= last * MINUTES_PER_DAY:
            last -= 1  # a window ending exactly at midnight stays in its day
        with self._lock:
            fn = self._day_function(edge, first)
            if last == first:
                return fn
            xs, ys = list(fn._xs), list(fn._ys)
            for day in range(first + 1, last + 1):
                # Each day starts where the previous one ends; the earlier
                # day's value at the shared midnight is the one kept.
                fn = self._day_function(edge, day)
                xs.extend(fn._xs[1:])
                ys.extend(fn._ys[1:])
        return MonotonePiecewiseLinear._trusted_monotone(xs, ys)

    def _day_function(self, edge, day: int) -> MonotonePiecewiseLinear:
        key = (edge.source, edge.target, day)
        entry = self._cache.get(key)
        if (
            entry is not None
            and entry[0] is edge.pattern
            and entry[1] == edge.distance
        ):
            self._cache.move_to_end(key)
            self.hits += 1
            return entry[2]
        self.misses += 1
        fn = edge_arrival_function(
            edge.distance,
            edge.pattern,
            self._calendar,
            day * MINUTES_PER_DAY,
            (day + 1) * MINUTES_PER_DAY,
        )
        self._cache[key] = (edge.pattern, edge.distance, fn)
        self._cache.move_to_end(key)
        while len(self._cache) > self._max_entries:
            self._cache.popitem(last=False)
        return fn

    def __len__(self) -> int:
        return len(self._cache)

    def snapshot(self) -> dict[str, int]:
        """A point-in-time view of the store's counters (for services/metrics)."""
        with self._lock:
            return {
                "entries": len(self._cache),
                "max_entries": self._max_entries,
                "hits": self.hits,
                "misses": self.misses,
            }


#: Sentinel distinguishing "not passed" from an explicit ``None`` override.
_UNSET = object()


class SearchContext:
    """Long-lived runtime shared by query executions over one network.

    Bundles the :class:`EdgeFunctionCache` and the default
    ``max_pops``/``deadline`` policy.  One context can back many engines
    (all five query engines plus the hierarchy shortcut builder accept
    one), and a service shares a single store across its requests by
    building every engine on the same context.

    Parameters
    ----------
    network:
        A :class:`~repro.core.graph.Graph` — an in-memory network, a CCAM
        store or a view over either.
    edge_cache:
        An existing store to share (contexts with different budgets over
        one network); the context builds its own when omitted.
    max_pops:
        Default per-query pop budget (``None`` = unlimited).
    deadline:
        Default per-query wall-clock budget in seconds (``None`` = none).
    """

    __slots__ = ("network", "edge_cache", "max_pops", "deadline")

    def __init__(
        self,
        network,
        *,
        edge_cache: EdgeFunctionCache | None = None,
        max_pops: int | None = None,
        deadline: float | None = None,
    ) -> None:
        self.network = network
        self.edge_cache = (
            edge_cache
            if edge_cache is not None
            else EdgeFunctionCache(network.calendar)
        )
        self.max_pops = max_pops
        self.deadline = deadline

    def begin(self, max_pops=_UNSET, deadline=_UNSET) -> "SearchRun":
        """Start one query execution, resolving per-call overrides.

        Passing ``None`` explicitly disables the context default; omitting
        the argument inherits it.
        """
        return SearchRun(
            self,
            self.max_pops if max_pops is _UNSET else max_pops,
            self.deadline if deadline is _UNSET else deadline,
        )


class SearchRun:
    """One query execution: stats, budget/deadline enforcement, finalize.

    Engines drive it with three calls:

    * :meth:`edge_arrival` — edge-function read from the store (counted),
    * :meth:`tick` — once per queue pop, *after* incrementing
      ``stats.expanded_paths``; raises :class:`SearchBudgetExceeded` /
      :class:`QueryTimeout` with finalized partial stats,
    * :meth:`finalize` — on every exit; captures elapsed wall-clock,
      kernel-counter deltas, edge-cache hit/miss deltas, and CCAM page
      reads.  Idempotent, so raising paths and success paths can both
      call it.

    An engine with loop-private counters (distinct nodes, queue high-water
    mark) registers an ``exit_hook(stats)`` so those are filled in on
    *every* exit, including ones raised from inside :meth:`tick`.
    """

    __slots__ = (
        "context",
        "stats",
        "max_pops",
        "exit_hook",
        "_deadline",
        "_deadline_at",
        "_started",
        "_io_before",
        "_kernel_before",
        "_cache_hits_before",
        "_cache_misses_before",
        "_finalized",
    )

    def __init__(
        self,
        context: SearchContext,
        max_pops: int | None,
        deadline: float | None,
    ) -> None:
        self.context = context
        self.stats = SearchStats()
        self.max_pops = max_pops
        self.exit_hook: Callable[[SearchStats], None] | None = None
        cache = context.edge_cache
        self._io_before = context.network.page_reads
        self._kernel_before = kernel.COUNTERS.snapshot()
        self._cache_hits_before = cache.hits
        self._cache_misses_before = cache.misses
        self._started = time.monotonic()
        self._deadline = deadline
        self._deadline_at = (
            None if deadline is None else self._started + max(deadline, 0.0)
        )
        self._finalized = False

    # ------------------------------------------------------------------
    def edge_arrival(self, edge, lo: float, hi: float) -> MonotonePiecewiseLinear:
        """The edge's arrival function covering ``[lo, hi]``, from the store."""
        return self.context.edge_cache.arrival(edge, lo, hi)

    def tick(self) -> None:
        """Enforce the pop budget and the deadline; call once per pop.

        Expects ``stats.expanded_paths`` to already count the current pop.
        Costs one comparison when no budget is set and one extra clock read
        when a deadline is set — nothing on any other path.
        """
        stats = self.stats
        if self.max_pops is not None and stats.expanded_paths > self.max_pops:
            raise SearchBudgetExceeded(self.max_pops, self.finalize())
        if (
            self._deadline_at is not None
            and time.monotonic() >= self._deadline_at
        ):
            stats.timed_out = True
            raise QueryTimeout(self._deadline, self.finalize())

    def over_budget(self, budget: int, what: str) -> SearchBudgetExceeded:
        """A typed budget error for engine-specific budgets (e.g. relaxations)."""
        return SearchBudgetExceeded(budget, self.finalize(), what=what)

    def finalize(self) -> SearchStats:
        """Capture the end-of-run counter deltas into ``stats`` (idempotent)."""
        stats = self.stats
        if self._finalized:
            return stats
        self._finalized = True
        if self.exit_hook is not None:
            self.exit_hook(stats)
        bp, merges = kernel.COUNTERS.delta(self._kernel_before)
        stats.breakpoints_allocated = bp
        stats.envelope_merges = merges
        cache = self.context.edge_cache
        stats.edge_cache_hits = cache.hits - self._cache_hits_before
        stats.edge_cache_misses = cache.misses - self._cache_misses_before
        stats.page_reads = self.context.network.page_reads - self._io_before
        stats.elapsed_seconds = time.monotonic() - self._started
        return stats
