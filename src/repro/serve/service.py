"""`AllFPService` — the embeddable query service.

Turns :class:`~repro.core.engine.IntAllFastestPaths` from a library call
into a system component:

* one preloaded network and one **shared warm edge-function cache** for
  every request (the dominant per-query cost is materialising edge arrival
  functions; sharing the cache means any request's work warms all others,
  and an entry whose edge was updated is rebuilt when next read),
* **one lower bound** — the customized boundary estimator while its tables
  match the network, otherwise the naive bound, which reads ``v_max`` off
  the live network at every ``prepare`` — picked again under the update
  write lock after every batch,
* **one engine run at a time**, under one lock, on its caller's thread:
  the run owns the bound's ``prepare(target)`` cursor while it holds the
  lock,
* **request coalescing** (single-flight) and a **TTL+LRU result cache**
  keyed on the query plus the network version,
* **admission control** with fast-fail rejection and wall-clock deadlines
  threaded into the engine's pop loop,
* a :class:`~repro.serve.metrics.MetricsRegistry` that every layer reports
  into, rendered by ``GET /metrics``.

The engine is pure-Python compute: interleaved runs on one interpreter
add no CPU parallelism under the GIL, only hand-offs, so a process runs
one and more cores come from more processes (``--shards``).  The HTTP
layer's thread per connection still keeps ``/healthz``, ``/metrics`` and
cache hits from queueing behind a run, and gives coalescing concurrent
duplicates to merge.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from ..core.engine import IntAllFastestPaths, QueryTimeout
from ..core.batch import BatchResult, batch_fastest_times
from ..core.knn import KnnResult, interval_knn
from ..core.profile import ProfileResult, profile_search
from ..core.results import AllFPResult, SearchStats, SingleFPResult
from ..core.runtime import SearchContext
from ..estimators.base import LowerBoundEstimator
from ..estimators.boundary import BoundaryNodeEstimator
from ..estimators.naive import NaiveEstimator
from ..exceptions import (
    NoPathError,
    QueryError,
    ReproError,
    ServiceClosed,
    ServiceOverloaded,
    StalenessExceeded,
    WorkerCrashed,
)
from .. import reliability
from ..hierarchy.engine import OverlayEngine
from ..timeutil import TimeInterval
from .admission import AdmissionController, Deadline
from .batching import ResultCache, SingleFlight
from .metrics import MetricsRegistry
from .updates import (
    MutationBatch,
    ReadWriteLock,
    UpdateLedger,
    apply_batch,
    validate_batch,
)

MODES = ("allfp", "singlefp", "profile", "knn", "batch")


@dataclass(frozen=True)
class QueryRequest:
    """One service request.

    ``deadline`` (seconds, optional) overrides the service default; it is
    deliberately **not** part of the coalescing/cache key — two callers
    asking the same question with different patience share one answer.

    ``target`` is required by the point-to-point modes (``allfp``,
    ``singlefp``) and ignored by the one-to-many ones.  ``targets``
    restricts a ``profile`` answer to the listed nodes; ``candidates``/``k``
    parameterise ``knn``.  All three are normalised to sorted tuples so the
    coalescing/cache key is canonical.

    ``pairs`` parameterises ``batch``: the ``(source, target)`` queries to
    answer together, preserved in input order (answers come back
    positionally), so the cache key is order-sensitive — two batches with
    the same pairs in a different order are different requests.  A batch's
    ``source`` is always its first pair's, whatever was passed: the wire
    form carries only the pairs.  The batch passes admission control once
    (one slot regardless of size — size the deadline accordingly), shares
    the service's ``SearchContext``/edge-function cache across its
    per-source profile searches, and answers with a
    :class:`~repro.core.batch.BatchResult` of one item per pair in input
    order.  A deadline that trips mid-batch yields per-item errors for the
    unfinished pairs rather than losing the finished ones.

    ``max_staleness`` (seconds, optional) opts the caller into the bounded
    staleness contract: when the service has accepted live updates it has
    not yet finished applying for longer than this, the request is refused
    with a typed :class:`~repro.exceptions.StalenessExceeded` instead of
    being answered against the old network version.  Like ``deadline`` it
    is not part of the coalescing/cache key — it changes *whether* the
    question is answered, never the answer.
    """

    source: int
    target: int | None
    interval: TimeInterval
    mode: str = "allfp"
    deadline: float | None = None
    targets: tuple[int, ...] | None = None
    candidates: tuple[int, ...] | None = None
    k: int | None = None
    pairs: tuple[tuple[int, int], ...] | None = None
    max_staleness: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise QueryError(
                f"unknown mode {self.mode!r}; expected one of {MODES}"
            )
        if self.targets is not None:
            object.__setattr__(
                self, "targets", tuple(sorted(set(self.targets)))
            )
        if self.candidates is not None:
            object.__setattr__(
                self, "candidates", tuple(sorted(set(self.candidates)))
            )
        if self.pairs is not None:
            object.__setattr__(
                self,
                "pairs",
                tuple((int(s), int(t)) for s, t in self.pairs),
            )
        if self.mode in ("allfp", "singlefp") and self.target is None:
            raise QueryError(f"mode {self.mode!r} requires a target")
        if self.mode == "knn":
            if not self.candidates:
                raise QueryError("mode 'knn' requires a candidates list")
            if self.k is None or self.k < 1:
                raise QueryError(f"mode 'knn' requires k >= 1, got {self.k}")
        if self.mode == "batch":
            if not self.pairs:
                raise QueryError(
                    "mode 'batch' requires a non-empty pairs list"
                )
            object.__setattr__(self, "source", self.pairs[0][0])

    def key(self, version: int) -> tuple:
        return (
            self.source,
            self.target,
            self.interval.start,
            self.interval.end,
            self.mode,
            self.targets,
            self.candidates,
            self.k,
            self.pairs,
            version,
        )


@dataclass(frozen=True)
class QueryResponse:
    """A result plus how the service produced it.

    ``degraded`` flags answers computed in a degraded mode — a boot artifact
    failed to load, or the customized estimator was set aside after a
    failed re-customization (the naive bound and the flat engine that stand
    in are exact, only slower) — or ``stale`` is set and the result was
    served from the version-free stale cache after a deadline tripped
    mid-recompute (possibly predating the latest network update).

    ``version`` is the network version this answer was computed against —
    the contract the mutation-chaos harness holds the service to: a
    non-stale answer claiming version ``v`` must byte-match a fault-free
    re-execution against the network with exactly the first ``v`` update
    batches applied.  ``-1`` means unversioned (stale-cache fallbacks).
    """

    result: AllFPResult | SingleFPResult | ProfileResult | KnnResult | BatchResult
    cached: bool = False
    coalesced: bool = False
    elapsed_seconds: float = 0.0
    degraded: bool = False
    stale: bool = False
    #: set by the shard router when the ring-preferred shard could not
    #: answer and a successor served the (still exact) result instead
    degraded_shard: int | None = None
    version: int = -1


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for :class:`AllFPService` (see ``docs/serving.md``)."""

    max_pending: int = 64
    default_deadline: float | None = 30.0
    coalesce: bool = True
    cache_results: bool = True
    result_cache_size: int = 1024
    result_cache_ttl: float = 300.0
    #: bounded retry budget for engine runs that die with an *unexpected*
    #: (non-Repro) error; every attempt builds a fresh engine
    task_retries: int = 1
    #: serve the last good (possibly stale) result when a deadline trips
    serve_stale: bool = False
    #: set by the shard tier on worker services; stamped as const labels
    #: onto every /metrics sample so multi-shard scrapes are attributable
    shard_id: int | None = None
    shard_count: int | None = None

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.task_retries < 0:
            raise ValueError(
                f"task_retries must be >= 0, got {self.task_retries}"
            )


@runtime_checkable
class ServiceSurface(Protocol):
    """What a front end is, written down once.

    :class:`AllFPService` and :class:`~repro.shard.tier.ShardedService`
    both expose exactly these names with these shapes; the HTTP layer, the
    clients, the chaos harness and the CLI program against this protocol
    only and never ask which of the two they hold.
    """

    @property
    def network(self): ...

    def query(self, request: "QueryRequest") -> "QueryResponse": ...

    def apply_updates(self, batch: MutationBatch) -> int:
        """Apply one batch; returns the new network version."""

    def invalidate(self, refresh_estimator: bool = False) -> int:
        """Drop cached results; returns how many were dropped."""

    def staleness_seconds(self) -> float: ...

    def health(self) -> dict:
        """The ``/healthz`` body (the tier adds ``"shards"``)."""

    def stats(self) -> dict:
        """At least ``engine_runs``, ``result_cache``, ``single_flight``
        and ``updates`` (the tier sums its shards and adds ``per_shard``)."""

    def render_metrics(self) -> str: ...

    def install_faults(self, plan: reliability.FaultPlan) -> None: ...

    def uninstall_faults(self) -> int:
        """Remove the installed plan; returns how many faults it fired."""

    def close(self) -> None: ...


class SurfaceBase:
    """The part of the surface that is the same code in both front ends:
    each owns a ``_network`` and an
    :class:`~repro.serve.updates.UpdateLedger` in ``_updates``."""

    @property
    def network(self):
        return self._network

    def staleness_seconds(self) -> float:
        """Age of the oldest accepted-but-unapplied update batch (0 if none).

        This is the number ``max_staleness`` is checked against and the one
        ``/metrics`` exports: how far behind the accepted mutation stream
        the answers currently being served may be.
        """
        return self._updates.staleness_seconds()

    def health(self) -> dict:
        """The ``/healthz`` body: liveness plus the bounded-staleness triple."""
        degraded = self.degraded
        return {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "network_version": self._updates.applied_version,
            "staleness_seconds": self._updates.staleness_seconds(),
            "pending_updates": self._updates.pending,
            "nodes": self._network.node_count,
        }


class AllFPService(SurfaceBase):
    """allFP/singleFP query service over one network.

    Parameters
    ----------
    network:
        A :class:`~repro.core.graph.Graph` (in-memory network or CCAM
        store).  Loaded once, shared by every request.
    estimator:
        The customization: a precomputed
        :class:`~repro.estimators.boundary.BoundaryNodeEstimator`, delta
        re-customized with every update batch.  Anything else (``None``, a
        :class:`~repro.estimators.naive.NaiveEstimator`) counts as none:
        queries are bounded by the service's one naive estimator.
    config:
        A :class:`ServiceConfig`; defaults are sized for tests and small
        deployments.
    degraded:
        Mark the whole service degraded from boot — set by
        :func:`~repro.serve.boot.open_service` when a requested snapshot
        failed to load and the service fell back to the naive bound or the
        flat engine.  Every response carries ``degraded=True`` until
        :meth:`invalidate` successfully refreshes a customization.
    overlay:
        A :class:`~repro.hierarchy.overlay.MultiLevelOverlay` built (or
        mapped from a v2 snapshot) for this exact network.  When given,
        ``allfp``/``singlefp`` requests run on
        :class:`~repro.hierarchy.engine.OverlayEngine` — climbing levels
        instead of flooding the flat graph — with identical answers; the
        one-to-many modes are unaffected.  Live updates leave its rows as
        built and mark stale cells instead.
    """

    def __init__(
        self,
        network,
        estimator: LowerBoundEstimator | None = None,
        config: ServiceConfig | None = None,
        degraded: bool = False,
        *,
        overlay=None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._network = network
        self._estimator = (
            estimator if isinstance(estimator, BoundaryNodeEstimator) else None
        )
        # The one bound every engine run uses: the customization while its
        # tables match the network version, else the naive bound (see
        # _rebound).
        self._naive = NaiveEstimator(network)
        self._bound: LowerBoundEstimator = (
            self._naive if self._estimator is None else self._estimator
        )
        self._overlay = overlay
        # Boot errors, or the estimator set aside since.
        self._degraded = degraded
        # One shared runtime for every engine and every one-to-many search.
        self._context = SearchContext(network)
        self._edge_cache = self._context.edge_cache
        self._admission = AdmissionController(self.config.max_pending)
        self._single_flight = SingleFlight()
        self._result_cache = ResultCache(
            self.config.result_cache_size, self.config.result_cache_ttl
        )
        # Last good answers keyed *without* the network version; consulted
        # only when a deadline trips and config.serve_stale is on.
        # Deliberately survives invalidate() — staleness is its entire point.
        self._stale_cache = ResultCache(
            self.config.result_cache_size, float("inf")
        )
        self.metrics = MetricsRegistry(const_labels=self._metric_labels())
        # The network version (count of applied live-update batches): what
        # answers claim and what the result cache keys on.
        self._updates = UpdateLedger(self.metrics)
        # Queries hold the read side while computing so every answer is
        # produced against exactly one network version; updates hold the
        # write side.  Writer-preferring: a steady query stream cannot
        # starve the mutation feed.
        self._update_rw = ReadWriteLock()
        self._closed = False
        # One engine run at a time, on its caller's thread: the run owns
        # the bound's prepare(target) cursor while it holds the lock.
        self._engine_lock = threading.Lock()
        self.metrics.set_gauge(
            "pending_requests",
            lambda: self._admission.pending,
            help="Requests admitted and not yet answered",
        )
        self.metrics.set_gauge(
            "edge_cache_entries",
            self._edge_cache.__len__,
            help="Edge arrival functions resident in the shared cache",
        )
        self.metrics.set_gauge(
            "result_cache_entries",
            self._result_cache.__len__,
            help="Entries resident in the TTL+LRU result cache",
        )
        self.metrics.set_gauge(
            "service_degraded",
            lambda: 1.0 if self.degraded else 0.0,
            help="1 when the service is serving degraded answers "
            "(boot-time fallback, or estimator set aside)",
        )
        self.metrics.set_gauge(
            "overlay_stale_cells",
            lambda: float(
                0 if self._overlay is None
                else sum(len(cells) for cells in self._overlay.stale)
            ),
            help="Overlay cells, summed over levels, searched at street "
            "level because they hold an edge changed since the build",
        )
        self.metrics.set_gauge(
            "fault_injections_total",
            lambda: float(reliability.fired_total()),
            help="Faults fired by the reliability injector (0 when inactive)",
        )
        self._register_estimator_metrics()

    def _metric_labels(self) -> dict[str, str]:
        """Const labels every /metrics sample carries under the shard tier:
        which shard."""
        labels: dict[str, str] = {}
        if self.config.shard_id is not None:
            labels["shard_id"] = str(self.config.shard_id)
        if self.config.shard_count is not None:
            labels["shard_count"] = str(self.config.shard_count)
        return labels

    def _register_estimator_metrics(self) -> None:
        """Warm-start accounting for precomputed estimators.

        A snapshot-loaded estimator counts as one ``snapshot hit`` (the boot
        skipped its Dijkstras); an estimator that precomputed in-process
        counts as a ``miss`` and reports the seconds it spent.  A service
        without a customization registers nothing.
        """
        estimator = self._estimator
        if estimator is None:
            return
        self.metrics.set_gauge(
            "estimator_precompute_seconds",
            lambda: float(estimator.precompute_seconds),
            help="Wall-clock seconds the estimator precompute took "
            "(0 when warm-started from a snapshot)",
        )
        warm = estimator.loaded_from_snapshot
        self.metrics.inc(
            "estimator_snapshot_hits_total",
            1.0 if warm else 0.0,
            help="Boots that warm-started the estimator from a snapshot",
        )
        self.metrics.inc(
            "estimator_snapshot_misses_total",
            0.0 if warm else 1.0,
            help="Boots that paid the estimator precompute in-process",
        )

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True while the service as a whole is in a degraded mode."""
        return self._degraded

    def install_faults(self, plan: reliability.FaultPlan) -> None:
        """Install ``plan`` process-wide (the chaos harness's entry point)."""
        reliability.install(plan)

    def uninstall_faults(self) -> int:
        """Remove the installed plan; returns how many faults it fired."""
        fired = reliability.fired_total()
        reliability.uninstall()
        return fired

    def invalidate(self, refresh_estimator: bool = False) -> int:
        """Drop every cached result.

        Call after mutating the network outside :meth:`apply_updates`; the
        write side of the update lock is held, so in-flight queries (which
        hold the read side from cache lookup to cache put) finish first and
        every query admitted afterwards misses the cache and recomputes —
        no answer is produced against a half-refreshed estimator.  The edge
        store and the naive bound need nothing: they check the network
        they were derived from whenever they are read.

        With ``refresh_estimator=True`` the bound is picked again: the
        customization recomputes its tables in full against the network as
        it is now — the one way back for a customization set aside by a
        failed delta refresh.  A snapshot loaded for an older network
        version is considered invalid from here on.
        """
        self._update_rw.acquire_write()
        try:
            dropped = self._result_cache.clear()
            self.metrics.inc(
                "invalidations_total",
                help="Explicit invalidations of the result cache",
            )
            if refresh_estimator and self._rebound(
                None if self._estimator is None else self._estimator.refresh
            ):
                self._degraded = False
                self.metrics.inc(
                    "estimator_refreshes_total",
                    help="Estimator precompute refreshes after invalidation",
                )
            return dropped
        finally:
            self._update_rw.release_write()

    def _rebound(self, customize=None) -> bool:
        """Pick the bound for the network version just written; the caller
        holds the update write lock.

        ``customize`` brings the customized estimator up to this version (a
        delta or a full refresh).  When it succeeds the estimator is the
        bound.  Otherwise — no customization, none still current, or a
        typed failure now — the bound is the naive estimator, which reads
        ``v_max`` at every ``prepare``, so an edge that got faster cannot
        make it overestimate (paper §4, Theorem 1).  A failure sets
        the customization aside and flags the service degraded until a
        full refresh succeeds.  Returns whether the customization is the
        bound.
        """
        if customize is not None:
            try:
                customize()
            except ReproError:
                customize = None
                self._degraded = True
                self.metrics.inc(
                    "estimator_refresh_failures_total",
                    help="Estimator re-customizations that failed "
                    "(service continues on a naive bound, degraded)",
                )
        self._bound = self._naive if customize is None else self._estimator
        return customize is not None

    def apply_updates(
        self, batch: MutationBatch, version: int | None = None
    ) -> int:
        """Apply one live-update batch; returns the new network version.

        The batch is validated up front (typed errors, nothing applied on
        failure), counted as *pending* while it waits for in-flight queries
        to drain, then applied under the write side of the update lock:
        edge patterns mutate, the boundary tables are kept unless an edge
        got faster than it has ever been
        (:func:`~repro.estimators.precompute.refresh_tables_delta`), the
        overlay recomputes nothing and marks stale the cells that hold an
        edge changed since its build
        (:meth:`~repro.hierarchy.overlay.MultiLevelOverlay.refresh_delta`;
        queries search those at street level), and results cached at older
        versions are dropped; the edge store rebuilds each changed edge's
        function when it is next read.  A typed
        failure of the estimator refresh never fails the batch: the service
        continues on a naive bound, flagged degraded.  ``version`` lets the
        shard tier impose its monotonic version instead of the local counter.
        """
        if self._closed:
            raise ServiceClosed("service is shut down")
        validate_batch(self._network, batch)
        started = time.monotonic()
        try:
            with self._updates.accepted():
                self._update_rw.acquire_write()
                try:
                    return self._apply_validated(batch, version)
                finally:
                    self._update_rw.release_write()
        finally:
            self.metrics.observe(
                "update_apply_seconds",
                time.monotonic() - started,
                help="Accept-to-applied latency per update batch",
            )

    def _apply_validated(self, batch: MutationBatch, version: int | None) -> int:
        """The write-locked half of :meth:`apply_updates`."""
        applied = apply_batch(self._network, batch)
        self._rebound(
            (lambda: self._estimator.refresh_delta(applied))
            if self._bound is self._estimator
            else None
        )
        if self._overlay is not None:
            self._overlay.refresh_delta(applied)
        # Results keyed on older versions can no longer be hit.
        self._result_cache.clear()
        return self._updates.applied(batch, version)

    # ------------------------------------------------------------------
    def query(self, request: QueryRequest) -> QueryResponse:
        """Answer one request through admission, cache, and coalescing.

        Raises :class:`~repro.exceptions.ServiceOverloaded` on fast-fail,
        :class:`~repro.core.engine.QueryTimeout` past the deadline, and
        the engine's usual errors (``NoPathError``, ``QueryError``) —
        all of which leave the service healthy.
        """
        started = time.monotonic()
        labels = {"mode": request.mode}
        self.metrics.inc(
            "requests_total", labels=labels, help="Requests received"
        )
        if self._closed:
            self._finish(request, started, "closed")
            raise ServiceClosed("service is shut down")
        if request.max_staleness is not None:
            staleness = self.staleness_seconds()
            if staleness > request.max_staleness:
                self.metrics.inc(
                    "staleness_rejections_total",
                    help="Requests refused because the service was more "
                    "stale than their max_staleness allowed",
                )
                self._finish(request, started, "stale_rejected")
                raise StalenessExceeded(staleness, request.max_staleness)
        try:
            self._admission.try_acquire()
        except ServiceOverloaded:
            self._finish(request, started, "rejected")
            raise
        try:
            # The read side pins the network version for the whole
            # computation: updates wait for in-flight queries, so the
            # version captured here is the version the answer is made at.
            self._update_rw.acquire_read()
            try:
                version = self._updates.applied_version
                response = self._admitted(request, version)
            finally:
                self._update_rw.release_read()
        except QueryTimeout:
            self._finish(request, started, "timeout")
            raise
        except NoPathError:
            self._finish(request, started, "no_path")
            raise
        except ReproError:
            self._finish(request, started, "error")
            raise
        finally:
            self._admission.release()
        self._finish(request, started, "ok")
        if response.degraded:
            self.metrics.inc(
                "degraded_responses_total",
                help="Answers produced in a degraded mode (naive bound, flat "
                "engine or stale cache) — still exact or flagged, never silent",
            )
        return QueryResponse(
            result=response.result,
            cached=response.cached,
            coalesced=response.coalesced,
            elapsed_seconds=time.monotonic() - started,
            degraded=response.degraded,
            stale=response.stale,
            # A stale-cache fallback may predate any version; leave it
            # unversioned so nothing holds it to the byte-match contract.
            version=-1 if response.stale else version,
        )

    # ------------------------------------------------------------------
    def _finish(self, request: QueryRequest, started: float, status: str) -> None:
        self.metrics.inc(
            "responses_total",
            labels={"mode": request.mode, "status": status},
            help="Responses by outcome",
        )
        self.metrics.observe(
            "request_latency_seconds",
            time.monotonic() - started,
            labels={"mode": request.mode},
            help="End-to-end request latency",
        )

    def _admitted(self, request: QueryRequest, version: int) -> QueryResponse:
        budget = (
            request.deadline
            if request.deadline is not None
            else self.config.default_deadline
        )
        deadline = None if budget is None else Deadline.after(budget)
        key = request.key(version)

        if self.config.cache_results:
            hit = self._result_cache.get(key)
            if hit is not None:
                self.metrics.inc("result_cache_hits_total", help="Result cache hits")
                result, degraded = hit
                return QueryResponse(result=result, cached=True, degraded=degraded)
            self.metrics.inc("result_cache_misses_total", help="Result cache misses")

        def compute():
            # Wait for the engine lock no longer than the deadline allows.
            wait = -1 if deadline is None else max(deadline.remaining(), 0)
            if not self._engine_lock.acquire(timeout=wait):
                raise self._queue_timeout(deadline)
            try:
                return self._run_engine(request, deadline)
            finally:
                self._engine_lock.release()

        try:
            if self.config.coalesce:
                entry, leader = self._single_flight.do(key, compute)
                if not leader:
                    self.metrics.inc(
                        "coalesced_total",
                        help="Requests that shared another request's computation",
                    )
            else:
                entry, leader = compute(), True
        except QueryTimeout:
            stale = self._serve_stale(request)
            if stale is not None:
                return stale
            raise
        result, degraded = entry
        if leader:
            if self.config.cache_results:
                self._result_cache.put(key, entry)
            if self.config.serve_stale and not degraded:
                # Versionless key: the whole point is surviving invalidation.
                self._stale_cache.put(request.key(-1), result)
        return QueryResponse(result=result, coalesced=not leader, degraded=degraded)

    def _serve_stale(self, request: QueryRequest) -> QueryResponse | None:
        """The last good answer for this query, if stale serving allows it."""
        if not self.config.serve_stale:
            return None
        hit = self._stale_cache.get(request.key(-1))
        if hit is None:
            return None
        self.metrics.inc(
            "stale_results_served_total",
            help="Deadline trips answered from the last good (stale) result",
        )
        return QueryResponse(result=hit, cached=True, degraded=True, stale=True)

    def _engine(self):
        """A fresh engine on the shared context, bounded by the current
        bound: the overlay's when there is one (answers equal the flat
        engine's exactly), the flat one otherwise."""
        if self._overlay is not None:
            return OverlayEngine(
                self._overlay, self._bound, context=self._context
            )
        return IntAllFastestPaths(
            self._network, self._bound, context=self._context
        )

    def _run_engine(self, request: QueryRequest, deadline: Deadline | None):
        """Run ``request`` on the caller's thread, holding the engine lock;
        enforces the remaining deadline.

        An *unexpected* (non-Repro) error is treated as a worker crash: the
        task retries on a fresh engine within the deadline up to
        ``config.task_retries`` times before surfacing a typed
        :class:`WorkerCrashed`.
        """
        attempts = 0
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0.0:
                    raise self._queue_timeout(deadline)
            try:
                return self._execute(request, remaining)
            except ReproError:
                # Typed errors (timeout, no-path, bad query, injected
                # faults surfacing as storage errors) are answers, not
                # crashes; retrying them would just repeat the answer.
                raise
            except Exception as exc:
                attempts += 1
                self.metrics.inc(
                    "worker_crashes_total",
                    help="Engine runs that died with an unexpected error",
                )
                if attempts > self.config.task_retries:
                    raise WorkerCrashed(
                        attempts, f"{type(exc).__name__}: {exc}"
                    ) from exc
                self.metrics.inc(
                    "task_retries_total",
                    help="Crashed runs retried on a fresh engine",
                )

    def _queue_timeout(self, deadline: Deadline) -> QueryTimeout:
        """The request aged out waiting for the engine lock."""
        self.metrics.inc(
            "queue_timeouts_total",
            help="Requests whose deadline expired before the engine lock freed up",
        )
        return QueryTimeout(deadline.budget, SearchStats(timed_out=True))

    def _execute(self, request: QueryRequest, remaining: float | None):
        """One engine execution; returns ``(result, degraded)``."""
        self.metrics.inc("engine_runs_total", help="Actual engine executions")
        run_started = time.monotonic()
        reliability.fire("repro.serve.service.task")
        try:
            if request.mode == "allfp":
                result = self._engine().all_fastest_paths(
                    request.source, request.target, request.interval,
                    deadline=remaining,
                )
            elif request.mode == "singlefp":
                result = self._engine().single_fastest_path(
                    request.source, request.target, request.interval,
                    deadline=remaining,
                )
            elif request.mode == "profile":
                result = profile_search(
                    self._network,
                    request.source,
                    request.interval,
                    targets=request.targets,
                    context=self._context,
                    deadline=remaining,
                )
            elif request.mode == "batch":
                result = batch_fastest_times(
                    self._network,
                    request.pairs,
                    request.interval,
                    context=self._context,
                    deadline=remaining,
                )
            else:  # knn
                result = interval_knn(
                    self._network,
                    request.source,
                    request.candidates,
                    request.k,
                    request.interval,
                    context=self._context,
                    deadline=remaining,
                )
        except QueryTimeout as exc:
            self._record_engine_stats(exc.stats, run_started)
            raise
        self._record_engine_stats(result.stats, run_started)
        return result, self._degraded

    def _record_engine_stats(self, stats: SearchStats, run_started: float) -> None:
        self.metrics.observe(
            "engine_seconds",
            time.monotonic() - run_started,
            help="Wall-clock time per engine execution",
        )
        self.metrics.inc(
            "engine_expanded_paths_total",
            stats.expanded_paths,
            help="SearchStats.expanded_paths summed over runs",
        )
        self.metrics.inc(
            "engine_labels_generated_total",
            stats.labels_generated,
            help="SearchStats.labels_generated summed over runs",
        )
        self.metrics.inc(
            "engine_pruned_total",
            stats.pruned_dominated + stats.pruned_bound,
            help="Dominance- and bound-pruned labels summed over runs",
        )
        self.metrics.inc(
            "engine_page_reads_total",
            stats.page_reads,
            help="Storage page reads summed over runs",
        )
        self.metrics.inc(
            "engine_bound_evaluations_total",
            stats.bound_evaluations,
            help="Estimator bound() evaluations summed over runs",
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """A structured snapshot of every layer (for logs and tests)."""
        return {
            "degraded": self.degraded,
            "updates": self._updates.snapshot(),
            "overlay_levels": (
                self._overlay.level_count if self._overlay is not None else 0
            ),
            "admission": self._admission.snapshot(),
            "single_flight": self._single_flight.snapshot(),
            "result_cache": self._result_cache.snapshot(),
            "edge_cache": self._edge_cache.snapshot(),
            "engine_runs": self.metrics.counter_total("engine_runs_total"),
            "faults_fired": reliability.fired_total(),
        }

    def render_metrics(self) -> str:
        return self.metrics.render()

    def close(self) -> None:
        """Stop accepting requests and wait for the in-flight ones."""
        self._closed = True
        # Queries compute under the read side: taking the write side once
        # waits them out.
        self._update_rw.acquire_write()
        self._update_rw.release_write()

    def __enter__(self) -> "AllFPService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
