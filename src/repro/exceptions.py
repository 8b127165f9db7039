"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one base class.  The concrete
subclasses mirror the subsystems described in ``DESIGN.md``.
"""

from __future__ import annotations

import copyreg


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Pickles as itself — class, message and attributes (a timeout's partial
    ``stats`` included) — even where a subclass's ``__init__`` takes other
    arguments than the message, so an error crosses a process pipe intact.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class FunctionDomainError(ReproError):
    """An operation referenced a point or interval outside a function's domain."""


class FunctionShapeError(ReproError):
    """A piecewise function was constructed from malformed breakpoints."""


class NotMonotoneError(FunctionShapeError):
    """A function required to be (strictly) nondecreasing is not."""


class PatternError(ReproError):
    """A CapeCod speed pattern or day-category set is malformed."""


class NetworkError(ReproError):
    """A road network is malformed or an operation referenced a missing element."""


class NodeNotFoundError(NetworkError, KeyError):
    """A node id was not present in the network or storage layer."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node {node_id} not found")
        self.node_id = node_id


class EdgeNotFoundError(NetworkError, KeyError):
    """An edge (u, v) was not present in the network."""

    def __init__(self, source: int, target: int) -> None:
        super().__init__(f"edge {source}->{target} not found")
        self.source = source
        self.target = target


class NoPathError(ReproError):
    """No path exists from the source to the destination node.

    ``stats`` (when the raising engine provides it) carries the finalized
    :class:`~repro.core.results.SearchStats` of the exhausted search, so
    callers can report how much work proving the absence took.
    """

    def __init__(self, source: int, target: int, stats=None) -> None:
        super().__init__(f"no path from node {source} to node {target}")
        self.source = source
        self.target = target
        self.stats = stats


class QueryError(ReproError):
    """A fastest-path query was malformed (bad interval, equal endpoints, ...)."""


class StorageError(ReproError):
    """The CCAM storage layer detected corruption or misuse."""


class PageOverflowError(StorageError):
    """A record does not fit into a single CCAM page."""


class EstimatorError(ReproError):
    """A lower-bound estimator was queried before being built, or misconfigured."""


class ServiceError(ReproError):
    """The query service (:mod:`repro.serve`) rejected or failed a request."""


class ServiceOverloaded(ServiceError):
    """Admission control rejected a request: the pending-queue is full.

    Maps to HTTP 503; ``retry_after`` is a coarse client backoff hint in
    seconds.
    """

    def __init__(self, pending: int, max_pending: int, retry_after: float = 0.05):
        super().__init__(
            f"service overloaded: {pending} requests pending "
            f"(max_pending={max_pending})"
        )
        self.pending = pending
        self.max_pending = max_pending
        self.retry_after = retry_after


class ServiceClosed(ServiceError):
    """A request arrived after the service was shut down."""


class WorkerCrashed(ServiceError):
    """A worker task died with an unexpected error and its bounded retries
    were exhausted.  Every attempt ran on a fresh engine; the failure is
    surfaced as this typed error instead of a raw traceback.
    """

    def __init__(self, attempts: int, cause: str) -> None:
        super().__init__(
            f"worker task crashed {attempts} time(s) (last: {cause}); "
            "worker replaced"
        )
        self.attempts = attempts


class ShardUnavailable(ServiceError):
    """A shard worker process died, hung past its grace window, or was
    skipped by its circuit breaker, and no ring successor could answer
    either.  The router raises this only after walking the whole
    preference list; a single dead shard normally surfaces as a
    ``degraded_shard``-flagged answer from the next ring node instead.
    """

    def __init__(self, shard_id: int, reason: str = "worker unavailable"):
        super().__init__(f"shard {shard_id}: {reason}")
        self.shard_id = shard_id


class StalenessExceeded(ServiceError):
    """A query opted into ``max_staleness`` and the service's applied
    network version is older than the caller tolerates (accepted
    mutations are still pending).  Maps to HTTP 503 with a Retry-After
    hint; the client may retry, relax the bound, or drop it.
    """

    def __init__(self, staleness: float, max_staleness: float):
        super().__init__(
            f"service is {staleness:.3f}s stale "
            f"(max_staleness={max_staleness:.3f}s)"
        )
        self.staleness = staleness
        self.max_staleness = max_staleness


class ServeClientError(ServiceError):
    """An HTTP client call failed after exhausting its retries.

    Wraps the transport-level causes (:class:`urllib.error.URLError`,
    ``ConnectionRefusedError``, timeouts, malformed response bodies) so CLI
    and library callers handle one typed error instead of raw urllib
    internals.
    """

    def __init__(self, message: str, *, url: str | None = None, attempts: int = 1):
        detail = f"{message} (url={url}, attempts={attempts})" if url else message
        super().__init__(detail)
        self.url = url
        self.attempts = attempts


class InjectedFault(ReproError):
    """An error deliberately raised by the fault-injection framework
    (:mod:`repro.reliability`); only ever seen under an installed FaultPlan.
    """
