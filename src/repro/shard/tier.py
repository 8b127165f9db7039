"""The sharded serve tier: N worker processes behind one in-process router.

:class:`ShardedService` implements the one service surface
(:class:`~repro.serve.service.ServiceSurface`) the HTTP layer, the clients,
the chaos harness and the CLI program against, but fans queries out to
worker processes over pipes, routed by the consistent-hash ring
(:mod:`repro.shard.ring`) so each shard's edge-function and result caches
only ever see their own keyspace and stay hot.  Every worker is the
single-process service opened by the same boot call
(:func:`repro.serve.boot.open_service`); the servers themselves are not
aware of the sharding scheme.

Reliability is the PR-5 contract lifted to shard granularity:

* every shard has a **circuit breaker** — consecutive dispatch failures
  open it and the router stops offering that shard queries until the
  reset window elapses;
* a dead or breaker-open shard is **routed around**: the router walks the
  ring's preference order and serves the answer from the first live
  successor, flagging the response ``degraded`` with ``degraded_shard``
  set to the preferred shard that could not answer (the answer itself is
  still exact — every worker holds the full network);
* a crashed worker is **restarted** (bounded by ``restart_limit`` per
  shard) by the receiver thread that observed the death; its in-flight
  requests fail over immediately rather than waiting for the restart.

Typed query errors (``NoPathError``, ``QueryTimeout``, ...) are answers,
not shard failures: they are re-raised to the caller without failover and
without tripping the breaker.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading
from dataclasses import dataclass, field, replace

from .. import reliability
from ..estimators.boundary import BoundaryNodeEstimator
from ..exceptions import ReproError, ServiceClosed, ShardUnavailable
from ..serve.http import request_to_wire
from ..serve.metrics import MetricsRegistry
from ..serve.service import QueryResponse, ServiceConfig, SurfaceBase
from ..serve.updates import (
    MutationBatch,
    UpdateLedger,
    apply_batch,
    validate_batch,
)
from ..storage.ccam import CCAMStore
from .ring import HashRing, routing_key
from .worker import WorkerBoot, run_worker

#: Seconds past a query's deadline before the router gives up on a shard
#: and fails over.  Worker death is detected faster (EOF on the pipe);
#: the grace window only matters for a hung-but-alive worker.
DISPATCH_GRACE = 15.0

#: Fallback dispatch timeout when the service runs without deadlines.
DEFAULT_DISPATCH_TIMEOUT = 60.0


class WireResult:
    """A result that crossed the pipe as its ``as_dict()`` payload.

    The HTTP layer (and the chaos harness's canonicalisation) only ever
    consume results through ``as_dict()``, so the router hands back the
    worker's dict verbatim instead of reconstructing engine objects.
    """

    __slots__ = ("_doc",)

    def __init__(self, doc: dict) -> None:
        self._doc = doc

    def as_dict(self) -> dict:
        return self._doc

    def __getitem__(self, key):
        return self._doc[key]

    def __repr__(self) -> str:
        return f"WireResult(keys={sorted(self._doc)})"


class _Waiter:
    __slots__ = ("event", "kind", "payload")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.kind: str | None = None
        self.payload = None

    def resolve(self, kind: str, payload) -> None:
        self.kind = kind
        self.payload = payload
        self.event.set()


@dataclass
class _ShardHandle:
    """Parent-side state for one worker process."""

    shard_id: int
    process: object = None
    conn: object = None
    breaker: reliability.CircuitBreaker = None
    alive: bool = False
    boot_info: dict = field(default_factory=dict)
    restarts: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    pending: dict = field(default_factory=dict)
    next_id: int = 0
    receiver: threading.Thread = None

    def register(self) -> tuple[int, _Waiter]:
        waiter = _Waiter()
        with self.lock:
            if not self.alive:
                raise ShardUnavailable(self.shard_id, "worker is down")
            req_id = self.next_id
            self.next_id += 1
            self.pending[req_id] = waiter
        return req_id, waiter

    def discard(self, req_id: int) -> None:
        with self.lock:
            self.pending.pop(req_id, None)

    def fail_pending(self, reason: str) -> None:
        with self.lock:
            self.alive = False
            pending, self.pending = self.pending, {}
        for waiter in pending.values():
            waiter.resolve("down", reason)


class ShardedService(SurfaceBase):
    """Route queries across ``shards`` worker processes (see module doc).

    The network reaches the workers by fork (``network_path`` for a .ccam
    store, which every worker re-opens).  Customized data reaches them
    **only as a file to mmap**: ``snapshot_path`` / ``overlay_path`` name
    RPRESNAP files that already exist; an ``estimator`` object that carries
    boundary tables is written once into a tier-owned temporary snapshot
    (removed by :meth:`close`); any other ``estimator`` is fork-inherited.
    ``grid`` is accepted for its callers and unused: workers never
    precompute.
    """

    def __init__(
        self,
        network,
        estimator=None,
        config: ServiceConfig | None = None,
        *,
        shards: int = 2,
        network_path: str | None = None,
        snapshot_path: str | None = None,
        overlay_path: str | None = None,
        grid: int = 6,
        restart_limit: int = 3,
        breaker_reset: float = 5.0,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.config = config or ServiceConfig()
        self._network = network
        self._shards = shards
        self._restart_limit = restart_limit
        self._closed = False
        self._close_lock = threading.Lock()
        self._ring = HashRing(range(shards))
        self.metrics = MetricsRegistry()
        # Live-update state: the ledger (applied version, pending batches),
        # the ordered log of broadcast batches, and the boot-time pattern of
        # every edge they touched.  A restarted worker is a boot-time worker
        # that replays the log: it forks the mutated network, rewinds it,
        # opens the same files and catches up before taking queries.
        self._updates = UpdateLedger(self.metrics)
        self._update_lock = threading.Lock()
        self._mutation_log: list[tuple[MutationBatch, int]] = []
        self._boot_patterns: dict[tuple[int, int], object] = {}
        self._tables_file: str | None = None
        self._handles: dict[int, _ShardHandle] = {}
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover — non-POSIX fallback
            self._ctx = multiprocessing.get_context()
        try:
            if (
                snapshot_path is None
                and isinstance(estimator, BoundaryNodeEstimator)
                and estimator.tables is not None
            ):
                snapshot_path = self._write_tables(estimator.tables)
            self._boot = WorkerBoot(
                shard_id=-1,
                shard_count=shards,
                config=self.config,
                # .ccam stores must not be forked (shared fd offset):
                # workers re-open by path.  In-memory networks fork-inherit.
                network=(
                    None
                    if network_path and isinstance(network, CCAMStore)
                    else network
                ),
                network_path=network_path,
                estimator=None if snapshot_path is not None else estimator,
                snapshot_path=None if snapshot_path is None else str(snapshot_path),
                overlay_path=None if overlay_path is None else str(overlay_path),
                rewind=self._boot_patterns,
            )
            for sid in range(shards):
                handle = _ShardHandle(
                    shard_id=sid,
                    breaker=reliability.CircuitBreaker(
                        reset_timeout=breaker_reset
                    ),
                )
                self._handles[sid] = handle
                self._start_worker(handle)
        except BaseException:
            self.close()
            raise
        self.metrics.set_gauge("shard_count", float(shards))
        self.metrics.set_gauge(
            "shards_alive",
            lambda: float(
                sum(1 for h in self._handles.values() if h.alive)
            ),
        )

    # ------------------------------------------------------------------
    # boot
    # ------------------------------------------------------------------
    def _write_tables(self, tables) -> str:
        """One RPRESNAP image of ``tables`` for every worker to mmap."""
        from ..estimators import snapshot as snap

        fd, path = tempfile.mkstemp(prefix="repro-tier-", suffix=".snap")
        os.close(fd)
        self._tables_file = path  # set first: close() removes it regardless
        snap.save_tables(tables, path, snap.network_fingerprint(self._network))
        return path

    def _start_worker(self, handle: _ShardHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        # The fork copies every router-side pipe end into the child — this
        # pipe's and each sibling's.  The child closes them before serving,
        # or a router that dies without a goodbye (SIGKILL) would leave
        # workers that never see EOF.
        inherited = [parent_conn] + [
            h.conn for h in self._handles.values() if h.conn is not None
        ]
        process = self._ctx.Process(
            target=run_worker,
            args=(
                replace(self._boot, shard_id=handle.shard_id),
                child_conn,
                inherited,
            ),
            name=f"repro-shard-{handle.shard_id}",
            daemon=True,
        )
        # Fork under the update lock: the child's copy of the network and of
        # the rewind table must not be caught halfway through a batch.
        with self._update_lock:
            process.start()
        # The parent must not hold the child's pipe end open, or worker
        # death would never surface as EOF on parent_conn.
        child_conn.close()
        try:
            kind, _, payload = parent_conn.recv()
        except (EOFError, OSError) as exc:
            process.join(timeout=1.0)
            raise ShardUnavailable(
                handle.shard_id, f"worker died during boot ({exc})"
            ) from exc
        if kind != "ready":
            process.join(timeout=1.0)
            raise ShardUnavailable(
                handle.shard_id,
                f"boot failed: {payload.get('type')}: {payload.get('message')}",
            )
        with handle.lock:
            handle.process = process
            handle.conn = parent_conn
            handle.boot_info = payload
            handle.alive = True
        handle.receiver = threading.Thread(
            target=self._receive_loop,
            args=(handle,),
            name=f"repro-shard-recv-{handle.shard_id}",
            daemon=True,
        )
        handle.receiver.start()
        # A restarted worker booted on the boot-time network and files;
        # replay the ordered mutation log before it serves queries at a
        # version it never applied.  It sees every batch against the
        # patterns a live worker saw, so its estimator delta (whose first
        # assumed weight per edge is read from the old pattern) and its
        # overlay's stale cells (whose build-time pattern per edge is too)
        # converge on the same tables, stale cells and version.  Holding the
        # update lock keeps a concurrent apply_updates from interleaving
        # mid-replay.
        with self._update_lock:
            for batch, version in self._mutation_log:
                try:
                    self._control(
                        handle, "apply_updates", batch, version, timeout=120.0
                    )
                except (ShardUnavailable, ReproError):
                    # It died again (the receive loop schedules another
                    # restart) or diverged; either way shard_health shows
                    # the applied-version gap.
                    break

    # ------------------------------------------------------------------
    # receive / restart
    # ------------------------------------------------------------------
    def _receive_loop(self, handle: _ShardHandle) -> None:
        conn = handle.conn
        while True:
            try:
                kind, req_id, payload = conn.recv()
            except (EOFError, OSError):
                break
            with handle.lock:
                waiter = handle.pending.pop(req_id, None)
            if waiter is not None:
                waiter.resolve(kind, payload)
        handle.fail_pending("worker process exited")
        if self._closed:
            return
        self.metrics.inc(
            "shard_deaths_total", labels={"shard_id": str(handle.shard_id)}
        )
        if handle.restarts < self._restart_limit:
            handle.restarts += 1
            threading.Thread(
                target=self._restart_worker,
                args=(handle,),
                name=f"repro-shard-restart-{handle.shard_id}",
                daemon=True,
            ).start()

    def _restart_worker(self, handle: _ShardHandle) -> None:
        try:
            handle.process.join(timeout=5.0)
        except Exception:
            pass
        if self._closed:
            return
        try:
            self._start_worker(handle)
        except (ReproError, OSError):
            return  # stays dead; the ring routes around it
        self.metrics.inc(
            "shard_restarts_total", labels={"shard_id": str(handle.shard_id)}
        )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch_timeout(self, request) -> float:
        deadline = request.deadline
        if deadline is None:
            deadline = self.config.default_deadline
        if deadline is None:
            return DEFAULT_DISPATCH_TIMEOUT + DISPATCH_GRACE
        return deadline + DISPATCH_GRACE

    def _send_query(self, handle: _ShardHandle, request) -> tuple[str, object]:
        """One attempt on one shard; ``("down", reason)`` means failover."""
        try:
            req_id, waiter = handle.register()
        except ShardUnavailable as exc:
            return "down", str(exc)
        try:
            with handle.lock:
                conn = handle.conn
            with handle.send_lock:
                conn.send(("query", req_id, request_to_wire(request)))
        except (OSError, ValueError, BrokenPipeError) as exc:
            handle.discard(req_id)
            return "down", f"pipe send failed ({exc})"
        if not waiter.event.wait(self._dispatch_timeout(request)):
            handle.discard(req_id)
            return "down", "no reply within dispatch window"
        return waiter.kind, waiter.payload

    def query(self, request) -> QueryResponse:
        """Answer one request via the ring, failing over as needed."""
        if self._closed:
            raise ServiceClosed("service is closed")
        key = routing_key(request)
        order = self._ring.preference(key)
        skipped: list[int] = []
        last_reason = "no shard available"
        for sid in order:
            handle = self._handles[sid]
            if not handle.alive or not handle.breaker.allow():
                skipped.append(sid)
                last_reason = (
                    "worker is down"
                    if not handle.alive
                    else "circuit breaker open"
                )
                continue
            kind, payload = self._send_query(handle, request)
            if kind == "down":
                handle.breaker.record_failure()
                skipped.append(sid)
                last_reason = str(payload)
                self.metrics.inc(
                    "shard_dispatch_failures_total",
                    labels={"shard_id": str(sid)},
                )
                continue
            handle.breaker.record_success()
            self.metrics.inc(
                "shard_requests_total",
                labels={"shard_id": str(sid), "mode": request.mode},
            )
            if kind == "err":
                # A typed answer ("no path", "timeout", ...) — every
                # shard would say the same; do not fail over.
                raise payload
            failed_over = bool(skipped)
            if failed_over:
                for failed_sid in skipped:
                    self.metrics.inc(
                        "shard_failover_total",
                        labels={"shard_id": str(failed_sid)},
                    )
            # ``payload`` is the worker's HTTP 200 body (response_to_wire).
            return QueryResponse(
                result=WireResult(payload["result"]),
                cached=payload["cached"],
                coalesced=payload["coalesced"],
                elapsed_seconds=payload["elapsed_ms"] / 1e3,
                degraded=payload["degraded"] or failed_over,
                stale=payload["stale"],
                degraded_shard=order[0] if failed_over else None,
                version=payload["version"],
            )
        raise ShardUnavailable(order[0], last_reason)

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _control(
        self, handle: _ShardHandle, op: str, *args, timeout: float = 10.0
    ):
        """Call surface method ``op(*args)`` on one worker's service."""
        req_id, waiter = handle.register()
        try:
            with handle.lock:
                conn = handle.conn
            with handle.send_lock:
                conn.send(("control", req_id, op, args))
        except (OSError, ValueError, BrokenPipeError) as exc:
            handle.discard(req_id)
            raise ShardUnavailable(
                handle.shard_id, f"pipe send failed ({exc})"
            ) from exc
        if not waiter.event.wait(timeout):
            handle.discard(req_id)
            raise ShardUnavailable(handle.shard_id, f"{op} timed out")
        if waiter.kind == "ok":
            return waiter.payload
        if waiter.kind == "down":
            raise ShardUnavailable(handle.shard_id, str(waiter.payload))
        raise waiter.payload

    def _broadcast(self, op: str, *args, timeout: float = 10.0) -> dict:
        """``{shard_id: return value}`` of ``op(*args)`` on every live
        worker; shards that are down are left out."""
        replies: dict[int, object] = {}
        for sid, handle in self._handles.items():
            if not handle.alive:
                continue
            try:
                replies[sid] = self._control(handle, op, *args, timeout=timeout)
            except ShardUnavailable:
                pass
        return replies

    # ------------------------------------------------------------------
    # the service surface (repro.serve.service.ServiceSurface)
    # ------------------------------------------------------------------
    @property
    def ring(self) -> HashRing:
        return self._ring

    def apply_updates(self, batch: MutationBatch) -> int:
        """Broadcast one live-update batch to every shard; returns the new
        tier-wide network version.

        The batch is validated once against the router's network copy
        (typed errors, nothing broadcast on failure), stamped with the next
        monotonic version, applied to the router copy (so later batches
        validate against current patterns; the boot-time pattern of each
        edge is kept for restart forks to rewind to), appended to the
        replay log, then sent to each live worker, which applies it under
        its own update lock (estimator delta, overlay stale cells).  A shard that is
        down catches up from the log when it restarts; a shard whose apply
        *fails* is killed so the restart-and-replay path resynchronises it
        rather than leaving it silently serving a diverged network.
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        validate_batch(self._network, batch)
        with self._updates.accepted(), self._update_lock:
            for done in apply_batch(self._network, batch):
                self._boot_patterns.setdefault(
                    (done.source, done.target), done.old_pattern
                )
            version = self._updates.applied(batch)
            self._mutation_log.append((batch, version))
            for sid, handle in self._handles.items():
                if not handle.alive:
                    continue
                try:
                    self._control(
                        handle, "apply_updates", batch, version, timeout=120.0
                    )
                except ShardUnavailable:
                    continue  # restart replay catches it up
                except ReproError:
                    self.metrics.inc(
                        "shard_update_failures_total",
                        labels={"shard_id": str(sid)},
                    )
                    self.kill_shard(sid)
            return version

    @property
    def degraded(self) -> bool:
        """Degraded when any shard is down, booted degraded, or its breaker
        is not closed — the single-process semantics at shard granularity."""
        return any(
            not handle.alive
            or handle.boot_info["degraded"]
            or handle.breaker.state != "closed"
            for handle in self._handles.values()
        )

    def shard_health(self) -> list[dict]:
        """Per-shard state: the ``"shards"`` block of :meth:`health`."""
        report = []
        for sid, handle in sorted(self._handles.items()):
            entry = {
                "shard_id": sid,
                "alive": handle.alive,
                "breaker": handle.breaker.state,
                "restarts": handle.restarts,
                "pid": handle.boot_info["pid"],
                "tables_mode": handle.boot_info["tables_mode"],
                "overlay_mode": handle.boot_info["overlay_mode"],
            }
            health = None
            if handle.alive:
                try:
                    health = self._control(handle, "health", timeout=5.0)
                except (ShardUnavailable, ReproError):
                    entry["alive"] = False
            if health is None:
                entry["status"] = "down"
            else:
                entry.update(
                    status=health["status"],
                    degraded=health["degraded"],
                    applied_version=health["network_version"],
                    staleness_seconds=health["staleness_seconds"],
                    pending_updates=health["pending_updates"],
                )
            report.append(entry)
        return report

    def health(self) -> dict:
        """The ``/healthz`` body: the single-process keys, plus ``shards``."""
        return {**super().health(), "shards": self.shard_health()}

    def invalidate(self, refresh_estimator: bool = False) -> int:
        return sum(self._broadcast("invalidate", refresh_estimator).values())

    def install_faults(self, plan: reliability.FaultPlan) -> None:
        """Install ``plan`` inside every live worker process."""
        self._broadcast("install_faults", plan)

    def uninstall_faults(self) -> int:
        """Remove the workers' plans; returns the faults they fired (a
        restarted worker's count starts over, so a lower bound under
        restarts)."""
        return sum(self._broadcast("uninstall_faults").values())

    def stats(self) -> dict:
        """The single-process counters summed over the live shards, the
        tier's own state, and every shard's full snapshot."""
        per_shard = self._broadcast("stats")
        totals: dict = {"result_cache": {}, "single_flight": {}}
        for shard in per_shard.values():
            for block, summed in totals.items():
                for key, value in shard[block].items():
                    summed[key] = summed.get(key, 0) + value
        return {
            "shards": self._shards,
            "alive": sum(1 for h in self._handles.values() if h.alive),
            "restarts": {
                sid: h.restarts for sid, h in self._handles.items()
            },
            "updates": self._updates.snapshot(),
            "engine_runs": sum(s["engine_runs"] for s in per_shard.values()),
            **totals,
            "per_shard": per_shard,
        }

    def render_metrics(self) -> str:
        """Tier router metrics plus every live shard's exposition.

        Worker samples already carry ``shard_id``/``shard_count`` const
        labels, so the concatenated text has no colliding series.
        """
        parts = [self.metrics.render()]
        parts.extend(self._broadcast("render_metrics", timeout=5.0).values())
        return "\n".join(p for p in parts if p)

    def kill_shard(self, shard_id: int) -> None:
        """Hard-kill one worker (tests and the chaos harness)."""
        handle = self._handles[shard_id]
        process = handle.process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=5.0)

    def close(self) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for handle in self._handles.values():
            if handle.alive:
                try:
                    self._control(handle, "close", timeout=2.0)
                except (ShardUnavailable, ReproError):
                    pass
        for handle in self._handles.values():
            process = handle.process
            if process is None:
                continue
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            handle.fail_pending("service closed")
            conn = handle.conn
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        if self._tables_file is not None:
            try:
                os.unlink(self._tables_file)
            except OSError:
                pass
            self._tables_file = None

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
