"""The shard worker process: the single-process service, opened from files.

Each worker is a "dumb server" in the memcached sense — it owns no routing
logic, just answers what arrives on its :class:`multiprocessing` pipe.  The
parent-side router (:mod:`repro.shard.tier`) speaks a tiny tuple protocol:

* ``("query", req_id, wire_request)`` → ``("ok", req_id, wire_response)``
  or ``("err", req_id, error)``
* ``("control", req_id, op, args)`` → ``("ok", req_id, return value)``:
  ``op`` is one of :data:`CONTROL_OPS` — method names of the service
  surface (:class:`~repro.serve.service.ServiceSurface`), called with
  ``args`` — or ``"close"``

A request crosses the pipe as its HTTP body plus ``"mode"`` and an answer
as its HTTP 200 body — the one codec in :mod:`repro.serve.http`
(``request_to_wire`` / ``request_from_wire`` / ``response_to_wire``).
Errors cross as themselves: a :class:`~repro.exceptions.ReproError`
pickles with its class, message and attributes (a timeout's partial
``stats`` included), so the router raises exactly what the worker's
service raised and ``isinstance`` checks (and the HTTP status mapping)
behave identically with and without ``--shards``.  Anything else is
wrapped as a :class:`~repro.exceptions.ServiceError` carrying its type
and text.

A worker boots through :func:`repro.serve.boot.open_service`, the same call
the CLI makes for ``--shards 0``: estimator tables and the overlay arrive as
RPRESNAP files it ``mmap``s read-only (all workers share one page-cache
copy), anything else as a fork-inherited object; a failed load degrades to
the naive bound / the flat engine (still exact answers) instead of refusing
to boot.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace

from .. import reliability
from ..exceptions import ReproError, ServiceError
from ..serve.http import request_from_wire, response_to_wire

#: Fault point fired on every received message; an injected error here
#: simulates a hard worker crash (``os._exit``), which the chaos harness
#: uses to exercise router failover.
KILL_POINT = "repro.shard.worker.kill"

#: Service-surface methods the router may invoke over the control channel.
CONTROL_OPS = frozenset(
    {
        "health",
        "stats",
        "render_metrics",
        "invalidate",
        "apply_updates",
        "install_faults",
        "uninstall_faults",
    }
)


@dataclass
class WorkerBoot:
    """Everything a worker needs to open its service (fork- and
    spawn-safe: every field is picklable or ``None``)."""

    shard_id: int
    shard_count: int
    config: object  # ServiceConfig (imported lazily to keep forks cheap)
    #: fork-inherited network, or ``network_path`` to re-open (a .ccam file
    #: object must never be shared across processes — its offset would race)
    network: object | None = None
    network_path: str | None = None
    #: fork-inherited estimator object (table-less ones only; tables travel
    #: as ``snapshot_path``)
    estimator: object | None = None
    #: RPRESNAP files the worker mmaps: estimator tables / overlay section
    snapshot_path: str | None = None
    overlay_path: str | None = None
    #: ``{(source, target): boot-time pattern}`` of every edge a live update
    #: has touched: a restarted worker forks the router's *mutated* network
    #: and is put back on the one the files were customized for
    rewind: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Errors across the pipe
# ----------------------------------------------------------------------
def wire_error(exc: BaseException) -> ReproError:
    """What a failure crosses the pipe as: a typed error as itself,
    anything else as a :class:`ServiceError` with its type and text."""
    if isinstance(exc, ReproError):
        return exc
    return ServiceError(f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# Worker main
# ----------------------------------------------------------------------
def run_worker(boot: WorkerBoot, conn, inherited=()) -> None:
    """Process entry point: open the service, then serve the pipe.

    ``inherited`` are the router-side pipe ends the fork copied into this
    process (its own pipe's and every sibling's); they are closed first, or
    no worker would ever see EOF when the router dies without a goodbye.

    Exit paths: a ``close`` control (clean), EOF on the pipe (router
    gone), an injected :data:`KILL_POINT` fault (``os._exit(1)``, the
    simulated hard crash), or a boot failure reported as ``boot_error``.
    """
    for router_end in inherited:
        router_end.close()
    from ..serve.boot import open_network, open_service

    try:
        network = (
            boot.network
            if boot.network is not None
            else open_network(boot.network_path)
        )
        for (source, target), pattern in boot.rewind.items():
            network.update_edge_pattern(source, target, pattern)
        service, info = open_service(
            network,
            boot.estimator,
            replace(
                boot.config,
                shard_id=boot.shard_id,
                shard_count=boot.shard_count,
            ),
            snapshot_path=boot.snapshot_path,
            overlay_path=boot.overlay_path,
        )
    except BaseException as exc:  # noqa: BLE001 — report, then die
        try:
            conn.send(
                ("boot_error", -1, {
                    "type": type(exc).__name__, "message": str(exc),
                })
            )
            conn.close()
        except OSError:
            pass
        os._exit(3)

    conn.send(("ready", -1, {
        "shard_id": boot.shard_id,
        "pid": os.getpid(),
        "degraded": service.degraded,
        **info,
    }))

    send_lock = threading.Lock()

    def reply(kind: str, req_id: int, payload) -> None:
        with send_lock:
            try:
                conn.send((kind, req_id, payload))
            except (OSError, ValueError):
                pass  # parent is gone; the recv loop will exit next

    def handle_query(req_id: int, doc: dict) -> None:
        try:
            response = service.query(request_from_wire(doc))
            reply("ok", req_id, response_to_wire(response))
        except BaseException as exc:  # noqa: BLE001 — typed for the router
            reply("err", req_id, wire_error(exc))

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        try:
            reliability.fire(KILL_POINT)
        except BaseException:  # noqa: BLE001 — any injected error = crash
            os._exit(1)
        if message[0] == "query":
            # One thread per query, as ThreadingHTTPServer does per
            # connection: the service's admission sees every request the
            # moment it arrives and its deadline clock starts then.
            _, req_id, doc = message
            threading.Thread(
                target=handle_query,
                args=(req_id, doc),
                name=f"repro-shard-{boot.shard_id}-q{req_id}",
                daemon=True,
            ).start()
            continue
        _, req_id, op, args = message
        if op == "close":
            reply("ok", req_id, None)
            break
        try:
            if op not in CONTROL_OPS:
                raise ServiceError(f"unknown control op {op!r}")
            reply("ok", req_id, getattr(service, op)(*args))
        except BaseException as exc:  # noqa: BLE001
            reply("err", req_id, wire_error(exc))
    try:
        service.close()
    except Exception:
        pass
    try:
        conn.close()
    except OSError:
        pass
