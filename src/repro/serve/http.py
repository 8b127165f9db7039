"""Stdlib-only JSON/HTTP front-end over the service surface
(:class:`~repro.serve.service.ServiceSurface`: one process or a shard tier).

Endpoints
---------
``POST /v1/allfp`` and ``POST /v1/singlefp``
    JSON body::

        {"source": 0, "target": 99,
         "from": "7:00", "to": "9:00", "day": 0,     # clock strings, or
         "start": 420.0, "end": 540.0,               # absolute minutes
         "deadline": 5.0}                            # optional, seconds

    200 response (every query route): ``{"result": <result.as_dict()>,
    "cached": bool, "coalesced": bool, "elapsed_ms": float, "degraded":
    bool, "stale": bool, "version": int}``, plus ``"degraded_shard"`` when
    a shard tier failed over.

``POST /v1/profile``
    Earliest-arrival functions from ``source`` to an explicit, bounded
    ``targets`` list (one-to-all over HTTP is unbounded output, so the
    list is required; at most ``MAX_PROFILE_TARGETS`` entries)::

        {"source": 0, "targets": [3, 4, 5], "start": 420.0, "end": 540.0}

``POST /v1/knn``
    Time-interval k-nearest-neighbour ranking over ``candidates``::

        {"source": 0, "candidates": [3, 4, 5], "k": 2,
         "start": 420.0, "end": 540.0}

``POST /v1/batch``
    Many fastest-time queries answered as one admitted request (at most
    ``MAX_BATCH_ITEMS``; answers come back per item, in input order).
    Either explicit pairs or the one-to-many shorthand::

        {"items": [{"source": 0, "target": 9}, {"source": 3, "target": 7}],
         "start": 420.0, "end": 540.0}
        {"source": 0, "targets": [7, 8, 9], "start": 420.0, "end": 540.0}

``POST /v1/updates``
    The live-traffic mutation feed: a batch of edge-pattern mutations
    applied atomically at one network version (see
    :mod:`repro.serve.updates` for the wire format)::

        {"mutations": [{"source": 0, "target": 1,
                        "pattern": {"workday": [[0, 0.5], [420, 0.1]],
                                    "non-workday": [[0, 0.5]]}}]}

    200 response: ``{"version": <new network version>, "applied": N,
    "staleness_seconds": float}``.  Unknown edges → 404, malformed
    patterns → 400, calendar-coverage gaps → 404; a failed batch applies
    nothing.

``GET /healthz``
    ``{"status": "ok", "degraded": false, "network_version": <applied>,
    "staleness_seconds": float, "pending_updates": N, "nodes": N}`` —
    cheap liveness plus the bounded-staleness triple.

``GET /metrics``
    Prometheus text exposition from the service's metrics registry.

Query bodies may carry ``max_staleness`` (seconds): when the service is
further behind the accepted update stream than that, the query is refused
with 503 + ``Retry-After`` instead of answered against old data.

These bodies are the one wire form of a request and of an answer.
:func:`request_to_wire` writes a :class:`~repro.serve.service.QueryRequest`
as its body plus ``"mode"`` (interval as ``start``/``end``, batch pairs as
``items``, ``None`` fields left out); :func:`parse_request` decodes a body
under the HTTP-only policy (list caps, required profile ``targets``,
positive ``deadline``), :func:`request_from_wire` decodes the same dict
without it, and :func:`response_to_wire` writes the 200 body.  The HTTP
client and the shard pipe use these and nothing else.

Every POST must declare its body with a non-negative integer
``Content-Length`` (at most ``MAX_BODY_BYTES``); the declared body is read
before the path is routed, and a request whose body is left unread closes
the connection after its error response, so a keep-alive peer never has
leftover body bytes parsed as its next request.

Error mapping: malformed input → 400, unknown node → 404, no path → 404,
admission rejection → 503 (with ``Retry-After``), staleness bound
exceeded → 503 (with ``Retry-After``), deadline → 504.  Every error body
is ``{"error": <class>, "message": <str>}``.

Built on :class:`http.server.ThreadingHTTPServer`: one thread per
connection, so slow queries never block ``/healthz``, ``/metrics`` or a
cache hit — each request's engine runs on its connection's thread, one
at a time under the service's engine lock, and admission control bounds
how many wait for it, not socket count.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..core.engine import QueryTimeout
from ..exceptions import (
    NetworkError,
    NoPathError,
    QueryError,
    ReproError,
    ServiceOverloaded,
    ShardUnavailable,
    StalenessExceeded,
)
from .. import reliability
from ..timeutil import TimeInterval, parse_clock
from .service import QueryRequest, QueryResponse, ServiceSurface
from .updates import MutationBatch

#: Maximum accepted request body, bytes — queries are tiny.
MAX_BODY_BYTES = 64 * 1024

#: Ceiling on ``targets``/``candidates`` list lengths per request.
MAX_PROFILE_TARGETS = 256

#: Ceiling on batch size — one admitted request runs the whole batch.
MAX_BATCH_ITEMS = 256

#: Every POST path -> its query mode; ``None`` is the mutation feed.
POST_ROUTES = {
    "/v1/allfp": "allfp",
    "/v1/singlefp": "singlefp",
    "/v1/profile": "profile",
    "/v1/knn": "knn",
    "/v1/batch": "batch",
    "/v1/updates": None,
}


class BadRequest(ValueError):
    """The request body failed validation (maps to HTTP 400)."""


def parse_interval(body: dict) -> TimeInterval:
    """Build the leaving interval from clock strings or absolute minutes."""
    if "from" in body or "to" in body:
        if not ("from" in body and "to" in body):
            raise BadRequest("'from' and 'to' must be supplied together")
        day = body.get("day", 0)
        if not isinstance(day, int):
            raise BadRequest(f"'day' must be an integer, got {day!r}")
        try:
            return TimeInterval(
                parse_clock(str(body["from"]), day),
                parse_clock(str(body["to"]), day),
            )
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc
    if "start" in body and "end" in body:
        try:
            return TimeInterval(float(body["start"]), float(body["end"]))
        except (TypeError, ValueError) as exc:
            raise BadRequest(
                f"'start'/'end' must be numbers: {exc}"
            ) from exc
    raise BadRequest(
        "interval missing: supply 'from'/'to' clock strings or "
        "'start'/'end' minutes"
    )


def _require_node_id(body: dict, field: str) -> int:
    if field not in body:
        raise BadRequest(f"missing required field {field!r}")
    if not isinstance(body[field], int) or isinstance(body[field], bool):
        raise BadRequest(
            f"{field!r} must be an integer node id, got {body[field]!r}"
        )
    return body[field]


def _node_id_list(
    body: dict, field: str, required: bool, http: bool
) -> tuple[int, ...] | None:
    value = body.get(field)
    if value is None:
        if required:
            raise BadRequest(f"missing required field {field!r}")
        return None
    if not isinstance(value, list) or not value:
        raise BadRequest(f"{field!r} must be a non-empty list of node ids")
    if http and len(value) > MAX_PROFILE_TARGETS:
        raise BadRequest(
            f"{field!r} has {len(value)} entries; at most "
            f"{MAX_PROFILE_TARGETS} allowed"
        )
    for item in value:
        if not isinstance(item, int) or isinstance(item, bool):
            raise BadRequest(
                f"{field!r} entries must be integer node ids, got {item!r}"
            )
    return tuple(value)


def _batch_pairs(body: dict, http: bool) -> tuple[tuple[int, int], ...]:
    """The batch's ``(source, target)`` pairs from either accepted form."""
    items = body.get("items")
    if items is not None:
        if not isinstance(items, list) or not items:
            raise BadRequest("'items' must be a non-empty list of objects")
        if http and len(items) > MAX_BATCH_ITEMS:
            raise BadRequest(
                f"'items' has {len(items)} entries; at most "
                f"{MAX_BATCH_ITEMS} allowed"
            )
        pairs = []
        for item in items:
            if not isinstance(item, dict):
                raise BadRequest(
                    f"'items' entries must be objects, got {item!r}"
                )
            pairs.append(
                (_require_node_id(item, "source"), _require_node_id(item, "target"))
            )
        return tuple(pairs)
    source = _require_node_id(body, "source")
    targets = _node_id_list(body, "targets", required=False, http=http)
    if targets is None:
        raise BadRequest(
            "batch requires either 'items' (source/target objects) or "
            "'source' plus 'targets'"
        )
    if http and len(targets) > MAX_BATCH_ITEMS:
        raise BadRequest(
            f"'targets' has {len(targets)} entries; at most "
            f"{MAX_BATCH_ITEMS} allowed"
        )
    return tuple((source, target) for target in targets)


def _decode(body: dict, mode: str, http: bool) -> QueryRequest:
    """One request from its wire form.  ``http`` adds the policy only an
    untrusted socket needs: the list caps, "profile needs ``targets``"
    (one-to-all output is unbounded over HTTP), a positive ``deadline`` and
    a non-negative ``max_staleness``."""
    target = targets = candidates = k = pairs = None
    if mode == "batch":
        pairs = _batch_pairs(body, http)
        source = pairs[0][0]
    else:
        source = _require_node_id(body, "source")
    if mode in ("allfp", "singlefp"):
        target = _require_node_id(body, "target")
    elif mode == "profile":
        targets = _node_id_list(body, "targets", required=http, http=http)
    elif mode == "knn":
        candidates = _node_id_list(body, "candidates", required=True, http=http)
        k = body.get("k")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise BadRequest(f"'k' must be a positive integer, got {k!r}")
    deadline = body.get("deadline")
    if deadline is not None:
        try:
            deadline = float(deadline)
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"'deadline' must be a number: {exc}") from exc
        if http and deadline <= 0:
            raise BadRequest("'deadline' must be positive")
    max_staleness = body.get("max_staleness")
    if max_staleness is not None:
        if isinstance(max_staleness, bool) or not isinstance(
            max_staleness, (int, float)
        ):
            raise BadRequest(
                f"'max_staleness' must be seconds >= 0, got {max_staleness!r}"
            )
        max_staleness = float(max_staleness)
        if http and max_staleness < 0:
            raise BadRequest("'max_staleness' must be >= 0")
    try:
        return QueryRequest(
            source=source,
            target=target,
            interval=parse_interval(body),
            mode=mode,
            deadline=deadline,
            targets=targets,
            candidates=candidates,
            k=k,
            pairs=pairs,
            max_staleness=max_staleness,
        )
    except QueryError as exc:
        raise BadRequest(str(exc)) from exc


def parse_request(body: dict, mode: str) -> QueryRequest:
    """The request one ``POST /v1/{mode}`` body asks, under the HTTP policy."""
    return _decode(body, mode, http=True)


def request_to_wire(request: QueryRequest) -> dict:
    """The HTTP body of ``request`` plus its ``"mode"``: the one encoding of
    a request, POSTed by :class:`~repro.serve.client.HTTPClient` and carried
    on the shard pipe.  Fields that are ``None`` are left out."""
    doc = {
        "mode": request.mode,
        "start": request.interval.start,
        "end": request.interval.end,
    }
    if request.pairs is not None:
        doc["items"] = [{"source": s, "target": t} for s, t in request.pairs]
    else:
        doc["source"] = request.source
    for name in (
        "target", "targets", "candidates", "k", "deadline", "max_staleness"
    ):
        value = getattr(request, name)
        if value is not None:
            doc[name] = list(value) if isinstance(value, tuple) else value
    return doc


def request_from_wire(doc: dict) -> QueryRequest:
    """Decode :func:`request_to_wire`'s dict (the shard pipe's side: no HTTP
    policy, so the in-process tier still serves a one-to-all profile)."""
    return _decode(doc, doc["mode"], http=False)


def response_to_wire(response: QueryResponse) -> dict:
    """The 200 body of one answered query (also its shard-pipe form)."""
    body = {
        "result": response.result.as_dict(),
        "cached": response.cached,
        "coalesced": response.coalesced,
        "elapsed_ms": response.elapsed_seconds * 1e3,
        "degraded": response.degraded,
        "stale": response.stale,
        "version": response.version,
    }
    if response.degraded_shard is not None:
        body["degraded_shard"] = response.degraded_shard
    return body


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # The server object carries the service (see ServeServer below).
    @property
    def service(self) -> ServiceSurface:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        if getattr(self.server, "quiet", True):
            return
        super().log_message(format, *args)

    # ------------------------------------------------------------------
    def _send_json(
        self, status: int, payload: dict, extra_headers: dict | None = None
    ) -> None:
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:  # a body was left unread (see _read_body)
            self.send_header("Connection", "close")
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_error_json(
        self, status: int, exc: BaseException, extra_headers: dict | None = None
    ) -> None:
        self._send_json(
            status,
            {"error": type(exc).__name__, "message": str(exc)},
            extra_headers,
        )

    def _read_body(self) -> bytes:
        """The declared request body.  A length that is missing, not an
        integer, negative or over the limit leaves the body unread, so the
        connection closes after the 400 instead of mis-framing what follows.
        """
        declared = self.headers.get("Content-Length", "")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if 0 <= length <= MAX_BODY_BYTES:
            return self.rfile.read(length)
        self.close_connection = True
        if length < 0:
            raise BadRequest(
                f"Content-Length must be a non-negative integer, got {declared!r}"
            )
        raise BadRequest(f"body exceeds {MAX_BODY_BYTES} bytes")

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/healthz":
            self._send_json(200, self.service.health())
        elif self.path == "/metrics":
            data = self.service.render_metrics().encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        else:
            self._send_json(404, {"error": "NotFound", "message": self.path})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        mode = POST_ROUTES.get(self.path)
        try:
            raw = self._read_body()
            if self.path not in POST_ROUTES:
                self._send_json(404, {"error": "NotFound", "message": self.path})
                return
            reliability.fire("repro.serve.http.request")
            try:
                body = json.loads(raw or b"{}")
            except json.JSONDecodeError as exc:
                raise BadRequest(f"invalid JSON body: {exc}") from exc
            if not isinstance(body, dict):
                raise BadRequest("JSON body must be an object")
            if mode is None:
                batch = MutationBatch.from_wire(body)
                version = self.service.apply_updates(batch)
                self._send_json(
                    200,
                    {
                        "version": version,
                        "applied": len(batch),
                        "staleness_seconds": self.service.staleness_seconds(),
                    },
                )
                return
            request = parse_request(body, mode)
            response = self.service.query(request)
        except BadRequest as exc:
            self._send_error_json(400, exc)
        except ServiceOverloaded as exc:
            self._send_error_json(
                503, exc, {"Retry-After": f"{exc.retry_after:.3f}"}
            )
        except StalenessExceeded as exc:
            # The service is catching up on the mutation stream; the hint
            # is how far over the caller's bound it currently runs.
            retry = max(exc.staleness - exc.max_staleness, 0.05)
            self._send_error_json(503, exc, {"Retry-After": f"{retry:.3f}"})
        except ShardUnavailable as exc:
            # Every ring candidate was down or breaker-open: the tier is
            # temporarily unhealthy, not the request malformed.
            self._send_error_json(503, exc)
        except QueryTimeout as exc:
            self._send_error_json(504, exc)
        except (NoPathError, NetworkError) as exc:
            # Unknown node ids surface as NodeNotFoundError (a NetworkError).
            self._send_error_json(404, exc)
        except (QueryError, ValueError) as exc:
            self._send_error_json(400, exc)
        except ReproError as exc:
            self._send_error_json(500, exc)
        else:
            self._send_json(200, response_to_wire(response))


class ServeServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer bound to one service surface."""

    daemon_threads = True

    def __init__(self, address, service: ServiceSurface, quiet: bool = True):
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet


def make_server(
    service: ServiceSurface,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = True,
) -> ServeServer:
    """Bind (but do not start) the HTTP front-end; ``port=0`` auto-assigns."""
    return ServeServer((host, port), service, quiet=quiet)


def start_in_thread(server: ServeServer) -> threading.Thread:
    """Run ``serve_forever`` on a daemon thread (tests, smoke scripts)."""
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    thread.start()
    return thread
