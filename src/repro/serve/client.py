"""The HTTP client for the query service.

:class:`HTTPClient` speaks the JSON API via :mod:`urllib` (tests, smoke
scripts, ``replay-updates``); in-process callers call
``service.query(QueryRequest(...))`` directly.  Load generation is not a
product feature: ``benchmarks/e2e/run.py`` is the instrument.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Callable

from ..exceptions import ReproError, ServeClientError
from .http import request_to_wire
from .service import QueryRequest


class HTTPClient:
    """Stdlib client for the JSON API with retries and typed failures.

    Transport-level failures (connection refused/reset, DNS, socket
    timeouts) and — optionally — HTTP 503 overload responses are retried
    up to ``retries`` times with exponential backoff and **full jitter**
    (``uniform(0, min(cap, base * 2^attempt))``), honouring the server's
    ``Retry-After`` header on 503.  When the budget runs out, the raw
    ``urllib``/``socket`` error is wrapped in a typed
    :class:`~repro.exceptions.ServeClientError` carrying the URL and the
    attempt count, so callers (and the CLI) never see a raw traceback.

    ``sleep`` and ``rng`` are injectable so tests can pin the backoff
    schedule deterministically.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        retry_503: bool = True,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.retry_503 = retry_503
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()

    def _backoff(self, attempt: int, retry_after: float | None = None) -> None:
        if retry_after is not None and retry_after >= 0:
            self._sleep(retry_after)
            return
        ceiling = min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))
        self._sleep(self._rng.uniform(0.0, ceiling))

    def _request(self, req: urllib.request.Request) -> tuple[int, bytes, dict]:
        """Send with retries; returns ``(status, body, headers)``.

        4xx/5xx come back as statuses (after 503 retries are spent), not
        exceptions; only transport failures raise ``ServeClientError``.
        """
        url = req.full_url
        attempt = 0
        while True:
            try:
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    return resp.status, resp.read(), dict(resp.headers)
            except urllib.error.HTTPError as exc:
                body = exc.read()
                if (
                    exc.code == 503
                    and self.retry_503
                    and attempt < self.retries
                ):
                    retry_after = None
                    header = exc.headers.get("Retry-After")
                    if header is not None:
                        try:
                            retry_after = float(header)
                        except ValueError:
                            retry_after = None
                    self._backoff(attempt, retry_after)
                    attempt += 1
                    continue
                return exc.code, body, dict(exc.headers)
            except OSError as exc:
                # URLError subclasses OSError, so this covers connection
                # refused/reset, DNS failures, and socket timeouts alike.
                if attempt < self.retries:
                    self._backoff(attempt)
                    attempt += 1
                    continue
                raise ServeClientError(
                    f"request failed: {exc}", url=url, attempts=attempt + 1
                ) from exc

    def _decode(self, status: int, body: bytes, url: str) -> dict:
        try:
            decoded = json.loads(body)
        except json.JSONDecodeError:
            if status == 200:
                raise ServeClientError(
                    "server returned 200 with an unparseable body", url=url
                ) from None
            decoded = {
                "error": "HTTPError",
                "message": body.decode(errors="replace"),
            }
        return decoded

    def _get(self, path: str) -> tuple[int, bytes]:
        req = urllib.request.Request(self.base_url + path, method="GET")
        status, body, _headers = self._request(req)
        return status, body

    def post(self, path: str, body: dict) -> tuple[int, dict]:
        """POST JSON; returns ``(status, decoded_body)`` without raising on 4xx/5xx."""
        req = urllib.request.Request(
            self.base_url + path,
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        status, payload, _headers = self._request(req)
        return status, self._decode(status, payload, req.full_url)

    def healthz(self) -> dict:
        status, body = self._get("/healthz")
        if status != 200:
            raise ReproError(f"healthz returned HTTP {status}")
        return json.loads(body)

    def metrics_text(self) -> str:
        status, body = self._get("/metrics")
        if status != 200:
            raise ReproError(f"metrics returned HTTP {status}")
        return body.decode()

    def query(self, request: QueryRequest) -> tuple[int, dict]:
        """POST ``request`` to ``/v1/{mode}``; returns ``(status,
        decoded_body)`` like :meth:`post`."""
        body = request_to_wire(request)
        return self.post(f"/v1/{body.pop('mode')}", body)

    def updates(self, batch) -> tuple[int, dict]:
        """POST a live-update batch to ``/v1/updates``.

        Accepts a :class:`~repro.serve.updates.MutationBatch` or an
        already-wire ``{"mutations": [...]}`` dict; returns
        ``(status, decoded_body)`` like :meth:`post`.
        """
        wire = batch if isinstance(batch, dict) else batch.to_wire()
        return self.post("/v1/updates", wire)
