"""Deterministic fault injection and the degradation primitives it exercises.

The production story of this repo (serve layer, estimator precompute, CCAM
storage) needs a *provable* answer to "what happens when parts fail".  This
module provides it in three pieces:

* :class:`FaultPlan` / :class:`FaultInjector` — a **seeded** description of
  which named injection points misbehave, how (raise, delay, or corrupt),
  and with what probability.  The same plan seed always yields the same
  per-spec decision sequence, so a chaos run is reproducible in CI.
* module-level :func:`fire` — the hook the instrumented call sites invoke.
  With no injector installed it is a single global load and compare, cheap
  enough for hot paths like page reads.
* :class:`CircuitBreaker` — the classic closed → open → half-open gate the
  shard router keeps per worker, so a persistently failing shard is
  routed around instead of burning every request's dispatch budget.

Injection points are dotted names mirroring the module that hosts them
(``repro.storage.pages.read``, ``repro.serve.service.task`` …); a spec's
``point`` matches exactly or by dotted prefix, so ``repro.storage`` targets
every storage-layer site at once.  The full list is documented in
``docs/reliability.md``.

Activation is programmatic (:func:`install`) or via the ``REPRO_FAULTS``
environment variable holding either inline JSON or a path to a JSON file —
read once at import, so CLI verbs and the processes they fork inherit the
plan without extra wiring.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .exceptions import EstimatorError, InjectedFault, StorageError

MODES = ("error", "delay", "corrupt")

#: Exception classes a spec's ``error`` key may name.  ``"crash"`` is a
#: deliberate *untyped* error (plain RuntimeError): it simulates a bug or a
#: dying worker, exercising the paths that must never leak a traceback to a
#: client.  Everything else is a typed :class:`~repro.exceptions.ReproError`.
ERROR_TYPES = {
    "fault": InjectedFault,
    "storage": StorageError,
    "estimator": EstimatorError,
    "os": OSError,
    "crash": RuntimeError,
}

#: Cap on retained history events — counters keep counting past this.
MAX_HISTORY = 10_000

ENV_VAR = "REPRO_FAULTS"


@dataclass(frozen=True)
class FaultSpec:
    """One rule of a :class:`FaultPlan`.

    ``point`` names an injection point, exactly or as a dotted prefix.
    ``mode`` is ``"error"`` (raise ``ERROR_TYPES[error]``), ``"delay"``
    (sleep ``delay_seconds``), or ``"corrupt"`` (flip one byte of the
    payload; sites without a byte payload raise instead).  ``probability``
    is the per-arrival firing chance and ``max_fires`` bounds the total
    number of firings (``None`` = unlimited).
    """

    point: str
    mode: str = "error"
    probability: float = 1.0
    max_fires: int | None = None
    delay_seconds: float = 0.01
    error: str = "fault"
    message: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}; expected one of {MODES}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.error not in ERROR_TYPES:
            raise ValueError(
                f"unknown error type {self.error!r}; expected one of {sorted(ERROR_TYPES)}"
            )
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError(f"max_fires must be >= 0, got {self.max_fires}")
        if self.delay_seconds < 0:
            raise ValueError(f"delay_seconds must be >= 0, got {self.delay_seconds}")

    def matches(self, point: str) -> bool:
        return point == self.point or point.startswith(self.point + ".")

    def as_dict(self) -> dict:
        return {
            "point": self.point,
            "mode": self.mode,
            "probability": self.probability,
            "max_fires": self.max_fires,
            "delay_seconds": self.delay_seconds,
            "error": self.error,
            "message": self.message,
        }


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the fault specs it parameterises.

    The seed feeds one independent RNG per spec (derived as
    ``sha256(seed | spec.point | spec_index)``), so the decision sequence of
    each spec depends only on the plan and that spec's own arrival order —
    not on how unrelated points interleave.
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        if not isinstance(doc, dict):
            raise ValueError("fault plan must be a JSON object")
        raw = doc.get("faults", [])
        if not isinstance(raw, list):
            raise ValueError("'faults' must be a list of spec objects")
        specs = []
        for entry in raw:
            if not isinstance(entry, dict) or "point" not in entry:
                raise ValueError(f"malformed fault spec: {entry!r}")
            known = {
                k: entry[k]
                for k in (
                    "point", "mode", "probability", "max_fires",
                    "delay_seconds", "error", "message",
                )
                if k in entry
            }
            specs.append(FaultSpec(**known))
        return cls(seed=int(doc.get("seed", 0)), specs=tuple(specs))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def as_dict(self) -> dict:
        return {"seed": self.seed, "faults": [s.as_dict() for s in self.specs]}


@dataclass(frozen=True)
class FaultEvent:
    """One recorded firing: global sequence number, site, rule, action."""

    seq: int
    point: str
    spec_point: str
    mode: str


class _SpecState:
    __slots__ = ("spec", "rng", "fires")

    def __init__(self, spec: FaultSpec, seed: int, index: int) -> None:
        self.spec = spec
        digest = hashlib.sha256(f"{seed}|{spec.point}|{index}".encode()).digest()
        self.rng = random.Random(int.from_bytes(digest[:8], "little"))
        self.fires = 0


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at every :func:`fire` call site.

    Thread-safe; decisions are drawn under one lock so each spec's RNG
    consumes draws strictly in arrival order.  The first matching,
    non-exhausted spec that fires wins for a given arrival.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._states = [
            _SpecState(spec, plan.seed, i) for i, spec in enumerate(plan.specs)
        ]
        self._history: list[FaultEvent] = []
        self._hits: dict[str, int] = {}
        self._seq = 0
        self.fired = 0

    def fire(self, point: str, data: bytes | None = None) -> bytes | None:
        """Evaluate ``point``; may raise, sleep, or return corrupted data."""
        spec = None
        extra_draw = 0.0
        with self._lock:
            self._hits[point] = self._hits.get(point, 0) + 1
            for state in self._states:
                cand = state.spec
                if not cand.matches(point):
                    continue
                if cand.max_fires is not None and state.fires >= cand.max_fires:
                    continue
                if state.rng.random() >= cand.probability:
                    continue
                state.fires += 1
                if cand.mode == "corrupt":
                    extra_draw = state.rng.random()
                self._seq += 1
                self.fired += 1
                if len(self._history) < MAX_HISTORY:
                    self._history.append(
                        FaultEvent(self._seq, point, cand.point, cand.mode)
                    )
                spec = cand
                break
        if spec is None:
            return data
        if spec.mode == "delay":
            time.sleep(spec.delay_seconds)
            return data
        if spec.mode == "corrupt":
            if data is None:
                raise InjectedFault(
                    f"injected corruption at {point} (site carries no payload)"
                )
            index = min(int(extra_draw * len(data)), len(data) - 1) if data else 0
            mutated = bytearray(data)
            if mutated:
                mutated[index] ^= 0xFF
            return bytes(mutated)
        message = spec.message or f"injected {spec.error} fault at {point}"
        raise ERROR_TYPES[spec.error](message)

    # ------------------------------------------------------------------
    def history(self) -> tuple[FaultEvent, ...]:
        with self._lock:
            return tuple(self._history)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "fired": self.fired,
                "hits": dict(self._hits),
                "specs": [
                    {"point": s.spec.point, "mode": s.spec.mode, "fires": s.fires}
                    for s in self._states
                ],
            }


# ----------------------------------------------------------------------
# Module-level installation (what the instrumented call sites consult)
# ----------------------------------------------------------------------

_INJECTOR: FaultInjector | None = None


def install(plan: FaultPlan | FaultInjector) -> FaultInjector:
    """Install a plan (or a prepared injector) process-wide; returns it."""
    global _INJECTOR
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    _INJECTOR = injector
    return injector


def uninstall() -> None:
    """Remove the installed injector; :func:`fire` becomes a no-op again."""
    global _INJECTOR
    _INJECTOR = None


def get() -> FaultInjector | None:
    return _INJECTOR


def is_active() -> bool:
    return _INJECTOR is not None


def fire(point: str, data: bytes | None = None) -> bytes | None:
    """Hook called by instrumented sites; near-free when nothing is installed."""
    injector = _INJECTOR
    if injector is None:
        return data
    return injector.fire(point, data)


def fired_total() -> int:
    """Total injected faults so far (0 when no injector is installed)."""
    injector = _INJECTOR
    return 0 if injector is None else injector.fired


def install_from_env(environ=os.environ) -> FaultInjector | None:
    """Install from ``REPRO_FAULTS`` (inline JSON or a path); None if unset."""
    raw = environ.get(ENV_VAR)
    if not raw:
        return None
    text = raw.strip()
    if not text.startswith("{"):
        with open(text, "r", encoding="utf-8") as f:
            text = f.read()
    return install(FaultPlan.from_json(text))


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class CircuitBreaker:
    """Closed → open → half-open failure gate.

    ``failure_threshold`` consecutive failures open the circuit; after
    ``reset_timeout`` seconds one trial call is allowed (half-open), whose
    outcome closes or re-opens it.  ``clock`` is injectable so tests drive
    the timeline deterministically.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ValueError(f"reset_timeout must be > 0, got {reset_timeout}")
        self._lock = threading.Lock()
        self._threshold = failure_threshold
        self._reset_timeout = reset_timeout
        self._clock = clock
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        self.opened_total = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self._reset_timeout
        ):
            return "half_open"
        return self._state

    def allow(self) -> bool:
        """Whether a call may proceed; a half-open allow claims the one trial."""
        with self._lock:
            if self._state == "closed":
                return True
            if (
                self._state == "open"
                and self._clock() - self._opened_at >= self._reset_timeout
            ):
                # Claim the single trial; concurrent callers stay blocked
                # until record_success/record_failure resolves it.
                self._state = "half_open"
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = "closed"

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == "half_open" or self._failures >= self._threshold:
                if self._state != "open":
                    self.opened_total += 1
                self._state = "open"
                self._opened_at = self._clock()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._effective_state(),
                "failures": self._failures,
                "threshold": self._threshold,
                "opened_total": self.opened_total,
            }


# One-time env activation: CLI runs and forked workers pick the plan up
# without any explicit install() call.
if os.environ.get(ENV_VAR):  # pragma: no cover - exercised via subprocess
    install_from_env()
