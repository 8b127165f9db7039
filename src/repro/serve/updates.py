"""Live edge-pattern mutation stream: wire formats, validation, traces.

The online update path (`POST /v1/updates`, ``repro-allfp replay-updates``,
shard broadcast) moves batches of **edge-pattern mutations**: an existing
edge gets a new CapeCod speed pattern.  Topology never changes on this
path — endpoints, distances, and road classes stay fixed — so the grid
partitions, boundary-node sets, and overlay cell structure built at boot
remain valid and only travel-time functions change.

Wire format (one mutation)::

    {"source": 12, "target": 13,
     "pattern": {"workday": [[0, 0.5], [420, 0.1], [540, 0.5]],
                 "non-workday": [[0, 0.5]]}}

A batch is ``{"mutations": [...]}``; an incident-trace file is JSON Lines,
one event per line: ``{"at": <seconds offset>, "mutations": [...]}``.

Malformed shapes raise :class:`~repro.exceptions.QueryError` (HTTP 400),
unknown edges :class:`~repro.exceptions.EdgeNotFoundError` (HTTP 404),
calendar-coverage gaps :class:`~repro.exceptions.NetworkError` — all
typed, all before any mutation is applied (a batch is all-or-nothing).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..exceptions import NetworkError, PatternError, QueryError
from ..patterns.speed import CapeCodPattern, DailySpeedPattern

MAX_MUTATIONS_PER_BATCH = 1024


def pattern_to_wire(pattern: CapeCodPattern) -> dict:
    """JSON-safe form: ``{category: [[start_minute, speed_mpm], ...]}``."""
    return {
        category: [[start, speed] for start, speed in pattern.daily(category).pieces]
        for category in pattern.categories
    }


def pattern_from_wire(doc: object) -> CapeCodPattern:
    """Parse the wire form back into a pattern, typed errors throughout."""
    if not isinstance(doc, dict) or not doc:
        raise QueryError("pattern must be a non-empty {category: pieces} object")
    by_category = {}
    for category, pieces in doc.items():
        if not isinstance(category, str):
            raise QueryError(f"pattern category must be a string, got {category!r}")
        if not isinstance(pieces, list) or not pieces:
            raise QueryError(
                f"pattern category {category!r} must list [start, speed] pairs"
            )
        parsed = []
        for piece in pieces:
            if (
                not isinstance(piece, (list, tuple))
                or len(piece) != 2
                or isinstance(piece[0], bool)
                or isinstance(piece[1], bool)
                or not isinstance(piece[0], (int, float))
                or not isinstance(piece[1], (int, float))
            ):
                raise QueryError(
                    f"pattern category {category!r}: each piece must be "
                    f"[start_minute, speed_mpm], got {piece!r}"
                )
            parsed.append((float(piece[0]), float(piece[1])))
        try:
            by_category[category] = DailySpeedPattern(parsed)
        except PatternError as exc:
            raise QueryError(
                f"pattern category {category!r} is malformed: {exc}"
            ) from exc
    return CapeCodPattern(by_category)


@dataclass(frozen=True)
class EdgeMutation:
    """One timestamped edge-pattern mutation."""

    source: int
    target: int
    pattern: CapeCodPattern

    def to_wire(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "pattern": pattern_to_wire(self.pattern),
        }

    @classmethod
    def from_wire(cls, doc: object) -> "EdgeMutation":
        if not isinstance(doc, dict):
            raise QueryError(f"mutation must be an object, got {type(doc).__name__}")
        for field in ("source", "target"):
            value = doc.get(field)
            if isinstance(value, bool) or not isinstance(value, int):
                raise QueryError(f"mutation {field!r} must be an integer node id")
        if "pattern" not in doc:
            raise QueryError("mutation is missing its 'pattern'")
        return cls(doc["source"], doc["target"], pattern_from_wire(doc["pattern"]))


@dataclass(frozen=True)
class MutationBatch:
    """An ordered batch of mutations, applied atomically at one version."""

    mutations: tuple[EdgeMutation, ...]

    def __len__(self) -> int:
        return len(self.mutations)

    def to_wire(self) -> dict:
        return {"mutations": [m.to_wire() for m in self.mutations]}

    @classmethod
    def from_wire(cls, doc: object) -> "MutationBatch":
        if not isinstance(doc, dict):
            raise QueryError("update body must be a JSON object")
        raw = doc.get("mutations")
        if not isinstance(raw, list) or not raw:
            raise QueryError("update body needs a non-empty 'mutations' list")
        if len(raw) > MAX_MUTATIONS_PER_BATCH:
            raise QueryError(
                f"batch of {len(raw)} mutations exceeds the limit of "
                f"{MAX_MUTATIONS_PER_BATCH}"
            )
        return cls(tuple(EdgeMutation.from_wire(m) for m in raw))


@dataclass(frozen=True)
class AppliedMutation:
    """Record of one applied mutation, enough for delta re-customization."""

    source: int
    target: int
    distance: float
    old_pattern: CapeCodPattern
    new_pattern: CapeCodPattern


def validate_batch(network, batch: MutationBatch) -> None:
    """Check every mutation against the network before touching anything.

    Unknown edges raise :class:`EdgeNotFoundError`; patterns that do not
    cover the network calendar raise :class:`NetworkError`.  A batch that
    fails here leaves the network byte-identical.
    """
    categories = network.calendar.categories
    for mutation in batch.mutations:
        network.find_edge(mutation.source, mutation.target)
        if not mutation.pattern.covers(categories):
            raise NetworkError(
                f"mutation {mutation.source}->{mutation.target}: pattern "
                f"categories {mutation.pattern.categories} do not cover the "
                f"network calendar"
            )


def apply_batch(network, batch: MutationBatch) -> list[AppliedMutation]:
    """Validate then apply a batch; returns the applied-mutation records.

    Works against both the in-memory :class:`CapeCodNetwork` and a
    writable :class:`CCAMStore` (both expose ``update_edge_pattern``).
    """
    validate_batch(network, batch)
    applied = []
    for mutation in batch.mutations:
        old = network.find_edge(mutation.source, mutation.target)
        network.update_edge_pattern(mutation.source, mutation.target, mutation.pattern)
        applied.append(
            AppliedMutation(
                mutation.source,
                mutation.target,
                old.distance,
                old.pattern,
                mutation.pattern,
            )
        )
    return applied


# ----------------------------------------------------------------------
# Incident traces (JSON Lines, one timestamped batch per line)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceEvent:
    """One trace line: a batch scheduled ``at`` seconds into the replay."""

    at: float
    batch: MutationBatch


def load_trace(path) -> list[TraceEvent]:
    """Parse an incident-trace file; events come back sorted by offset."""
    events = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise QueryError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise QueryError(f"{path}:{lineno}: each line must be an object")
        at = doc.get("at", 0.0)
        if isinstance(at, bool) or not isinstance(at, (int, float)) or at < 0:
            raise QueryError(f"{path}:{lineno}: 'at' must be seconds >= 0")
        try:
            batch = MutationBatch.from_wire(doc)
        except QueryError as exc:
            raise QueryError(f"{path}:{lineno}: {exc}") from exc
        events.append(TraceEvent(float(at), batch))
    if not events:
        raise QueryError(f"{path}: trace holds no events")
    events.sort(key=lambda e: e.at)
    return events


def dump_trace(events: Sequence[TraceEvent], path) -> None:
    lines = [
        json.dumps({"at": event.at, **event.batch.to_wire()}, sort_keys=True)
        for event in events
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def replay_trace(
    events: Iterable[TraceEvent],
    apply: Callable[[TraceEvent], None],
    speed: float = 1.0,
) -> None:
    """Call ``apply(event)`` for each event at its recorded offset.

    Offsets count from the call and are compressed by ``speed`` (``10``
    fires a ``t=5s`` event at 0.5 s); an ``apply`` that runs long delays
    later events, it never drops or reorders them.  The one trace replayer:
    ``replay-updates`` and the chaos harness's applier thread both drive it.
    """
    started = time.monotonic()
    for event in events:
        delay = event.at / speed - (time.monotonic() - started)
        if delay > 0:
            time.sleep(delay)
        apply(event)


def slowdown_pattern(pattern: CapeCodPattern, factor: float) -> CapeCodPattern:
    """A copy of ``pattern`` with every speed scaled by ``factor`` > 0.

    The canonical incident generator: ``factor=0.25`` models a lane
    closure, ``factor>1`` the recovery.  Piece boundaries are preserved.
    """
    if factor <= 0:
        raise QueryError(f"slowdown factor must be > 0, got {factor:g}")
    return CapeCodPattern(
        {
            category: DailySpeedPattern(
                [
                    (start, speed * factor)
                    for start, speed in pattern.daily(category).pieces
                ]
            )
            for category in pattern.categories
        }
    )


class ReadWriteLock:
    """Many readers or one writer, writer-preferring.

    Queries hold the read side while they compute so every answer is
    produced against exactly one network version; ``apply_updates`` holds
    the write side.  A waiting writer blocks new readers, so a steady
    query stream cannot starve the mutation feed.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class UpdateLedger:
    """Accepted-versus-applied accounting of the live-update stream.

    Both service front ends own one: it holds the applied network version,
    the batches accepted and not yet fully applied (whose oldest age is the
    number ``max_staleness`` is checked against), the batch / mutation /
    worst-lag counters behind ``stats()["updates"]``, and it registers the
    ``network_applied_version`` / ``update_staleness_seconds`` /
    ``updates_pending`` gauges on the owner's metrics registry.
    """

    def __init__(self, metrics) -> None:
        self._metrics = metrics
        self._lock = threading.Lock()
        self._pending: list[float] = []
        self.applied_version = 0
        self._batches = 0
        self._mutations = 0
        self._max_staleness = 0.0
        metrics.set_gauge(
            "network_applied_version",
            lambda: float(self.applied_version),
            help="Count of live-update batches applied",
        )
        metrics.set_gauge(
            "update_staleness_seconds",
            self.staleness_seconds,
            help="Age of the oldest accepted-but-unapplied update batch "
            "(0 when nothing is pending)",
        )
        metrics.set_gauge(
            "updates_pending",
            lambda: float(len(self._pending)),
            help="Update batches accepted and not yet fully applied",
        )

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._pending)

    def staleness_seconds(self) -> float:
        """Age of the oldest accepted-but-unapplied batch (0 if none)."""
        with self._lock:
            if not self._pending:
                return 0.0
            return max(0.0, time.monotonic() - self._pending[0])

    @contextmanager
    def accepted(self):
        """Count one validated batch as pending until the block exits."""
        accepted_at = time.monotonic()
        with self._lock:
            self._pending.append(accepted_at)
        try:
            yield
        finally:
            lag = time.monotonic() - accepted_at
            with self._lock:
                self._pending.remove(accepted_at)
                self._max_staleness = max(self._max_staleness, lag)

    def applied(self, batch: MutationBatch, version: int | None = None) -> int:
        """Record ``batch`` as applied; returns the new network version
        (``version`` when the caller imposes one, else the next integer)."""
        self.applied_version = (
            version if version is not None else self.applied_version + 1
        )
        self._batches += 1
        self._mutations += len(batch)
        self._metrics.inc(
            "updates_applied_total", help="Live-update batches applied"
        )
        self._metrics.inc(
            "update_mutations_total",
            len(batch),
            help="Edge-pattern mutations applied across all batches",
        )
        return self.applied_version

    def snapshot(self) -> dict:
        return {
            "applied_version": self.applied_version,
            "batches_applied": self._batches,
            "mutations_applied": self._mutations,
            "pending": self.pending,
            "staleness_seconds": self.staleness_seconds(),
            "max_staleness_seconds": self._max_staleness,
        }
