"""Request coalescing and result caching for the query service.

Two independent layers, both keyed on the full query identity
``(source, target, interval, mode, version)``:

* :class:`SingleFlight` — at most one *in-flight* computation per key.
  The first caller becomes the **leader** and runs the computation;
  concurrent duplicates become **followers** that block on the leader's
  future and share its outcome (including exceptions).  This is the
  classic single-flight map (cf. Go's ``golang.org/x/sync/singleflight``).
* :class:`ResultCache` — a TTL + LRU cache of *completed* results, so
  repeats that arrive after the leader finished are served without any
  engine work at all.

The network version in the key makes a live update safe by
construction: an answer cached at one version can never be served at
another.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any, Callable, Hashable

Key = Hashable


class SingleFlight:
    """Deduplicate concurrent identical computations.

    ``do(key, fn)`` returns ``(value, leader)`` where ``leader`` tells the
    caller whether it executed ``fn`` itself (and should e.g. populate the
    result cache) or inherited another caller's outcome.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[Key, Future] = {}
        self.leaders = 0
        self.coalesced = 0

    def do(self, key: Key, fn: Callable[[], Any]) -> tuple[Any, bool]:
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self.coalesced += 1
            else:
                self.leaders += 1
                self._inflight[key] = Future()
        if existing is not None:
            return existing.result(), False
        future = self._inflight[key]
        try:
            value = fn()
        except BaseException as exc:
            future.set_exception(exc)
            raise
        else:
            future.set_result(value)
            return value, True
        finally:
            with self._lock:
                self._inflight.pop(key, None)

    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "inflight": len(self._inflight),
                "leaders": self.leaders,
                "coalesced": self.coalesced,
            }


class ResultCache:
    """TTL + LRU cache of completed query results.

    ``max_entries`` bounds memory; ``ttl`` (seconds) bounds staleness — the
    service keys entries on the network version, and the TTL protects even
    same-version entries from serving forever.  ``clock`` is injectable so
    tests control expiry deterministically.
    """

    def __init__(
        self,
        max_entries: int = 1024,
        ttl: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        self._lock = threading.Lock()
        self._entries: OrderedDict[Key, tuple[float, Any]] = OrderedDict()
        self._max_entries = max_entries
        self._ttl = ttl
        self._clock = clock
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def get(self, key: Key) -> Any | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            stored_at, value = entry
            if self._clock() - stored_at >= self._ttl:
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Key, value: Any) -> None:
        with self._lock:
            self._entries[key] = (self._clock(), value)
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
            }
