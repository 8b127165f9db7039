"""Admission control: bounded pending work and per-query deadlines.

The service admits at most ``max_pending`` requests at a time (running the
engine, waiting for its lock, or waiting on a coalesced leader).  Beyond that it
**fast-fails** with :class:`~repro.exceptions.ServiceOverloaded` instead of
queueing unboundedly — an overloaded service that answers "retry later" in
microseconds degrades gracefully; one that buffers every request melts.

:class:`Deadline` carries a wall-clock budget from the moment of admission
through queueing into the engine, so time spent waiting for the engine lock
counts against the query, not just time spent searching.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from ..exceptions import ServiceOverloaded


@dataclass(frozen=True)
class Deadline:
    """An absolute wall-clock cutoff on the ``clock`` timeline."""

    at: float
    budget: float
    clock: Callable[[], float] = time.monotonic

    @classmethod
    def after(
        cls, budget: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline ``budget`` seconds from now."""
        return cls(at=clock() + budget, budget=budget, clock=clock)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.at - self.clock()

    def expired(self) -> bool:
        return self.remaining() <= 0.0


class AdmissionController:
    """Counting gate in front of the engine lock.

    ``try_acquire`` / ``release`` bracket each admitted request;
    ``pending`` is the live depth exported as the queue-depth gauge.
    """

    def __init__(self, max_pending: int = 64) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._lock = threading.Lock()
        self._max_pending = max_pending
        self._pending = 0
        self.admitted = 0
        self.rejected = 0

    @property
    def max_pending(self) -> int:
        return self._max_pending

    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    def try_acquire(self) -> None:
        """Admit one request or raise :class:`ServiceOverloaded` immediately."""
        with self._lock:
            if self._pending >= self._max_pending:
                self.rejected += 1
                raise ServiceOverloaded(self._pending, self._max_pending)
            self._pending += 1
            self.admitted += 1

    def release(self) -> None:
        with self._lock:
            if self._pending <= 0:
                raise RuntimeError("release() without matching try_acquire()")
            self._pending -= 1

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "pending": self._pending,
                "max_pending": self._max_pending,
                "admitted": self.admitted,
                "rejected": self.rejected,
            }
