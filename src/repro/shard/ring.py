"""Consistent-hash ring: normalized query keys onto shard ids.

The memcached-style design — dumb servers, the client owns routing and
failover — applied in-process: the router hangs every shard on the ring at
:data:`DEFAULT_REPLICAS` virtual points and sends each query to the first
shard at or after the key's hash.  Two properties make this the right
structure for a cache-affine serve tier:

* **affinity** — a key maps to the same shard on every process and every
  boot (the hash is sha256 over the key text, *not* Python's per-process
  salted ``hash()``), so a shard's edge-function and result caches only
  ever see "their" keys and stay hot;
* **minimal movement** — removing a shard reassigns only the keys that
  lived on it (its virtual arcs are absorbed by the ring successors);
  every other key keeps its shard and its warm caches.

Routing keys are *normalized* per mode so that all requests which benefit
from the same warm state land together: allFP/profile/knn queries route by
source (one source's edge-function working set is shared across its
targets), singleFP by the (source, target) pair, and batch by its sorted
distinct source group (the batch engine runs one profile search per
distinct source).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from typing import Iterable, Sequence

#: Virtual points per shard.  128 keeps the max/mean load ratio well under
#: the 2x property-test bound at 10k keys while the ring stays tiny
#: (N * 128 sorted ints).
DEFAULT_REPLICAS = 128


def stable_hash(text: str) -> int:
    """A 64-bit position derived from sha256 — identical across processes,
    platforms, and interpreter restarts (unlike the salted ``hash()``)."""
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
    )


def routing_key(request) -> str:
    """The normalized key a :class:`~repro.serve.service.QueryRequest`
    routes by (see the module docstring for the per-mode rationale)."""
    mode = request.mode
    if mode == "singlefp":
        return f"pair:{request.source}:{request.target}"
    if mode == "batch":
        sources = sorted({int(s) for s, _ in request.pairs})
        return "group:" + ",".join(str(s) for s in sources)
    # allfp, profile, knn: one-source working sets
    return f"src:{request.source}"


class HashRing:
    """Shard ids on a consistent-hash ring with virtual nodes."""

    def __init__(self, shard_ids: Iterable[int]) -> None:
        ids = list(dict.fromkeys(shard_ids))
        if not ids:
            raise ValueError("a hash ring needs at least one shard")
        self._ids: list[int] = []
        self._points: list[tuple[int, int]] = []  # (position, shard_id)
        for sid in ids:
            self.add(sid)

    # ------------------------------------------------------------------
    def _vnode_points(self, shard_id: int) -> list[tuple[int, int]]:
        return [
            (stable_hash(f"shard:{shard_id}#{r}"), shard_id)
            for r in range(DEFAULT_REPLICAS)
        ]

    def add(self, shard_id: int) -> None:
        if shard_id in self._ids:
            return
        self._ids.append(shard_id)
        for point in self._vnode_points(shard_id):
            insort(self._points, point)

    def remove(self, shard_id: int) -> None:
        if shard_id not in self._ids:
            return
        self._ids.remove(shard_id)
        self._points = [p for p in self._points if p[1] != shard_id]

    @property
    def shard_ids(self) -> tuple[int, ...]:
        return tuple(self._ids)

    # ------------------------------------------------------------------
    def node_for(self, key: str) -> int:
        """The shard owning ``key`` (first virtual point at or after it)."""
        return self.preference(key, 1)[0]

    def preference(self, key: str, count: int | None = None) -> list[int]:
        """Distinct shards in ring order from ``key``'s position.

        The first entry is the owner; the rest are the failover order the
        router walks when a shard is dead or its breaker is open.
        """
        if not self._points:
            raise ValueError("a hash ring needs at least one shard")
        if count is None:
            count = len(self._ids)
        position = stable_hash(key)
        start = bisect_right(self._points, (position, -1))
        order: list[int] = []
        seen: set[int] = set()
        n = len(self._points)
        for step in range(n):
            sid = self._points[(start + step) % n][1]
            if sid not in seen:
                seen.add(sid)
                order.append(sid)
                if len(order) >= count:
                    break
        return order

    def assignment(self, keys: Sequence[str]) -> dict[str, int]:
        """``{key: owner}`` for a batch of keys (property tests, tooling)."""
        return {key: self.node_for(key) for key in keys}
