"""Sharded multi-process serve tier over mmap-shared customized data.

``repro.shard`` splits one serve deployment across N worker processes,
each hosting a full :class:`~repro.serve.service.AllFPService`, behind an
in-process consistent-hash router:

* :mod:`repro.shard.ring` — the hash ring and the per-mode routing-key
  normalisation (cache affinity + minimal movement);
* :mod:`repro.shard.worker` — the worker process main loop and the
  pipe wire protocol (requests and answers in their HTTP form, typed
  errors as themselves);
* :mod:`repro.shard.tier` — :class:`ShardedService`, the router with
  per-shard circuit breakers, ring failover, and worker restart.

See ``docs/sharding.md`` for the architecture and the two table
transports.
"""

from ..serve.http import request_from_wire, request_to_wire
from .ring import DEFAULT_REPLICAS, HashRing, routing_key, stable_hash
from .tier import ShardedService, WireResult
from .worker import KILL_POINT, WorkerBoot, run_worker

__all__ = [
    "DEFAULT_REPLICAS",
    "HashRing",
    "KILL_POINT",
    "ShardedService",
    "WireResult",
    "WorkerBoot",
    "request_from_wire",
    "request_to_wire",
    "routing_key",
    "run_worker",
    "stable_hash",
]
