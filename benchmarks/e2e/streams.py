"""The four pinned workloads and their seeded operation streams.

A workload pins a network (fixed generator flags), a server command line,
a stream shape and its incidents (the mutated edges); ``--seed`` draws the
queries.
The server only ever sees the generated requests.  Everything the
workloads need from ``repro`` goes through public functions
(``load_network``, ``random_query``, ``slowdown_pattern``, ...).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from repro.serve.updates import pattern_to_wire, slowdown_pattern
from repro.workloads.queries import morning_rush_interval, random_query

#: Every query is allFP over the 7:00-9:00 workday leaving interval.
QUERY_FROM, QUERY_TO = "7:00", "9:00"
INTERVAL_HOURS = 2.0

#: Stream positions per pass.  p90 needs ten positions beyond it, which
#: 120 gives (12); this is why the tail metric is p90 and not p95.
STREAM_QUERIES = 120
QUICK_QUERIES = 24
WARMUP_REQUESTS = 16

#: Distance strata of the query sample.  Equal counts per stratum keep the
#: latency distribution's shape the same from seed to seed, so percentiles
#: move with the code and not with the draw.
DISTANCE_STRATA = 12

#: One incident = this many edges slowed to a quarter of their speed; the
#: next batch restores them, so every pair ends in the base network state.
EDGES_PER_BATCH = 4
SLOWDOWN = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``repro-allfp generate`` flags; the network never depends on --seed
    generate: tuple[str, ...]
    #: Euclidean distance band of the queries, miles
    band: tuple[float, float]
    #: slow/restore batch pairs per replay
    update_pairs: int
    #: boundary-estimator grid
    grid: int = 8
    #: result cache and coalescing on (the serve defaults)
    caches: bool = False
    shards: int = 0
    #: "" = flat engine; "prebuilt" = ``build-overlay`` runs before every
    #: boot and the server maps its snapshot; "boot" = the server builds
    #: the overlay itself into ``--overlay-cache`` (what --shards needs)
    overlay: str = ""
    overlay_grid: int = 8
    overlay_levels: int = 2
    #: > 0: requests are Zipf(1.1) draws over this many distinct queries
    hot_keys: int = 0
    #: updates ride in the query stream (one batch after every n-th query)
    #: instead of in a phase of their own after the passes
    updates_in_stream: bool = False
    #: cold set-ups per run (median reported); 1 where one costs > 5 s
    boots: int = 3
    #: the --quick stand-in, where the pinned network is too slow for it
    quick_generate: tuple[str, ...] | None = None
    quick_band: tuple[float, float] | None = None

    def overlay_flags(self) -> list[str]:
        """``repro-allfp build-overlay`` flags (network/out added by caller)."""
        return [
            "--levels", str(self.overlay_levels),
            "--overlay-grid", str(self.overlay_grid),
            "--grid", str(self.grid),
            "--workers", "1",
        ]

    def serve_flags(self, snapshot: str) -> list[str]:
        """``repro-allfp serve`` flags (network/port added by caller)."""
        flags = ["--estimator", "boundary", "--grid", str(self.grid)]
        if self.overlay == "prebuilt":
            flags += ["--estimator-cache", snapshot, "--overlay-cache", snapshot]
        elif self.overlay == "boot":
            flags += [
                "--overlay-levels", str(self.overlay_levels),
                "--overlay-cache", snapshot,
            ]
        if self.shards:
            flags += ["--shards", str(self.shards)]
        if not self.caches:
            flags += ["--no-result-cache", "--no-coalesce"]
        return flags


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="paper14k_unique",
        why="Distinct 0.5-3 mi queries on the paper-scale 14 520-node network, "
        "caches off: every request is a flat engine run, so core, func, "
        "estimators and patterns do the work and the serve caches none.",
        generate=("--paper-scale", "--seed", "0"),
        band=(0.5, 3.0),
        update_pairs=2,
    ),
    Workload(
        name="paper14k_hot",
        why="Zipf(1.1) repeats of 16 queries answered in warm-up, same network, "
        "default caches: the engine never runs, so HTTP parse, cache lookup, "
        "JSON encode and socket writes are all the work.",
        generate=("--paper-scale", "--seed", "0"),
        band=(0.5, 3.0),
        update_pairs=2,
        caches=True,
        hot_keys=16,
    ),
    Workload(
        name="metro1600_overlay",
        why="Distinct 3-8 mi queries through a 2-level overlay on a 40x40 metro, "
        "build-overlay inside set-up: hierarchy dominates set-up, query and "
        "update; few labels over functions of many breakpoints.",
        generate=(
            "--width", "40", "--height", "40", "--spacing", "0.25", "--seed", "0",
        ),
        band=(3.0, 8.0),
        update_pairs=1,
        overlay="prebuilt",
        boots=1,
        quick_generate=("--width", "24", "--height", "24", "--seed", "0"),
        quick_band=(1.0, 5.0),
    ),
    Workload(
        name="metro576_live",
        why="Distinct 1-5 mi queries on a 24x24 metro behind 2 shards with an "
        "update batch after every 10th: writes beside reads, shard pipes, delta "
        "re-customization, caches cleared by every version bump.",
        generate=("--width", "24", "--height", "24", "--seed", "0"),
        band=(1.0, 5.0),
        update_pairs=6,
        grid=6,
        caches=True,
        shards=2,
        overlay="boot",
        updates_in_stream=True,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Op:
    """One request of the stream: the bytes on the wire plus what the
    checker needs to know about it."""

    kind: str  # "query" | "update"
    path: str
    body: bytes
    source: int = -1
    target: int = -1


@dataclass
class Stream:
    warmup: list[Op]
    #: one pass; replayed K times on the same connection
    ops: list[Op]
    #: slow/restore batches replayed after the query passes (empty when
    #: the updates are in ``ops``)
    update_phase: list[Op] = field(default_factory=list)

    @property
    def queries(self) -> list[Op]:
        return [op for op in self.ops if op.kind == "query"]


def _query_op(source: int, target: int) -> Op:
    body = json.dumps(
        {"source": source, "target": target, "from": QUERY_FROM, "to": QUERY_TO}
    ).encode()
    return Op("query", "/v1/allfp", body, source, target)


def _update_op(edges, factor: float | None) -> Op:
    mutations = [
        {
            "source": e.source,
            "target": e.target,
            "pattern": pattern_to_wire(
                e.pattern if factor is None else slowdown_pattern(e.pattern, factor)
            ),
        }
        for e in edges
    ]
    return Op("update", "/v1/updates", json.dumps({"mutations": mutations}).encode())


def sample_queries(network, rng, count, band, taken=()):
    """``count`` distinct (source, target) pairs, equal numbers from each
    of ``DISTANCE_STRATA`` equal-width slices of ``band``."""
    interval = morning_rush_interval(INTERVAL_HOURS)
    lo, hi = band
    strata = min(DISTANCE_STRATA, count)
    width = (hi - lo) / strata
    seen = set(taken)
    pairs = []
    for i in range(count):
        s = i % strata
        while True:
            q = random_query(
                network, interval, rng, lo + s * width, lo + (s + 1) * width
            )
            if (q.source, q.target) not in seen:
                break
        seen.add((q.source, q.target))
        pairs.append((q.source, q.target))
    rng.shuffle(pairs)
    return pairs


def update_script(network, rng, pairs: int) -> list[Op]:
    """``pairs`` x (slow 4 edges to a quarter speed, restore them)."""
    edges = sorted(network.edges(), key=lambda e: (e.source, e.target))
    ops = []
    for _ in range(pairs):
        chosen = rng.sample(edges, EDGES_PER_BATCH)
        ops.append(_update_op(chosen, SLOWDOWN))
        ops.append(_update_op(chosen, None))
    return ops


def build_stream(workload: Workload, network, seed: int, quick: bool = False) -> Stream:
    """The workload's stream for ``seed`` — the only source of randomness."""
    rng = random.Random(f"{workload.name}:{seed}")
    n = QUICK_QUERIES if quick else STREAM_QUERIES
    band = workload.quick_band if quick and workload.quick_band else workload.band
    pairs = max(1, workload.update_pairs // 3) if quick else workload.update_pairs
    # The incidents are pinned per workload, not drawn from --seed: a run
    # affords a dozen update positions at most, and which cells a fresh draw
    # happened to hit moved update_p50_ms by 27 % from seed to seed.
    updates = update_script(network, random.Random(f"{workload.name}:updates"), pairs)
    if workload.hot_keys:
        keys = sample_queries(network, rng, workload.hot_keys, band)
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(keys))]
        draws = rng.choices(range(len(keys)), weights=weights, k=n)
        # Warm-up answers every distinct query once, so every measured
        # request is a result-cache hit.
        return Stream(
            warmup=[_query_op(*pair) for pair in keys],
            ops=[_query_op(*keys[i]) for i in draws],
            update_phase=updates,
        )
    warm = sample_queries(network, rng, WARMUP_REQUESTS, band)
    queries = [_query_op(*p) for p in sample_queries(network, rng, n, band, warm)]
    warmup = [_query_op(*pair) for pair in warm]
    if not workload.updates_in_stream:
        return Stream(warmup=warmup, ops=queries, update_phase=updates)
    every = max(1, len(queries) // len(updates))
    ops: list[Op] = []
    pending = list(updates)
    for i, op in enumerate(queries, start=1):
        ops.append(op)
        if i % every == 0 and pending:
            ops.append(pending.pop(0))
    ops.extend(pending)  # an odd tail must still end in the base state
    return Stream(warmup=warmup, ops=ops)
