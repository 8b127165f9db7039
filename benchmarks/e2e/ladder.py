"""The traced run: the workload's stream replayed in this process as a
ladder of spans, plus the micro-measurements no request exercises alone.

    request -> shard.query -> serve.query -> hierarchy.engine -> core.engine
            -> estimators.prepare/bound, network.outgoing, core.edge_fn
            -> patterns.edge_function, func.<op>

Spans are recorded from here, around the calls into each layer: the
timing wrappers are rebound over public methods and over the kernel's
dispatched operators (the same module-attribute rebinding
``kernel.set_backend`` does) for the duration of the traced pass and put
back afterwards.  Nothing inside ``src/`` knows about them.

Calls that happen thousands of times per request (kernel operators,
``bound``, ``outgoing``) are not kept one span each: all calls of one
name under one parent fold into one *aggregated* span carrying ``calls``
and their summed duration ``busy``.  Self time = a span's own time minus
what its children cover (``arith.span_self_times``); per request the self
times sum to the request span.

End-to-end numbers never come from here — this process shares its GIL
with the wrappers.  ``trace.overhead_ratio`` says by how much.
"""

from __future__ import annotations

import json
import math
import pickle
import statistics
import tempfile
import time
from pathlib import Path

from repro.core import runtime
from repro.core.engine import IntAllFastestPaths
from repro.estimators import snapshot as snap
from repro.estimators.boundary import BoundaryNodeEstimator
from repro.func import kernel
from repro.hierarchy import MultiLevelOverlay, OverlayEngine
from repro.network.io import load_network
from repro.network.model import CapeCodNetwork
from repro.serve import AllFPService, QueryRequest, ServiceConfig
from repro.serve import service as service_module
from repro.serve.http import parse_request
from repro.serve.updates import MutationBatch
from repro.shard import ShardedService, request_from_wire, request_to_wire
from repro.shard.worker import response_to_wire
from repro.storage.ccam import CCAMStore
from repro.timeutil import TimeInterval
from repro.workloads.queries import morning_rush_interval

import loadgen
from arith import span_self_times
from oracle import functions_differ
from streams import INTERVAL_HOURS, Op, Workload, build_stream

#: The operators ``kernel.set_backend`` dispatches and the engines call.
KERNEL_OPS = (
    "merge_add", "merge_min", "lt_somewhere", "le_everywhere", "compose",
    "inverse", "simplify", "restrict", "envelope_fold",
)
#: Positions replayed over the disk-backed store (paper14k_unique only).
STORAGE_POSITIONS = 24
STORAGE_BUFFER_PAGES = 64
#: Self times must add up to the request span this closely.
SELF_SUM_TOLERANCE = 0.05


class Tracer:
    """Spans in memory; written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._folded: dict[tuple[int, str], dict] = {}
        self._request = -1
        #: which replay the spans belong to: "shard", "stream", "updates", ...
        self.phase = ""
        self._origin = time.perf_counter()

    # One stack for all threads on purpose: the replay is closed-loop, so
    # while the service's pool thread runs the engine the calling thread
    # is parked in ``Future.result()`` — spans nest in time, not by thread.
    def _open(self, name: str, aggregated: bool, parent: dict | None = None) -> dict:
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else -1,
            "phase": self.phase,
            "request": self._request,
            "name": name,
            "start": time.perf_counter() - self._origin,
            "end": 0.0,
            "calls": 0,
            "busy": 0.0,
            "aggregated": aggregated,
        }
        self.spans.append(span)
        return span

    def begin(self, name: str) -> dict:
        span = self._open(name, aggregated=False)
        self._stack.append(span)
        return span

    def finish(self, span: dict) -> None:
        self._stack.pop()
        span["end"] = time.perf_counter() - self._origin
        span["busy"] = span["end"] - span["start"]
        span["calls"] = 1

    def begin_request(self, index: int, name: str) -> dict:
        self._request = index
        self._folded.clear()
        return self.begin(name)

    def remote(self, name: str, seconds: float, parent: dict) -> dict:
        """A span another process timed: only its duration is known, so it
        is laid against the end of the parent that waited for it."""
        span = self._open(name, aggregated=False, parent=parent)
        span.update(
            start=parent["end"] - seconds, end=parent["end"], busy=seconds, calls=1
        )
        return span

    def plain(self, name: str, fn, keep_result: bool = False):
        """Wrap ``fn`` so every call is a span of its own."""

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if keep_result:
                span["result"] = result
            return result

        return traced

    def folded(self, name: str, fn):
        """Wrap ``fn`` so its calls under one parent fold into one span."""
        clock = time.perf_counter
        stack, folded = self._stack, self._folded

        def traced(*args, **kwargs):
            parent = stack[-1]["id"] if stack else -1
            span = folded.get((parent, name))
            if span is None:
                span = folded[(parent, name)] = self._open(name, aggregated=True)
            stack.append(span)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                span["calls"] += 1
                span["busy"] += ended - started
                span["end"] = ended - self._origin

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def install(tracer: Tracer, only: tuple[str, ...] = ()) -> list[tuple[object, str, object]]:
    """Rebind the timing wrappers (all, or the span names in ``only``);
    returns what :func:`uninstall` needs."""
    plain, folded = tracer.plain, tracer.folded

    def counted(name, fn):  # refresh_delta returns the cells it recomputed
        return plain(name, fn, keep_result=True)

    targets = [
        (ShardedService, "query", "shard.query", plain),
        (ShardedService, "apply_updates", "shard.update_broadcast", plain),
        (AllFPService, "query", "serve.query", plain),
        (AllFPService, "apply_updates", "serve.update_apply", plain),
        (service_module, "validate_batch", "serve.update_validate", plain),
        (OverlayEngine, "all_fastest_paths", "hierarchy.engine", plain),
        (IntAllFastestPaths, "all_fastest_paths", "core.engine", plain),
        (BoundaryNodeEstimator, "refresh_delta", "estimators.refresh_delta", plain),
        (MultiLevelOverlay, "refresh_delta", "hierarchy.refresh_delta", counted),
        (BoundaryNodeEstimator, "prepare", "estimators.prepare", folded),
        (BoundaryNodeEstimator, "bound", "estimators.bound", folded),
        (MultiLevelOverlay, "shortcuts_from", "hierarchy.shortcuts_from", folded),
        (CapeCodNetwork, "outgoing", "network.outgoing", folded),
        (CCAMStore, "outgoing", "network.outgoing", folded),
        (CCAMStore, "find_node", "storage.find_node", folded),
        (runtime.EdgeFunctionCache, "arrival", "core.edge_fn", folded),
        (runtime, "edge_arrival_function", "patterns.edge_function", folded),
    ]
    targets += [(kernel, op, f"func.{op}", folded) for op in KERNEL_OPS]
    originals = []
    for owner, attr, name, wrap in targets:
        if only and name not in only:
            continue
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, wrap(name, original))
    return originals


def uninstall(originals) -> None:
    for owner, attr, original in reversed(originals):
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------
def _request(op: Op, interval: TimeInterval) -> QueryRequest:
    return QueryRequest(op.source, op.target, interval, "allfp")


def _replay(service, ops: list[Op], interval, tracer: Tracer | None = None, phase=""):
    """Send ``ops`` to an in-process service; returns per-op seconds and
    the query responses (None at update positions)."""
    seconds, responses = [], []
    if tracer:
        tracer.phase = phase
    for index, op in enumerate(ops):
        span = tracer.begin_request(index, op.kind) if tracer else None
        started = time.perf_counter()
        if op.kind == "query":
            response = service.query(_request(op, interval))
        else:
            service.apply_updates(MutationBatch.from_wire(json.loads(op.body)))
            response = None
        seconds.append(time.perf_counter() - started)
        if span is not None:
            tracer.finish(span)
        responses.append(response)
    return seconds, responses


def _named(tracer: Tracer, name: str, phase: str = "") -> list[dict]:
    return [
        s for s in tracer.spans
        if s["name"] == name and (not phase or s["phase"] == phase)
    ]


def _per_call_us(tracer: Tracer, name: str) -> float:
    spans = _named(tracer, name)
    calls = sum(s["calls"] for s in spans)
    return sum(s["busy"] for s in spans) / calls * 1e6 if calls else 0.0


def _median_ms(values) -> float:
    values = list(values)
    return statistics.median(values) * 1e3 if values else 0.0


# ----------------------------------------------------------------------
# The ladder
# ----------------------------------------------------------------------
def run_ladder(
    root: Path, out_dir: Path, workload: Workload, seed: int, quick: bool = False
) -> tuple[dict[str, float], list[str]]:
    """Traced in-process run of ``workload``; returns the layer metrics it
    yields and the problems it found (empty when all is well)."""
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"ladder-{workload.name}-", dir=out_dir) as work:
        return _run_ladder(root, out_dir, Path(work), workload, seed, quick)


def _run_ladder(root, out_dir, work, workload, seed, quick):
    metrics: dict[str, float] = {}
    problems: list[str] = []
    interval = morning_rush_interval(INTERVAL_HOURS)
    net_path = work / "network.json"
    loadgen.generate_network(root, workload, quick, net_path)

    started = time.perf_counter()
    network = load_network(net_path)
    metrics["network.load_s"] = time.perf_counter() - started
    stream = build_stream(workload, network, seed, quick)

    # -- set-up layers, as the CLI's serve path builds them ---------------
    estimator = BoundaryNodeEstimator(network, workload.grid, workload.grid)
    metrics["estimators.precompute_s"] = estimator.precompute_seconds
    metrics["estimators.tables_mb"] = estimator.tables.nbytes / 2**20
    tables_path = estimator.save_snapshot(work / "tables.snap")
    started = time.perf_counter()
    BoundaryNodeEstimator.from_snapshot(network, tables_path)
    metrics["estimators.snapshot_load_ms"] = (time.perf_counter() - started) * 1e3

    overlay = None
    overlay_path = work / "overlay.snap"
    for key in ("build_s", "shortcuts", "breakpoints", "snapshot_map_ms", "snapshot_mb"):
        metrics[f"hierarchy.{key}"] = 0.0
    if workload.overlay:
        build = {"levels": workload.overlay_levels, "workers": 1}
        if workload.overlay == "prebuilt":  # build-overlay's own defaults
            build.update(
                nx=workload.overlay_grid, fanout=2,
                horizon=TimeInterval(0.0, 48 * 60.0),
            )
        built = MultiLevelOverlay.build(network, **build)
        metrics["hierarchy.build_s"] = built.stats.build_seconds
        metrics["hierarchy.shortcuts"] = float(built.stats.shortcuts)
        metrics["hierarchy.breakpoints"] = float(built.stats.breakpoints)
        snap.save_tables(
            estimator.tables, overlay_path, snap.network_fingerprint(network),
            overlay=built,
        )
        started = time.perf_counter()
        overlay = snap.map_overlay(overlay_path, network)
        metrics["hierarchy.snapshot_map_ms"] = (time.perf_counter() - started) * 1e3
        metrics["hierarchy.snapshot_mb"] = overlay_path.stat().st_size / 2**20

    config = ServiceConfig(coalesce=workload.caches, cache_results=workload.caches)
    tracer = Tracer()

    # -- the top rungs cross a process boundary on the sharded workload ---
    for key in ("query_self_ms", "update_broadcast_ms", "boot_s"):
        metrics[f"shard.{key}"] = 0.0
    if workload.shards:
        metrics.update(
            _shard_rungs(tracer, workload, network, estimator, config,
                         net_path, overlay_path, stream, interval)
        )

    # -- everything below, on a single-process service --------------------
    service = AllFPService(network, estimator, config, overlay=overlay)
    try:
        _replay(service, stream.warmup, interval)
        _replay(service, stream.ops, interval)  # settles the edge cache
        plain_s, plain_responses = _replay(service, stream.ops, interval)
        originals = install(tracer)
        try:
            traced_s, traced_responses = _replay(
                service, stream.ops, interval, tracer, "stream"
            )
            _replay(service, stream.update_phase, interval, tracer, "updates")
        finally:
            uninstall(originals)
    finally:
        service.close()

    for index, (a, b) in enumerate(zip(plain_responses, traced_responses)):
        if a is not None and functions_differ(
            a.result.as_dict()["border"], b.result.as_dict()["border"]
        ) is not None:
            problems.append(f"ladder position {index}: tracing changed the answer")

    trace_path = out_dir / f"trace_{workload.name}.jsonl"
    tracer.write(trace_path)
    metrics.update(_span_metrics(tracer, stream, traced_responses, problems))
    q_pos = [i for i, op in enumerate(stream.ops) if op.kind == "query"]
    metrics["trace.overhead_ratio"] = sum(traced_s[i] for i in q_pos) / sum(
        plain_s[i] for i in q_pos
    )
    metrics.update(_micro_measurements(workload, network, stream, traced_responses))
    metrics.update(_storage_rungs(workload, work, network, stream, interval))
    return metrics, problems


def _shard_rungs(tracer, workload, network, estimator, config, net_path,
                 overlay_path, stream, interval) -> dict[str, float]:
    """shard.query / shard.update_broadcast around a real 2-worker tier;
    what the workers timed themselves comes back in the replies."""
    started = time.perf_counter()
    tier = ShardedService(
        network, estimator, config, shards=workload.shards,
        network_path=str(net_path), overlay_path=str(overlay_path),
        grid=workload.grid,
    )
    boot_s = time.perf_counter() - started
    try:
        _replay(tier, stream.warmup, interval)
        originals = install(tracer, only=("shard.query", "shard.update_broadcast"))
        try:
            _, responses = _replay(tier, stream.ops, interval, tracer, "shard")
        finally:
            uninstall(originals)
    finally:
        tier.close()
    self_ms = []
    for span, response in zip(
        _named(tracer, "shard.query"), (r for r in responses if r is not None)
    ):
        served = tracer.remote("serve.query", response.elapsed_seconds, span)
        tracer.remote(
            "core.engine", min(response.result["stats"]["elapsed_seconds"],
                               response.elapsed_seconds), served,
        )
        self_ms.append((span["busy"] - response.elapsed_seconds) * 1e3)
    return {
        "shard.boot_s": boot_s,
        "shard.query_self_ms": statistics.median(self_ms),
        "shard.update_broadcast_ms": _median_ms(
            s["busy"] for s in _named(tracer, "shard.update_broadcast")
        ),
    }


def _span_metrics(tracer, stream, responses, problems) -> dict[str, float]:
    """Layer metrics out of the single-process traced pass."""
    selfs = span_self_times(tracer.spans)
    by_request: dict[int, list[dict]] = {}
    for span in tracer.spans:
        if span["phase"] == "stream":
            by_request.setdefault(span["request"], []).append(span)

    core_self, func_ms, func_calls, prepare_ms = [], [], [], []
    for index, op in enumerate(stream.ops):
        if op.kind != "query":
            continue
        mine = by_request[index]
        root = mine[0]  # opened first
        total = sum(selfs[s["id"]] for s in mine)
        if abs(total - root["busy"]) > SELF_SUM_TOLERANCE * root["busy"]:
            problems.append(
                f"trace request {index}: self times sum to {total * 1e3:.3f} ms, "
                f"span is {root['busy'] * 1e3:.3f} ms"
            )
        core_self.append(sum(selfs[s["id"]] for s in mine if s["name"] == "core.engine"))
        func = [s for s in mine if s["name"].startswith("func.")]
        func_ms.append(sum(selfs[s["id"]] for s in func))
        func_calls.append(sum(s["calls"] for s in func))
        prepare_ms.append(sum(s["busy"] for s in mine if s["name"] == "estimators.prepare"))

    answered = [r for r in responses if r is not None]
    overlay_runs = _named(tracer, "hierarchy.engine")
    cells = [s["result"] for s in _named(tracer, "hierarchy.refresh_delta")]
    return {
        "core.self_ms": _median_ms(core_self),
        "core.edge_fn_us": _per_call_us(tracer, "core.edge_fn"),
        "func.ops_ms": _median_ms(func_ms),
        "func.calls": statistics.fmean(func_calls),
        "estimators.prepare_ms": statistics.fmean(prepare_ms) * 1e3,
        "estimators.bound_us": _per_call_us(tracer, "estimators.bound"),
        "estimators.refresh_delta_ms": _median_ms(
            s["busy"] for s in _named(tracer, "estimators.refresh_delta")
        ),
        "hierarchy.engine_ms": _median_ms(s["busy"] for s in overlay_runs),
        "hierarchy.labels_generated": (
            statistics.fmean(r.result.stats.labels_generated for r in answered)
            if overlay_runs else 0.0
        ),
        "hierarchy.refresh_delta_ms": _median_ms(
            s["busy"] for s in _named(tracer, "hierarchy.refresh_delta")
        ),
        "hierarchy.cells_recomputed": statistics.fmean(cells) if cells else 0.0,
        "serve.update_validate_ms": _median_ms(
            s["busy"] for s in _named(tracer, "serve.update_validate")
        ),
        "network.outgoing_us": _per_call_us(tracer, "network.outgoing"),
        "patterns.edge_function_us": _per_call_us(tracer, "patterns.edge_function"),
    }


# ----------------------------------------------------------------------
# Micro-measurements: costs a request pays that no span isolates
# ----------------------------------------------------------------------
def _best_us(fn, repeat: int) -> float:
    """Microseconds per call, best of three rounds of ``repeat`` calls."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(repeat):
            fn()
        best = min(best, time.perf_counter() - started)
    return best / repeat * 1e6


def _operands(n: int):
    """Two arrival-like (nondecreasing) and two travel-time-like functions
    of ``n`` breakpoints over the morning interval."""
    inner_x = [420.0 + 120.0 * i / (n - 1) for i in range(n)]
    inner_y = [x + 10.0 + 3.0 * math.sin(x / 7.0) for x in inner_x]
    outer_x = [400.0 + 200.0 * i / (n - 1) for i in range(n)]
    outer_y = [x + 8.0 + 2.0 * math.cos(x / 5.0) for x in outer_x]
    a_y = [10.0 + 3.0 * math.sin(x / 7.0) for x in inner_x]
    b_y = [10.0 + 3.0 * math.cos(x / 9.0) for x in inner_x]
    return inner_x, inner_y, outer_x, outer_y, a_y, b_y


def _micro_measurements(workload, network, stream, responses) -> dict[str, float]:
    metrics = {}
    for n, repeat in ((32, 400), (512, 40)):
        ix, iy, ox, oy, ay, by = _operands(n)
        metrics[f"func.compose_us_{n}"] = _best_us(
            lambda: kernel.compose(ox, oy, ix, iy), repeat
        )
        metrics[f"func.merge_min_us_{n}"] = _best_us(
            lambda: kernel.merge_min(ix, ay, ix, by), repeat
        )
        # lower_envelope of two functions is two folds
        metrics[f"func.envelope_fold_us_{n}"] = _best_us(
            lambda: kernel.lower_envelope([(ix, ay, "a"), (ix, by, "b")], 420.0, 540.0),
            repeat,
        ) / 2.0

    queries = stream.queries
    answered = [r for r in responses if r is not None]
    bodies = [op.body for op in queries]
    metrics["serve.http_parse_us"] = _best_us(
        lambda: [parse_request(json.loads(b), "allfp") for b in bodies], 5
    ) / len(bodies)

    def payload(response) -> dict:
        return {
            "result": response.result.as_dict(), "cached": response.cached,
            "coalesced": response.coalesced,
            "elapsed_ms": response.elapsed_seconds * 1e3,
            "degraded": response.degraded, "stale": response.stale,
            "version": response.version,
        }

    metrics["serve.http_encode_us"] = _best_us(
        lambda: [json.dumps(payload(r)).encode() for r in answered], 5
    ) / len(answered)

    metrics["shard.wire_codec_us"] = metrics["shard.wire_bytes"] = 0.0
    if workload.shards:
        interval = morning_rush_interval(INTERVAL_HOURS)
        requests = [_request(op, interval) for op in queries]
        metrics["shard.wire_codec_us"] = _best_us(
            lambda: [request_from_wire(request_to_wire(r)) for r in requests]
            + [response_to_wire(r) for r in answered], 5,
        ) / len(requests)
        # multiprocessing pipes pickle what they carry, both directions
        metrics["shard.wire_bytes"] = statistics.fmean(
            len(pickle.dumps(("query", 0, request_to_wire(q))))
            + len(pickle.dumps(("ok", 0, response_to_wire(r))))
            for q, r in zip(requests, answered)
        )
    return metrics


def _storage_rungs(workload, work, network, stream, interval) -> dict[str, float]:
    """No end-to-end workload serves from a ``.ccam`` store, so the disk
    layer is measured here only: the first positions of paper14k_unique
    on a flat engine over a 64-page buffer."""
    names = ("build_s", "page_reads", "find_node_us", "buffer_hit_ratio")
    if workload.name != "paper14k_unique":
        return {f"storage.{name}": 0.0 for name in names}
    started = time.perf_counter()
    CCAMStore.build(network, work / "network.ccam").close()
    build_s = time.perf_counter() - started
    tracer = Tracer()
    with CCAMStore.open(work / "network.ccam", STORAGE_BUFFER_PAGES) as store:
        engine = IntAllFastestPaths(store)
        originals = install(tracer)
        try:
            for index, op in enumerate(stream.queries[:STORAGE_POSITIONS]):
                span = tracer.begin_request(index, "storage")
                engine.all_fastest_paths(op.source, op.target, interval)
                tracer.finish(span)
        finally:
            uninstall(originals)
        page_reads = store.page_reads
        hit_ratio = store.buffer_hit_rate
    return {
        "storage.build_s": build_s,
        "storage.page_reads": page_reads / min(STORAGE_POSITIONS, len(stream.queries)),
        "storage.find_node_us": _per_call_us(tracer, "storage.find_node"),
        "storage.buffer_hit_ratio": hit_ratio,
    }
