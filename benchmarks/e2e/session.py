"""One untraced run of one workload over HTTP: cold set-ups, K replays of
the fixed stream on one connection, the update phase, the answer checks —
and the metrics that fall out of them.

How a run is measured: position ``i`` of the stream is the same request
in every pass, so ``L[i] = min over passes`` drops machine interference
and keeps what differs between requests.  Every latency metric is a
percentile of ``L`` across positions.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.network.io import load_network

import loadgen
from arith import best_per_position, closed_loop_throughput, percentile
from loadgen import Client, Reply, Server, calibrate, metric_sum
from oracle import Oracle, answer_bytes, functions_differ
from streams import Op, Stream, Workload, build_stream

#: Passes per run: at least MIN_PASSES; more while they fit in --seconds
#: (they do once a request stops costing a 40 ms timer), up to MAX_PASSES.
MIN_PASSES = 2
MAX_PASSES = 8
#: A pass bracketed by a calibration this far above the run's best ran on
#: a contended machine; it is replayed, at most EXTRA_PASSES times per run.
#: The factor is 2 and not 1.25 because on the idle 2-core sandbox the
#: calibration itself wanders between 4.4 and 7.6 ms; a competing process
#: shows as 9-15 ms.
CONTENTION_FACTOR = 2.0
EXTRA_PASSES = 1
#: Replays of the update phase.  One update's round trip wanders by +-25 %
#: from one second to the next on this machine, so few positions replayed
#: often (best per position) are steadier than many replayed twice.
UPDATE_REPLAYS = 5


@dataclass
class Pass:
    replies: list[Reply]
    calib_before: float
    calib_after: float
    wall_s: float
    client_cpu_s: float

    def contended(self, best_calib: float) -> bool:
        return max(self.calib_before, self.calib_after) > CONTENTION_FACTOR * best_calib


@dataclass
class Phase:
    attempted: int = 0
    failed: int = 0


@dataclass
class Session:
    workload: Workload
    stream: Stream
    setups_s: list[float]
    boots_s: list[float]
    all_passes: list[Pass]  # in the order they ran
    passes: list[Pass]  # the ones the timings use (contended ones dropped)
    contended: bool
    calibrations: list[float]
    update_replays: list[list[Reply]]
    scrapes: list  # before passes, after passes, after the update phase
    #: utime + stime of the server process tree over the passes
    server_cpu_s: float
    #: share of the machine's CPU time the hypervisor took during the passes
    steal_ratio: float
    rss_mb: tuple[float, float]
    phases: dict[str, Phase] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    byte_drift: int = 0

    @property
    def attempted(self) -> int:
        """Operations sent in the passes and the update phase."""
        return self.phases["queries"].attempted + self.phases["updates"].attempted

    @property
    def failed(self) -> int:
        """Non-200 replies, transport errors and wrong answers (an answer
        the oracle rejects is a failed operation)."""
        return sum(p.failed for p in self.phases.values())


def _replay(client: Client, ops: list[Op]) -> tuple[list[Reply], float, float]:
    cpu = time.process_time()
    started = time.perf_counter()
    replies = [client.send(op) for op in ops]
    return replies, time.perf_counter() - started, time.process_time() - cpu


def _wait_healthy(port: int) -> None:
    deadline = time.perf_counter() + 30.0
    while True:
        try:
            status, _ = loadgen.get(port, "/healthz")
        except OSError:
            status = 0
        if status == 200:
            return
        if time.perf_counter() > deadline:
            raise RuntimeError("/healthz never answered 200")
        time.sleep(0.05)


def run_session(
    root: Path,
    out_dir: Path,
    workload: Workload,
    seed: int,
    seconds: float,
    quick: bool = False,
    single_boot: bool = False,
) -> Session:
    """Set up, replay, check.  Every process started here is stopped and
    reaped before this returns or raises."""
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload.name}-", dir=out_dir) as work:
        net_path = Path(work) / "network.json"
        loadgen.generate_network(root, workload, quick, net_path)
        network = load_network(net_path)
        stream = build_stream(workload, network, seed, quick)
        boots = 1 if quick or single_boot else workload.boots
        session = _measure(root, Path(work), workload, stream, boots, seconds, quick)
    _check(session, network)
    return session


def _measure(
    root: Path, work: Path, workload: Workload, stream: Stream,
    boots: int, seconds: float, quick: bool,
) -> Session:
    net_path = work / "network.json"
    snapshot = work / "overlay.snap"
    log = work / "server.log"
    server = client = None
    setups_s, boots_s = [], []
    try:
        for _ in range(boots):
            if server is not None:
                client.close()
                server.stop()
            snapshot.unlink(missing_ok=True)  # every set-up is a cold one
            started = time.perf_counter()
            if workload.overlay == "prebuilt":
                with open(log, "ab") as log_file:
                    loadgen.repro_cli(
                        root, "build-overlay", "--network", str(net_path),
                        "--out", str(snapshot), *workload.overlay_flags(),
                        log=log_file,
                    )
            server = Server(root, net_path, workload.serve_flags(str(snapshot)), log)
            boots_s.append(server.start())
            _wait_healthy(server.port)
            client = Client(server.port)
            for op in stream.warmup:
                reply = client.send(op)
                if reply.status != 200:
                    raise RuntimeError(
                        f"warm-up request failed: {reply.status} {reply.data[:200]!r}"
                    )
            setups_s.append(time.perf_counter() - started)

        scrapes = [loadgen.scrape(server.port)]
        cpu_before = server.cpu_seconds()
        jiffies_before = loadgen.machine_jiffies()
        calibrations = [calibrate()]
        passes: list[Pass] = []
        measuring = time.perf_counter()
        while True:
            replies, wall, cpu = _replay(client, stream.ops)
            calibrations.append(calibrate())
            passes.append(Pass(replies, calibrations[-2], calibrations[-1], wall, cpu))
            best = min(calibrations)
            clean = sum(not p.contended(best) for p in passes)
            if len(passes) < MIN_PASSES:
                continue
            if clean < MIN_PASSES and len(passes) < MIN_PASSES + EXTRA_PASSES:
                continue
            elapsed = time.perf_counter() - measuring
            if len(passes) >= MAX_PASSES or quick or elapsed + wall > seconds:
                break
        cpu_after = server.cpu_seconds()
        jiffies_after = loadgen.machine_jiffies()
        scrapes.append(loadgen.scrape(server.port))

        update_replays = [
            _replay(client, stream.update_phase)[0]
            for _ in range(UPDATE_REPLAYS if stream.update_phase else 0)
        ]
        scrapes.append(loadgen.scrape(server.port))
        rss = server.rss_mb()
        client.close()
    finally:
        if server is not None:
            server.stop()

    best = min(calibrations)
    clean_passes = [p for p in passes if not p.contended(best)]
    contended = len(clean_passes) < MIN_PASSES
    return Session(
        workload=workload,
        stream=stream,
        setups_s=setups_s,
        boots_s=boots_s,
        all_passes=passes,
        passes=passes if contended else clean_passes,
        contended=contended,
        calibrations=calibrations,
        update_replays=update_replays,
        scrapes=scrapes,
        server_cpu_s=cpu_after - cpu_before,
        steal_ratio=(jiffies_after[1] - jiffies_before[1])
        / max(1, jiffies_after[0] - jiffies_before[0]),
        rss_mb=rss,
    )


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
def _check(session: Session, network) -> None:
    """Fill in attempted/failed per phase, answer drift and the problems.

    Walks every reply in the order it was sent, so the expected network
    version (the count of accepted update batches) is known at each one.
    """
    stream, workload = session.stream, session.workload
    queries = session.phases["queries"] = Phase()
    updates = session.phases["updates"] = Phase()
    checked = session.phases["oracle"] = Phase()
    oracle = Oracle(network)
    version = 0
    first: dict[int, dict] = {}  # position -> the first pass's parsed result

    def problem(text: str) -> None:
        if len(session.problems) < 20:
            session.problems.append(text)

    def check_update(reply: Reply, where: str) -> None:
        nonlocal version
        updates.attempted += 1
        doc = reply.doc
        if doc is None:
            updates.failed += 1
            problem(f"{where}: update answered {reply.status} {reply.data[:120]!r}")
            return
        version += 1
        if doc.get("version") != version:
            updates.failed += 1
            problem(f"{where}: update claims version {doc.get('version')}, expected {version}")

    for k, one_pass in enumerate(session.all_passes):
        for i, (op, reply) in enumerate(zip(stream.ops, one_pass.replies)):
            where = f"pass {k} position {i}"
            if op.kind == "update":
                check_update(reply, where)
                if k == 0:
                    oracle.apply(op)
                continue
            queries.attempted += 1
            doc = reply.doc
            if doc is None:
                queries.failed += 1
                problem(f"{where}: query answered {reply.status} {reply.data[:120]!r}")
                continue
            result = doc["result"]
            wrong = None
            if doc.get("version") != version:
                wrong = f"answer claims version {doc.get('version')}, expected {version}"
            elif workload.hot_keys and not doc.get("cached"):
                wrong = "request missed the result cache on the hot workload"
            elif k == 0:
                first[i] = result
                checked.attempted += 1
                mismatch = oracle.check(op, result)
                if mismatch:
                    checked.failed += 1
                    problem(f"{where} {op.source}->{op.target}: {mismatch}")
            elif i in first:
                gap = functions_differ(result["border"], first[i]["border"])
                if gap is not None:
                    wrong = f"border moved by {gap:.3g} min between passes"
                elif k == 1 and answer_bytes(result) != answer_bytes(first[i]):
                    # counted between the first two passes only, so that an
                    # extra pass cannot change the count
                    session.byte_drift += 1
            if wrong:
                queries.failed += 1
                problem(f"{where} {op.source}->{op.target}: {wrong}")
        if k == 0 and workload.updates_in_stream:
            if not oracle.at_base():
                queries.failed += 1
                problem("the stream does not end at the base network fingerprint")
    for r, replies in enumerate(session.update_replays):
        for i, reply in enumerate(replies):
            check_update(reply, f"update replay {r} position {i}")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _positions(stream: Stream, kind: str) -> list[int]:
    return [i for i, op in enumerate(stream.ops) if op.kind == kind]


def _best_latencies(session: Session) -> list[float]:
    return best_per_position([[r.ms for r in p.replies] for p in session.passes])


def end_to_end(session: Session) -> dict[str, float]:
    stream = session.stream
    best = _best_latencies(session)
    query_best = [best[i] for i in _positions(stream, "query")]
    if stream.update_phase:
        update_best = best_per_position(
            [[r.ms for r in replies] for replies in session.update_replays]
        )
    else:
        update_best = [best[i] for i in _positions(stream, "update")]
    return {
        "setup_s": statistics.median(session.setups_s),
        "query_p50_ms": percentile(query_best, 50),
        "query_p90_ms": percentile(query_best, 90),
        "throughput_qps": closed_loop_throughput(query_best),
        "update_p50_ms": percentile(update_best, 50),
        "server_rss_mb": session.rss_mb[0],
    }


def _delta(session: Session, name: str, first: int = 0, last: int = 1, **match) -> float:
    return metric_sum(session.scrapes[last], name, **match) - metric_sum(
        session.scrapes[first], name, **match
    )


def _computed(replies) -> list[dict]:
    """The ``stats`` blocks of the replies an engine run produced."""
    return [
        r.doc["result"]["stats"] for r in replies if r.doc and not r.doc["cached"]
    ]


def cheap_layers(session: Session) -> dict[str, float]:
    """The layer metrics an untraced run yields: ``/metrics`` deltas over
    the passes, the ``stats`` block of every answer, ``/proc``."""
    stream = session.stream
    q_pos = _positions(stream, "query")
    u_pos = set(_positions(stream, "update"))
    query_replies = [p.replies[i] for p in session.passes for i in q_pos]
    answered = [r for r in query_replies if r.doc]
    # Counts come from the passes every run has, in the order they ran —
    # whichever passes the contention guard drops, they are a pure function
    # of the stream and repeat exactly from run to run.
    counted = [
        _computed(p.replies[i] for i in q_pos)
        for p in session.all_passes[:MIN_PASSES]
    ]
    n_queries = len(q_pos) * len(session.all_passes)

    def per_request(field_name: str) -> float:
        """Mean per engine run over the first pass."""
        first = counted[0]
        return sum(stats[field_name] for stats in first) / len(first) if first else 0.0

    def total(field_name: str) -> int:
        return sum(stats[field_name] for row in counted for stats in row)

    engine_ms = []  # per position, best of the passes that computed it
    for i in q_pos:
        runs = _computed(p.replies[i] for p in session.passes)
        if runs:
            engine_ms.append(min(stats["elapsed_seconds"] for stats in runs) * 1e3)
    hits, misses = total("edge_cache_hits"), total("edge_cache_misses")

    best = _best_latencies(session)
    after_update = [best[i] for i in q_pos if i - 1 in u_pos]
    pooled = [r.ms for r in query_replies]
    ops = sum(len(p.replies) for p in session.passes)

    cache_hits = _delta(session, "repro_result_cache_hits_total")
    cache_misses = _delta(session, "repro_result_cache_misses_total")
    requests = _delta(session, "repro_request_latency_seconds_count", mode="allfp")
    request_s = _delta(session, "repro_request_latency_seconds_sum", mode="allfp")
    engine_s = _delta(session, "repro_engine_seconds_sum")
    applies = _delta(session, "repro_update_apply_seconds_count", 0, 2)
    apply_s = _delta(session, "repro_update_apply_seconds_sum", 0, 2)
    calibrations = session.calibrations

    return {
        "serve.http_self_ms": (
            statistics.median(r.ms - r.doc["elapsed_ms"] for r in answered)
            if answered else 0.0
        ),
        "serve.query_self_ms": (request_s - engine_s) / requests * 1e3 if requests else 0.0,
        "serve.response_bytes": statistics.fmean(len(r.data) for r in query_replies),
        "serve.result_cache_hit_ratio": (
            cache_hits / (cache_hits + cache_misses) if cache_hits + cache_misses else 0.0
        ),
        "serve.engine_runs": _delta(session, "repro_engine_runs_total") / n_queries,
        "serve.coalesced": _delta(session, "repro_coalesced_total"),
        "serve.rejected": _delta(session, "repro_responses_total", status="rejected"),
        "serve.update_apply_ms": apply_s / applies * 1e3 if applies else 0.0,
        "serve.post_update_query_ms": (
            statistics.median(after_update) if after_update else 0.0
        ),
        "serve.cpu_ms_per_query": session.server_cpu_s / n_queries * 1e3,
        "serve.boot_s": statistics.median(session.boots_s),
        "shard.worker_rss_mb": session.rss_mb[1],
        "core.engine_ms": percentile(engine_ms, 50) if engine_ms else 0.0,
        "core.engine_p90_ms": percentile(engine_ms, 90) if engine_ms else 0.0,
        "core.expanded_paths": per_request("expanded_paths"),
        "core.labels_generated": per_request("labels_generated"),
        "core.pruned_dominated": per_request("pruned_dominated"),
        "core.pruned_bound": per_request("pruned_bound"),
        "core.max_queue_size": per_request("max_queue_size"),
        "core.edge_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.answer_byte_drift": float(session.byte_drift),
        "func.breakpoints_allocated": per_request("breakpoints_allocated"),
        "func.envelope_merges": per_request("envelope_merges"),
        "estimators.bound_evaluations": per_request("bound_evaluations"),
        "loadgen.calib_min_ms": min(calibrations),
        "loadgen.calib_median_ms": statistics.median(calibrations),
        "loadgen.contended": float(session.contended),
        "loadgen.steal_ratio": session.steal_ratio,
        "loadgen.passes": float(len(session.passes)),
        "loadgen.raw_p50_ms": percentile(pooled, 50),
        "loadgen.raw_p95_ms": percentile(pooled, 95),
        "loadgen.wall_qps": ops / sum(p.wall_s for p in session.passes),
        "loadgen.self_us": sum(p.client_cpu_s for p in session.passes) / ops * 1e6,
    }
