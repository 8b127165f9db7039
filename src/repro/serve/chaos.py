"""Chaos harness: drive a service under faults, kills and live mutation.

The invariant every run asserts (``docs/reliability.md``):

    Under any fault plan, any worker kill and any concurrent update trace,
    every request ends in exactly one of
    (a) a **correct answer** — a non-stale answer claiming network version
        ``v`` is byte-identical to a fault-free re-execution against the
        network with exactly the first ``v`` update batches applied,
    (b) a **typed error** — some :class:`~repro.exceptions.ReproError`, or
    (c) a **flagged degraded answer** — ``degraded=True``.  A
        degraded-but-fresh answer must *still* equal the baseline of its
        version, because the naive bound that replaces a set-aside
        estimator reads ``v_max`` at that version, hence is admissible,
        and A* stays exact; a failover answer likewise, because every
        worker holds the full network.  One served from the stale cache carries
        ``stale=True`` and version ``-1`` and is exempt from the match —
        it advertises its staleness, which is the contract's other half.
    Never a hang, an untyped crash, or a silently wrong answer.

:func:`run_chaos` is the one runner: it records the baselines on a
throwaway reference service (one row per network version; no trace is the
one-version case), then replays the workload concurrently through the
service surface and classifies each outcome.  Anything outside (a)–(c)
lands in ``ChaosReport.violations`` and fails the run.
"""

from __future__ import annotations

import copy
import json
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Sequence

from .. import reliability
from ..exceptions import ReproError
from ..workloads.queries import QuerySpec
from .service import AllFPService, QueryRequest, ServiceConfig, ServiceSurface
from .updates import replay_trace

#: Seconds a chaos worker thread may run before the harness calls it a hang.
DEFAULT_JOIN_TIMEOUT = 120.0


@dataclass
class ChaosReport:
    """Classified outcomes of one chaos run."""

    requests: int = 0
    ok: int = 0  # correct answers, degraded or not
    degraded: int = 0  # subset of ok that carried the degraded flag
    stale: int = 0  # subset of degraded served from the stale cache
    typed_errors: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    fault_events: int = 0
    wall_seconds: float = 0.0
    # Runs with a trace only:
    mutations_applied: int = 0  # edge mutations applied during the replay
    versions: int = 0  # network versions the replay advanced through

    def passed(self) -> bool:
        return not self.violations

    def summary_lines(self) -> list[str]:
        lines = [
            f"chaos: {self.requests} requests in {self.wall_seconds:.2f}s "
            f"({self.fault_events} faults injected)"
            + (
                f", {self.mutations_applied} mutations across "
                f"{self.versions} versions"
                if self.versions
                else ""
            ),
            f"  ok={self.ok} (degraded={self.degraded}, stale={self.stale})",
            f"  typed errors: "
            + (
                ", ".join(
                    f"{name}={count}"
                    for name, count in sorted(self.typed_errors.items())
                )
                or "none"
            ),
        ]
        if self.violations:
            lines.append(f"  VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"    - {v}" for v in self.violations)
        else:
            lines.append("  invariant held: no hang, crash, or silent wrong answer")
        return lines

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed()}


def default_fault_plan(seed: int = 0) -> reliability.FaultPlan:
    """A representative mixed plan: estimator re-customization errors (every
    per-cell job fails, up to 8 — a trace's batch reaches them when it makes
    an edge faster than ever), worker crashes, storage errors, and slow
    tasks.
    """
    return reliability.FaultPlan(
        seed=seed,
        specs=(
            reliability.FaultSpec(
                "repro.estimators.precompute.cell", mode="error",
                error="estimator", probability=1.0, max_fires=8,
            ),
            reliability.FaultSpec(
                "repro.serve.service.task", mode="error",
                error="crash", probability=0.2,
            ),
            reliability.FaultSpec(
                "repro.storage.pages.read", mode="error",
                error="storage", probability=0.05,
            ),
            reliability.FaultSpec(
                "repro.serve.service.task", mode="delay",
                delay_seconds=0.002, probability=0.2,
            ),
        ),
    )


def _canonical(result) -> str:
    """The *answer* part of a result, as comparable JSON.

    ``stats`` is execution metadata (expansions, bound evaluations) that
    legitimately varies with the estimator in use.  ``entries`` hold one
    witness path per sub-interval, and on networks with co-optimal paths
    different (equally admissible) estimators may break the tie
    differently — so correctness is judged on the ``border`` function, the
    optimal travel time at every leaving instant, which any exact search
    must reproduce.  Floats are compared as they are: edge arrival
    functions are canonical per ``(edge, day)``, so neither the warmth of
    the edge-function store nor the process that answers can move a byte.
    """
    doc = result.as_dict()
    doc.pop("stats", None)
    doc.pop("entries", None)
    return json.dumps(doc, sort_keys=True)


def _request(spec: QuerySpec, deadline: float | None) -> QueryRequest:
    return QueryRequest(spec.source, spec.target, spec.interval, "allfp", deadline)


def busiest_shard(ring, queries: Sequence[QuerySpec]) -> int:
    """The shard of ``ring`` that owns the most of ``queries`` — the kill
    that exercises failover hardest."""
    from ..shard.ring import routing_key

    owners = Counter(
        ring.node_for(routing_key(_request(spec, None))) for spec in queries
    )
    return owners.most_common(1)[0][0]


def _baseline_row(
    reference: ServiceSurface,
    queries: Sequence[QuerySpec],
    deadline: float | None,
) -> list[str | None]:
    """``reference``'s canonical answer to each query (``None`` marks
    queries that are typed errors even without faults)."""
    row: list[str | None] = []
    for spec in queries:
        try:
            answer = reference.query(_request(spec, deadline))
            row.append(_canonical(answer.result))
        except ReproError:
            row.append(None)
    return row


def _version_baselines(
    network, trace, queries: Sequence[QuerySpec], deadline: float | None
) -> list[list[str | None]]:
    """Fault-free reference answers at every network version the trace
    produces: ``baselines[k]`` holds the canonical answer to each query
    against the network with exactly the first ``k`` trace batches applied.
    A throwaway single-process service without a customization answers them
    — its naive bound is re-derived for every version it is updated to, and
    any admissible bound is exact, so the live service's (delta-refreshed)
    tables need not be reproduced here.  Without a trace nothing is
    mutated, so the reference reads the live network instead of a copy of
    it."""
    reference = AllFPService(
        copy.deepcopy(network) if trace else network,
        config=ServiceConfig(),
    )
    try:
        baselines = [_baseline_row(reference, queries, deadline)]
        for event in trace:
            reference.apply_updates(event.batch)
            baselines.append(_baseline_row(reference, queries, deadline))
    finally:
        reference.close()
    return baselines


def _answers_through_overlay(service: ServiceSurface) -> bool:
    stats = service.stats()
    return any(
        block.get("overlay_levels", 0)
        for block in (stats, *stats.get("per_shard", {}).values())
    )


def run_chaos(
    service: ServiceSurface,
    queries: Sequence[QuerySpec],
    plan: reliability.FaultPlan | None = None,
    *,
    trace=(),
    kill_shard: int | None = None,
    kill_delay: float = 0.05,
    clients: int = 4,
    deadline: float | None = None,
    speed: float = 1.0,
    join_timeout: float = DEFAULT_JOIN_TIMEOUT,
) -> ChaosReport:
    """Replay ``queries`` against ``service`` under faults, a worker kill
    and live mutation — any subset — and classify every outcome against
    the invariant in the module docstring.

    * ``plan`` is installed through the surface (``install_faults``: in
      process for a single service, inside every worker for a tier) for the
      replay only and removed in a ``finally``, so a crashing harness never
      leaves a process poisoned.  The service must be fault-free on entry.
    * ``trace`` (a sequence of :class:`~repro.serve.updates.TraceEvent`) is
      applied concurrently, offsets compressed by ``speed``.  Client
      threads loop over the workload until the whole trace has been
      applied, then complete one final full pass, so every version actually
      serves queries; with no trace that is exactly one pass.
    * ``kill_shard`` hard-kills that worker of a tier ``kill_delay`` seconds
      into the replay (see :func:`busiest_shard`); the kill counts as one
      fault event on top of what the plan fired.  Failover answers are held
      to the same baseline — every worker holds the full network.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed:g}")
    trace = list(trace)
    base_version = service.health()["network_version"]
    if _answers_through_overlay(service):
        # The overlay is another exact engine: it composes the same edge
        # functions in another association order, so its floats sit 1e-13
        # off the flat reference's.  Bytes are compared like for like — the
        # baseline is what this service answers before any fault is on —
        # and the replay then starts as cold as it would have.
        if trace:
            raise ValueError(
                "chaos under mutation byte-compares against from-scratch "
                "flat references; run it on a service without an overlay"
            )
        baselines = [_baseline_row(service, queries, deadline)]
        service.invalidate()
    else:
        baselines = _version_baselines(
            service.network, trace, queries, deadline
        )

    report = ChaosReport()
    lock = threading.Lock()
    trace_done = threading.Event()

    def typed_error(name: str) -> None:
        with lock:
            report.typed_errors[name] = report.typed_errors.get(name, 0) + 1

    def apply_event(event) -> None:
        try:
            service.apply_updates(event.batch)
        except ReproError as exc:
            typed_error(f"apply:{type(exc).__name__}")
        else:
            with lock:
                report.versions += 1
                report.mutations_applied += len(event.batch)

    def applier() -> None:
        try:
            replay_trace(trace, apply_event, speed)
        finally:
            trace_done.set()

    def classify(i: int, response) -> str | None:
        """The violation an answer amounts to, or ``None`` if it is legal."""
        if response.stale or response.version < 0:
            # Advertised-stale fallback: exempt from the byte-match
            # contract, but it must carry its flag.
            if not response.stale:
                return "unversioned answer without the stale flag"
            return None
        idx = response.version - base_version
        if not 0 <= idx < len(baselines):
            return (
                f"claims unknown network version {response.version} "
                f"(base {base_version}, trace {len(trace)} batches)"
            )
        if baselines[idx][i] not in (None, _canonical(response.result)):
            return (
                f"answer at version {response.version} differs from "
                f"fault-free re-execution at that version "
                f"(degraded={response.degraded})"
            )
        return None

    def client(offset: int) -> None:
        final_pass = False
        while not final_pass:
            final_pass = trace_done.is_set()
            for i in range(offset, len(queries), clients):
                spec = queries[i]
                where = f"query {i} ({spec.source}->{spec.target})"
                try:
                    response = service.query(_request(spec, deadline))
                except ReproError as exc:
                    typed_error(type(exc).__name__)
                    violation = None
                except BaseException as exc:
                    violation = f"untyped {type(exc).__name__}: {exc}"
                else:
                    violation = classify(i, response)
                    if violation is None:
                        with lock:
                            report.ok += 1
                            report.degraded += bool(response.degraded)
                            report.stale += bool(response.stale)
                with lock:
                    report.requests += 1
                    if violation is not None:
                        report.violations.append(f"{where}: {violation}")

    threads = [
        threading.Thread(
            target=client, args=(i,), name=f"chaos-client-{i}", daemon=True
        )
        for i in range(clients)
    ]
    if trace:
        threads.append(
            threading.Thread(target=applier, name="chaos-applier", daemon=True)
        )
    else:
        trace_done.set()
    killer = None
    if kill_shard is not None:
        killer = threading.Timer(kill_delay, service.kill_shard, args=(kill_shard,))
        killer.daemon = True
        threads.append(killer)

    if plan is not None:
        service.install_faults(plan)
    started = time.monotonic()
    try:
        for t in threads:
            t.start()
        deadline_at = started + join_timeout
        for t in threads:
            t.join(max(0.0, deadline_at - time.monotonic()))
        report.violations.extend(
            f"hang: {t.name} still running after {join_timeout:.0f}s"
            for t in threads
            if t.is_alive()
        )
    finally:
        if killer is not None:
            killer.cancel()
        fired = service.uninstall_faults() if plan is not None else 0
    report.wall_seconds = time.monotonic() - started
    report.fault_events = fired + (kill_shard is not None)
    return report
