"""Correctness oracle: every HTTP answer against an in-process flat
``IntAllFastestPaths`` + ``NaiveEstimator`` run on the same network state.

The server may answer through the boundary estimator, an overlay, a shard
pipe or a cache; the oracle uses none of them, so agreement to 1e-6 (what
the overlay docs promise) checks all of those layers at once.
"""

from __future__ import annotations

import json

from repro.core.engine import IntAllFastestPaths
from repro.estimators.naive import NaiveEstimator
from repro.estimators.snapshot import network_fingerprint
from repro.exceptions import ReproError
from repro.patterns.travel_time import traverse
from repro.serve.updates import MutationBatch, apply_batch
from repro.workloads.queries import morning_rush_interval

from streams import INTERVAL_HOURS, Op

TOLERANCE = 1e-6


def interpolate(points, x: float) -> float:
    """Value at ``x`` of the piecewise-linear function through ``points``
    (clamped at the ends)."""
    if x <= points[0][0]:
        return points[0][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x <= x1:
            return y0 if x1 == x0 else y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return points[-1][1]


def functions_differ(a, b, tol: float = TOLERANCE) -> float | None:
    """Largest gap between two breakpoint lists when it exceeds ``tol``.

    Both are piecewise linear, so comparing at the union of their
    breakpoints compares them everywhere.
    """
    if abs(a[0][0] - b[0][0]) > tol or abs(a[-1][0] - b[-1][0]) > tol:
        return float("inf")
    gap = max(
        abs(interpolate(a, x) - interpolate(b, x))
        for x in {p[0] for p in a} | {p[0] for p in b}
    )
    return gap if gap > tol else None


def answer_bytes(result: dict) -> bytes:
    """The answer proper — partition and border, without the per-run
    ``stats`` block — in a canonical encoding, for exact comparison."""
    return json.dumps(
        {"entries": result["entries"], "border": result["border"]}, sort_keys=True
    ).encode()


class Oracle:
    """Holds a private copy of the network and replays updates into it."""

    def __init__(self, network) -> None:
        self.network = network
        self.interval = morning_rush_interval(INTERVAL_HOURS)
        self.base_fingerprint = network_fingerprint(network)
        self._engine = IntAllFastestPaths(network, NaiveEstimator(network))

    def apply(self, op: Op) -> None:
        """Apply an update op from its wire bytes, as the server does."""
        apply_batch(self.network, MutationBatch.from_wire(json.loads(op.body)))
        # Cached edge functions and the memoised v_max predate the mutation.
        self._engine = IntAllFastestPaths(self.network, NaiveEstimator(self.network))

    def at_base(self) -> bool:
        return network_fingerprint(self.network) == self.base_fingerprint

    def check(self, op: Op, result: dict) -> str | None:
        """None when ``result`` (the HTTP ``result`` object) is right."""
        try:
            truth = self._engine.all_fastest_paths(op.source, op.target, self.interval)
        except ReproError as exc:
            return f"oracle failed: {exc}"
        border = result["border"]
        gap = functions_differ(border, [list(p) for p in truth.border.breakpoints])
        if gap is not None:
            return f"border differs from the flat oracle by {gap:.3g} min"
        return self._check_partition(op, result["entries"], border)

    def _check_partition(self, op: Op, entries, border) -> str | None:
        lo, hi = self.interval.start, self.interval.end
        if not entries:
            return "empty partition"
        if abs(entries[0]["interval"][0] - lo) > TOLERANCE:
            return "partition does not start at the interval start"
        if abs(entries[-1]["interval"][1] - hi) > TOLERANCE:
            return "partition does not end at the interval end"
        for prev, cur in zip(entries, entries[1:]):
            if abs(prev["interval"][1] - cur["interval"][0]) > TOLERANCE:
                return "partition has a gap or an overlap"
        for entry in entries:
            path = entry["path"]
            if path[0] != op.source or path[-1] != op.target:
                return f"path {path[:2]}..{path[-2:]} does not join the endpoints"
            start, end = entry["interval"]
            depart = (start + end) / 2.0
            clock = self._walk(path, depart)
            if clock is None:
                continue  # overlay answers may hop over shortcuts
            gap = abs((clock - depart) - interpolate(border, depart))
            if gap > TOLERANCE:
                return f"path is {gap:.3g} min off the border at {depart:.2f}"
        return None

    def _walk(self, path, depart: float) -> float | None:
        """Arrival time of ``path`` leaving at ``depart`` — None when a hop
        is not a street edge."""
        network = self.network
        clock = depart
        for u, v in zip(path, path[1:]):
            if not network.has_edge(u, v):
                return None
            edge = network.find_edge(u, v)
            clock = traverse(edge.distance, edge.pattern, network.calendar, clock)
        return clock
