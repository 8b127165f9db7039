"""Pure arithmetic of the benchmark: percentiles, per-position best-of-K,
span self-time, quartile spread.  No I/O and no ``repro`` imports, so
``test_harness.py`` can pin every rule here without booting anything.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    order statistics (numpy's default), so p50 of an even-sized sample is
    the mean of the two middle values."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def best_per_position(passes: Sequence[Sequence[float]]) -> list[float]:
    """``L[i] = min over passes of latency[pass][i]``.

    Every pass replays the same stream, so position ``i`` is the same
    operation each time: the spread across passes is machine interference
    (dropped here), the spread across positions is workload heterogeneity
    (kept for the percentiles).
    """
    if not passes:
        raise ValueError("no passes")
    width = len(passes[0])
    if any(len(p) != width for p in passes):
        raise ValueError("passes replay streams of different lengths")
    return [min(p[i] for p in passes) for i in range(width)]


def closed_loop_throughput(latencies_ms: Sequence[float]) -> float:
    """Operations per second of one connection issuing them back to back."""
    return len(latencies_ms) / (sum(latencies_ms) / 1e3)


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(span: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover.

    Children are clipped to the span and may overlap each other (two
    threads) or nest; the covered part is the union, counted once.
    """
    start, end = span
    clipped = [
        (max(start, c0), min(end, c1))
        for c0, c1 in children
        if min(end, c1) > max(start, c0)
    ]
    return (end - start) - covered(clipped)


def span_self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Self time of every span record of a trace.

    A record has ``id``, ``parent``, ``start``, ``end``, ``busy`` and
    ``aggregated``.  A plain span is one interval (``busy == end - start``);
    an aggregated one stands for ``calls`` short calls under one parent and
    ``busy`` is their summed duration, so it covers ``busy`` of its parent,
    not ``end - start``.
    """
    children: dict[int, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        kids = children.get(span["id"], ())
        plain = [(k["start"], k["end"]) for k in kids if not k["aggregated"]]
        summed = sum(k["busy"] for k in kids if k["aggregated"])
        if span["aggregated"]:
            result[span["id"]] = span["busy"] - summed - covered(plain)
        else:
            result[span["id"]] = self_time((span["start"], span["end"]), plain) - summed
    return result


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median with ``statistics.quantiles(values, n=4)`` —
    the steadiness figure the acceptance check uses."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative = better)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first
