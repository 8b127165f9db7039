"""Frozen answers: the byte-identity guard for function-kernel changes.

``tests/data/golden_allfp.json`` pins the full answer — border breakpoints
and partition, every float stored as its ``repr()`` — of a fixed set of
allFP, profile and kNN queries on the paper's example network and the
10x10 ``metro_tiny`` network.  The comparison is ``==`` on those strings:
a kernel change that moves any answer by one ulp, adds or drops a
breakpoint, or reorders a tie fails here.

Regenerate (only when an answer change is intended and explained):

    PYTHONPATH=src python tests/test_golden_answers.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.arrival import ArrivalIntAllFastestPaths
from repro.core.engine import IntAllFastestPaths
from repro.core.knn import interval_knn, nearest_partition
from repro.core.profile import profile_search
from repro.network.generator import (
    MetroConfig,
    make_metro_network,
    paper_example_network,
)
from repro.timeutil import TimeInterval

GOLDEN = Path(__file__).parent / "data" / "golden_allfp.json"

NETWORKS = {
    "example": paper_example_network,
    "metro_tiny": lambda: make_metro_network(
        MetroConfig(width=10, height=10, seed=5)
    ),
}

#: (network, source, target, from, to, constraint)
ALLFP_QUERIES = [
    ("example", 0, 2, "6:50", "7:05", "leave"),
    ("example", 0, 2, "6:40", "7:20", "leave"),
    ("example", 0, 1, "6:50", "7:05", "leave"),
    ("example", 0, 2, "7:00", "7:15", "arrive"),
    ("metro_tiny", 41, 78, "15:30", "19:30", "leave"),
    ("metro_tiny", 52, 9, "15:00", "17:00", "leave"),
    ("metro_tiny", 9, 90, "6:30", "10:00", "leave"),
    ("metro_tiny", 1, 98, "6:45", "9:30", "leave"),
    ("metro_tiny", 79, 23, "8:30", "10:30", "leave"),
    ("metro_tiny", 50, 7, "12:00", "12:00", "leave"),
    ("metro_tiny", 12, 88, "0:00", "23:00", "leave"),
    ("metro_tiny", 92, 29, "18:00", "20:00", "arrive"),
]

#: (network, source, targets, from, to)
PROFILE_QUERIES = [
    ("example", 0, [1, 2], "6:50", "7:05"),
    ("metro_tiny", 0, [9, 55, 90, 99], "6:30", "9:30"),
    ("metro_tiny", 44, [0, 37, 99], "15:30", "19:00"),
]

#: (network, source, candidates, k, from, to)
KNN_QUERIES = [
    ("example", 0, [1, 2], 2, "6:50", "7:05"),
    ("metro_tiny", 0, [18, 27, 63, 72, 99], 3, "6:30", "9:30"),
    ("metro_tiny", 55, [5, 50, 59, 95], 2, "16:00", "19:00"),
]


def _points(fn) -> list[list[str]]:
    return [[repr(x), repr(y)] for x, y in fn.breakpoints]


def compute_answers() -> dict:
    nets = {name: build() for name, build in NETWORKS.items()}
    answers: dict = {"allfp": [], "profile": [], "knn": []}
    for net, source, target, lo, hi, constraint in ALLFP_QUERIES:
        engine_cls = (
            IntAllFastestPaths if constraint == "leave"
            else ArrivalIntAllFastestPaths
        )
        result = engine_cls(nets[net]).all_fastest_paths(
            source, target, TimeInterval.from_clock(lo, hi)
        )
        answers["allfp"].append({
            "query": [net, source, target, lo, hi, constraint],
            "border": _points(result.border),
            "partition": [
                [repr(e.interval.start), repr(e.interval.end), list(e.path)]
                for e in result.entries
            ],
        })
    for net, source, targets, lo, hi in PROFILE_QUERIES:
        result = profile_search(
            nets[net], source, TimeInterval.from_clock(lo, hi), targets=targets
        )
        answers["profile"].append({
            "query": [net, source, targets, lo, hi],
            "profiles": {
                str(node): _points(fn)
                for node, fn in sorted(result.profiles.items())
            },
        })
    for net, source, candidates, k, lo, hi in KNN_QUERIES:
        interval = TimeInterval.from_clock(lo, hi)
        ranked = interval_knn(nets[net], source, candidates, k, interval)
        entries, border = nearest_partition(
            nets[net], source, candidates, interval
        )
        answers["knn"].append({
            "query": [net, source, candidates, k, lo, hi],
            "neighbors": [
                [n.node, repr(n.min_travel_time), _points(n.travel_time_function)]
                for n in ranked.neighbors
            ],
            "nearest_partition": [
                [repr(e.interval.start), repr(e.interval.end), e.node]
                for e in entries
            ],
            "nearest_border": _points(border),
        })
    return answers


@pytest.fixture(scope="module")
def computed() -> dict:
    return compute_answers()


@pytest.mark.parametrize("kind", ["allfp", "profile", "knn"])
def test_answers_match_golden_exactly(computed, kind):
    golden = json.loads(GOLDEN.read_text())
    assert len(computed[kind]) == len(golden[kind])
    for got, want in zip(computed[kind], golden[kind]):
        assert got == want, f"{kind} {want['query']} drifted"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_answers(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
