"""Frozen answers and structures: the byte-identity guard.

``tests/data/golden_allfp.json`` pins the full answer — border breakpoints
and partition, every float stored as its ``repr()`` — of a fixed set of
allFP, profile and kNN queries on the paper's example network and the
10x10 ``metro_tiny`` network.  The comparison is ``==`` on those strings:
a kernel change that moves any answer by one ulp, adds or drops a
breakpoint, or reorders a tie fails here.

``tests/data/golden_structures.json`` pins the customized structures the
same way: sha256 digests of the five flat arrays of every level of a 1-level
and a 2-level ``MultiLevelOverlay`` on ``metro_tiny`` and of the five
``EstimatorTables`` stores (3x3, both metrics), each as built and again
after one pinned mutation batch (the tables through ``refresh_delta``, the
overlay rebuilt on the mutated network, with the per-level count of cells
its ``refresh_delta`` marked stale), plus four ``OverlayEngine`` allFP
answers.

Regenerate (only when an answer change is intended and explained):

    PYTHONPATH=src python tests/test_golden_answers.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.arrival import ArrivalIntAllFastestPaths
from repro.core.engine import IntAllFastestPaths
from repro.core.knn import interval_knn, nearest_partition
from repro.core.profile import profile_search
from repro.estimators.boundary import BoundaryNodeEstimator
from repro.hierarchy import MultiLevelOverlay, OverlayEngine
from repro.network.generator import (
    MetroConfig,
    make_metro_network,
    paper_example_network,
)
from repro.serve.updates import (
    EdgeMutation,
    MutationBatch,
    apply_batch,
    slowdown_pattern,
)
from repro.timeutil import TimeInterval

GOLDEN = Path(__file__).parent / "data" / "golden_allfp.json"
STRUCTURES = Path(__file__).parent / "data" / "golden_structures.json"

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

OVERLAY_BUILD = {"nx": 4, "fanout": 2, "horizon": TimeInterval(0.0, 1440.0)}

#: The pinned refresh batch: (index into ``network.edges()``, speed factor);
#: slow-downs, which leave the time-metric tables as built, and speed-ups,
#: which make them precompute again over each edge's fastest-ever weight.
REFRESH_BATCH = [(3, 0.5), (57, 2.0), (140, 0.25), (188, 1.5)]

#: (overlay levels, source, target, from, to) on ``metro_tiny``
OVERLAY_QUERIES = [
    (1, 41, 78, "15:30", "19:30"),
    (1, 9, 90, "6:30", "10:00"),
    (2, 1, 98, "6:45", "9:30"),
    (2, 79, 23, "8:30", "10:30"),
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


def _digests(owner, names: tuple[str, ...]) -> dict[str, str]:
    """sha256 of the raw bytes of each named flat store of ``owner``."""
    return {
        name: hashlib.sha256(bytes(getattr(owner, name))).hexdigest()
        for name in names
    }


def _overlay_digests(overlay) -> list[dict[str, str]]:
    return [
        _digests(lv, ("src", "dst", "off", "xs", "ys")) for lv in overlay.levels
    ]


def _tables_digests(tables) -> dict[str, str]:
    return _digests(
        tables,
        ("node_ids", "node_cell", "to_boundary", "from_boundary", "cell_pair"),
    )


def _apply_refresh_batch(network):
    edges = list(network.edges())
    return apply_batch(
        network,
        MutationBatch(
            tuple(
                EdgeMutation(
                    edges[i].source,
                    edges[i].target,
                    slowdown_pattern(edges[i].pattern, factor),
                )
                for i, factor in REFRESH_BATCH
            )
        ),
    )


def compute_structures() -> dict:
    out: dict = {"overlay": {}, "tables": {}, "overlay_allfp": []}
    for levels in (1, 2):
        network = NETWORKS["metro_tiny"]()
        overlay = MultiLevelOverlay.build(network, levels=levels, **OVERLAY_BUILD)
        engine = OverlayEngine(overlay)
        for lv, source, target, lo, hi in OVERLAY_QUERIES:
            if lv != levels:
                continue
            result = engine.all_fastest_paths(
                source, target, TimeInterval.from_clock(lo, hi)
            )
            out["overlay_allfp"].append({
                "query": [lv, source, target, lo, hi],
                "border": _points(result.border),
                "partition": [
                    [repr(e.interval.start), repr(e.interval.end), list(e.path)]
                    for e in result.entries
                ],
            })
        built = _overlay_digests(overlay)
        overlay.refresh_delta(_apply_refresh_batch(network))
        rebuilt = MultiLevelOverlay.build(network, levels=levels, **OVERLAY_BUILD)
        out["overlay"][str(levels)] = {
            "built": built,
            "stale_cells": [len(cells) for cells in overlay.stale],
            "refreshed": _overlay_digests(rebuilt),
        }
    for metric in ("time", "distance"):
        network = NETWORKS["metro_tiny"]()
        estimator = BoundaryNodeEstimator(network, 3, 3, metric=metric)
        built = _tables_digests(estimator.tables)
        estimator.refresh_delta(_apply_refresh_batch(network))
        out["tables"][metric] = {
            "built": built,
            "refreshed": _tables_digests(estimator.tables),
        }
    return out


@pytest.fixture(scope="module")
def computed() -> dict:
    return compute_answers()


@pytest.mark.parametrize("kind", ["allfp", "profile", "knn"])
def test_answers_match_golden_exactly(computed, kind):
    golden = json.loads(GOLDEN.read_text())
    assert len(computed[kind]) == len(golden[kind])
    for got, want in zip(computed[kind], golden[kind]):
        assert got == want, f"{kind} {want['query']} drifted"


def test_structures_match_golden_exactly():
    golden = json.loads(STRUCTURES.read_text())
    got = compute_structures()
    for kind in ("overlay", "tables", "overlay_allfp"):
        assert got[kind] == golden[kind], f"{kind} drifted"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_answers(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
    STRUCTURES.write_text(json.dumps(compute_structures(), indent=1) + "\n")
    print(f"wrote {STRUCTURES}")
