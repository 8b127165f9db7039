"""E-A5 — the paper's §6.1 scaling claim: hierarchical partitioning.

The paper argues its algorithm scales to larger networks via hierarchical
partitioning with fragments "equal to the size of the network explored in
our experiments", at the cost of "applying our algorithm few more times".
This bench quantifies the trade on the benchmark network: flat vs two-level
queries (a 1-level ``MultiLevelOverlay``: fragments plus one top-level
search) — expanded paths, wall time, and the one-off build cost — plus the
exactness check that both report identical travel times.

Expected shape: the hierarchical engine expands fewer paths for long
queries (intermediate fragments collapse to boundary hops) at the price of
index precomputation; short same-fragment queries see no benefit.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.analysis.experiments import bench_queries
from repro.analysis.report import format_table
from repro.core.engine import IntAllFastestPaths
from repro.hierarchy import MultiLevelOverlay, OverlayEngine
from repro.timeutil import TimeInterval, parse_clock
from repro.workloads.queries import distance_band_queries

HORIZON = TimeInterval(parse_clock("5:00"), parse_clock("14:00"))
WINDOW = TimeInterval(parse_clock("7:00"), parse_clock("9:00"))


def build_index(network):
    return MultiLevelOverlay.build(network, levels=1, nx=6, horizon=HORIZON)


@pytest.fixture(scope="module")
def index(medium_network):
    return build_index(medium_network)


class TestHierarchyAblation:
    def test_flat_vs_hierarchical(
        self, benchmark, medium_network, index, record_table
    ):
        flat = IntAllFastestPaths(medium_network)
        hier = OverlayEngine(index)
        bands = [(1.0, 2.0), (3.0, 4.0), (6.0, 8.0)]
        workload = distance_band_queries(
            medium_network, bands, bench_queries(default=5), WINDOW, seed=47
        )

        def sweep():
            rows = []
            for band in bands:
                f_exp, h_exp, f_sec, h_sec = [], [], [], []
                for q in workload[band]:
                    start = time.perf_counter()
                    f = flat.all_fastest_paths(q.source, q.target, q.interval)
                    f_sec.append(time.perf_counter() - start)
                    start = time.perf_counter()
                    h = hier.all_fastest_paths(q.source, q.target, q.interval)
                    h_sec.append(time.perf_counter() - start)
                    f_exp.append(f.stats.expanded_paths)
                    h_exp.append(h.stats.expanded_paths)
                    for instant in q.interval.sample(5):
                        assert abs(
                            f.travel_time_at(instant) - h.travel_time_at(instant)
                        ) <= 1e-6
                rows.append(
                    [
                        f"{band[0]:g}-{band[1]:g}",
                        statistics.fmean(f_exp),
                        statistics.fmean(h_exp),
                        statistics.fmean(f_sec) * 1000,
                        statistics.fmean(h_sec) * 1000,
                    ]
                )
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        record_table(
            "ablation_hierarchy",
            format_table(
                [
                    "d_euc (mi)",
                    "flat expanded",
                    "hier expanded",
                    "flat ms",
                    "hier ms",
                ],
                rows,
                title=(
                    "E-A5: flat vs two-level hierarchical allFP "
                    f"({index.stats.levels[0].cells} fragments, "
                    f"{index.stats.shortcuts} shortcuts; answers identical)"
                ),
            ),
        )
        # Long queries traverse collapsed fragments: strictly fewer pops.
        assert rows[-1][2] < rows[-1][1]

    def test_index_build_cost(self, benchmark, medium_network, record_table):
        result = benchmark.pedantic(
            lambda: build_index(medium_network).stats.levels[0],
            rounds=1,
            iterations=1,
        )
        record_table(
            "ablation_hierarchy_build",
            format_table(
                ["fragments", "boundary nodes", "shortcuts", "profile searches"],
                [
                    [
                        result.cells,
                        result.boundary_nodes,
                        result.shortcuts,
                        result.profile_searches,
                    ]
                ],
                title="E-A5: hierarchical index build effort",
            ),
        )
        assert result.shortcuts > 0
