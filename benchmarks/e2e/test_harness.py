"""Tests of the harness itself (``pytest benchmarks/e2e -q``).

Tier-1's ``testpaths = ["tests"]`` does not collect this file; it pins the
arithmetic and the seeded inputs the benchmark's numbers rest on, on
networks small enough to need no server.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.estimators.snapshot import network_fingerprint  # noqa: E402
from repro.network.generator import MetroConfig, make_metro_network  # noqa: E402

from arith import (  # noqa: E402
    best_per_position,
    closed_loop_throughput,
    covered,
    percentile,
    quartile_spread,
    self_time,
    span_self_times,
    worse_by,
)
import loadgen  # noqa: E402
from loadgen import metric_sum, parse_samples  # noqa: E402
from oracle import Oracle, functions_differ, interpolate  # noqa: E402
from streams import BY_NAME, WORKLOADS, build_stream  # noqa: E402


# ----------------------------------------------------------------------
# percentiles and per-position best-of-K
# ----------------------------------------------------------------------
def test_percentile_interpolates_between_order_statistics():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0], 50) == 2.0
    assert percentile([10.0], 90) == 10.0
    values = list(range(1, 121))  # N = 120: twelve positions beyond p90
    assert percentile(values, 90) == pytest.approx(108.1)
    assert sum(v > percentile(values, 90) for v in values) == 12
    assert percentile(values, 0) == 1 and percentile(values, 100) == 120


def test_percentile_rejects_nonsense():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_best_per_position_drops_interference_keeps_heterogeneity():
    passes = [
        [10.0, 50.0, 20.0],  # position 1 is a heavy query in every pass
        [90.0, 51.0, 21.0],  # position 0 was hit by a stall in this pass
        [11.0, 49.0, 95.0],
    ]
    assert best_per_position(passes) == [10.0, 49.0, 20.0]
    with pytest.raises(ValueError):
        best_per_position([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        best_per_position([])


def test_closed_loop_throughput_is_mean_weighted():
    assert closed_loop_throughput([100.0, 100.0]) == pytest.approx(10.0)
    # one heavy query costs as much throughput as its milliseconds say
    assert closed_loop_throughput([10.0, 190.0]) == pytest.approx(10.0)


def test_quartile_spread_and_worse_by():
    values = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.05, 9.95, 10.15, 9.85]
    assert 0.0 < quartile_spread(values) < 0.03
    assert worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert worse_by(100.0, 90.0, "lower") < 0


# ----------------------------------------------------------------------
# span self time
# ----------------------------------------------------------------------
def test_covered_unions_overlapping_intervals():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 10), (2, 3)]) == 10
    assert covered([]) == 0


def test_self_time_with_overlapping_and_nested_children():
    # two children overlapping on [4, 5] (two threads), one nested in the
    # first, one sticking out past the parent's end
    assert self_time((0, 10), [(1, 5), (4, 7)]) == pytest.approx(4.0)
    assert self_time((0, 10), [(1, 5), (2, 3)]) == pytest.approx(6.0)
    assert self_time((0, 10), [(8, 12)]) == pytest.approx(8.0)
    assert self_time((0, 10), [(20, 30)]) == pytest.approx(10.0)


def _span(id, parent, start, end, aggregated=False, busy=None):
    return {
        "id": id, "parent": parent, "start": start, "end": end,
        "busy": end - start if busy is None else busy, "aggregated": aggregated,
    }


def test_span_self_times_sum_to_the_request_span():
    spans = [
        _span(0, -1, 0.0, 10.0),                      # request
        _span(1, 0, 1.0, 9.0),                        # serve.query
        _span(2, 1, 2.0, 8.0),                        # core.engine
        # 100 kernel calls spread over [2, 8] that took 2.5 in total,
        _span(3, 2, 2.1, 7.9, aggregated=True, busy=2.5),
        # of which 1.0 inside calls nested under them
        _span(4, 3, 2.2, 7.8, aggregated=True, busy=1.0),
    ]
    selfs = span_self_times(spans)
    assert selfs == pytest.approx({0: 2.0, 1: 2.0, 2: 3.5, 3: 1.5, 4: 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


# ----------------------------------------------------------------------
# streams
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def network():
    return make_metro_network(MetroConfig(width=24, height=24, seed=0))


def _bodies(stream):
    return [op.body for op in stream.warmup + stream.ops + stream.update_phase]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_stream_is_a_function_of_the_seed(network, workload):
    # the 24x24 network is 6 miles across; use a band that fits it
    workload = dataclasses.replace(workload, band=(1.0, 5.0))
    a = build_stream(workload, network, 7, quick=True)
    b = build_stream(workload, network, 7, quick=True)
    c = build_stream(workload, network, 8, quick=True)
    assert _bodies(a) == _bodies(b)
    assert _bodies(a) != _bodies(c)


def test_unique_stream_has_distinct_queries_outside_the_warmup(network):
    workload = dataclasses.replace(BY_NAME["paper14k_unique"], band=(1.0, 5.0))
    stream = build_stream(workload, network, 3)
    pairs = [(op.source, op.target) for op in stream.ops]
    assert len(pairs) == 120 and len(set(pairs)) == 120
    assert not set(pairs) & {(op.source, op.target) for op in stream.warmup}
    assert len(stream.warmup) == 16


def test_hot_stream_only_repeats_what_the_warmup_answered(network):
    workload = dataclasses.replace(BY_NAME["paper14k_hot"], band=(1.0, 5.0))
    stream = build_stream(workload, network, 3)
    warm = {op.body for op in stream.warmup}
    assert len(warm) == 16
    assert len(stream.ops) == 120 and {op.body for op in stream.ops} <= warm


def test_live_stream_puts_one_update_after_every_tenth_query(network):
    stream = build_stream(BY_NAME["metro576_live"], network, 3)
    kinds = [op.kind for op in stream.ops]
    assert kinds.count("query") == 120 and kinds.count("update") == 12
    assert all(kinds[i] == "update" for i in range(10, len(kinds), 11))
    assert not stream.update_phase


@pytest.mark.parametrize("name", ["metro576_live", "paper14k_unique"])
def test_update_script_returns_the_network_to_base(network, name):
    workload = dataclasses.replace(BY_NAME[name], band=(1.0, 5.0))
    stream = build_stream(workload, network, 11)
    oracle = Oracle(make_metro_network(MetroConfig(width=24, height=24, seed=0)))
    updates = [op for op in stream.ops + stream.update_phase if op.kind == "update"]
    assert updates and len(updates) % 2 == 0
    for i, op in enumerate(updates):
        oracle.apply(op)
        # slowed after the odd batch of a pair, restored after the even one
        assert oracle.at_base() == (i % 2 == 1)
    assert network_fingerprint(oracle.network) == oracle.base_fingerprint


# ----------------------------------------------------------------------
# oracle arithmetic
# ----------------------------------------------------------------------
def test_functions_compare_at_the_union_of_breakpoints():
    a = [[0.0, 1.0], [10.0, 11.0]]
    b = [[0.0, 1.0], [5.0, 6.0], [10.0, 11.0]]  # same line, one more point
    assert functions_differ(a, b) is None
    b[1][1] += 1e-3
    assert functions_differ(a, b) == pytest.approx(1e-3)
    assert functions_differ(a, [[0.0, 1.0], [9.0, 10.0]]) == float("inf")
    assert interpolate(a, 5.0) == 6.0 and interpolate(a, -1.0) == 1.0


def test_oracle_accepts_its_own_answer_and_rejects_a_bent_one(network):
    stream = build_stream(BY_NAME["metro576_live"], network, 5, quick=True)
    oracle = Oracle(network)
    op = stream.queries[0]
    truth = oracle._engine.all_fastest_paths(op.source, op.target, oracle.interval)
    result = json.loads(json.dumps(truth.as_dict()))
    assert oracle.check(op, result) is None
    result["border"][0][1] += 0.01
    assert "border differs" in oracle.check(op, result)


# ----------------------------------------------------------------------
# /metrics parsing
# ----------------------------------------------------------------------
METRICS_TEXT = """\
# HELP repro_engine_runs_total Actual engine executions
# TYPE repro_engine_runs_total counter
repro_shard_count 2
repro_engine_runs_total{kernel_backend="array",shard_count="2",shard_id="0"} 7
repro_engine_runs_total{kernel_backend="array",shard_count="2",shard_id="1"} 5
repro_request_latency_seconds_sum{kernel_backend="array",mode="allfp",shard_count="2",shard_id="0"} 0.25
repro_request_latency_seconds_sum{kernel_backend="array",mode="allfp",shard_count="2",shard_id="1"} 0.5
repro_request_latency_seconds_sum{kernel_backend="array",mode="knn",shard_count="2",shard_id="1"} 9.0
repro_request_latency_seconds_bucket{kernel_backend="array",le="+Inf",mode="allfp",shard_count="2",shard_id="0"} 7
"""


def test_metrics_deltas_sum_across_shard_labels():
    before = parse_samples(METRICS_TEXT)
    after = parse_samples(METRICS_TEXT.replace("} 7\n", "} 17\n").replace("0.5\n", "1.5\n"))
    assert metric_sum(before, "repro_engine_runs_total") == 12
    assert metric_sum(before, "repro_engine_runs_total", shard_id="1") == 5
    assert metric_sum(after, "repro_engine_runs_total") - metric_sum(
        before, "repro_engine_runs_total"
    ) == 10
    latency = "repro_request_latency_seconds_sum"
    assert metric_sum(before, latency, mode="allfp") == 0.75
    assert metric_sum(after, latency, mode="allfp") - metric_sum(
        before, latency, mode="allfp"
    ) == pytest.approx(1.0)
    assert metric_sum(before, "repro_shard_count") == 2
    assert metric_sum(before, "repro_missing_total") == 0
    bucket = [s for s in before if s[0].endswith("_bucket")][0]
    assert bucket[1]["le"] == "+Inf" and bucket[2] == 7


# ----------------------------------------------------------------------
# No process outlives a stopped server
# ----------------------------------------------------------------------
def test_reap_group_ends_the_orphans_of_a_killed_parent():
    loadgen.adopt_orphans()
    parent = subprocess.Popen(
        ["sh", "-c", "sleep 60 & sleep 60 & wait"], start_new_session=True
    )

    def group():
        return [p for p, (_, pgid) in loadgen._processes().items() if pgid == parent.pid]

    deadline = time.perf_counter() + 5.0
    while len(group()) < 3 and time.perf_counter() < deadline:
        time.sleep(0.01)
    assert len(group()) == 3
    parent.kill()
    parent.wait()
    assert len(group()) == 2  # the sleeps, orphaned
    loadgen.reap_group(parent.pid)
    assert group() == []  # not even a zombie


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the catalogue
# ----------------------------------------------------------------------
def test_benchmark_json_is_the_contract_run_py_prints():
    import run

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == run.contract()
    assert list(doc) == [
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names)) and len(doc["per_layer"]) <= 128
