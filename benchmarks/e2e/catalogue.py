"""Every metric the benchmark prints: name, unit, direction, and — for
layer metrics — the end-to-end metric it should move and where.

``BENCHMARK.json`` carries the same names, units and directions (the
harness test checks they agree); the "moves" column has no place in that
file's schema, so it lives here and in the README's interaction table.
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    what: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    #: which end-to-end metric it should move, on which workload
    moves: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "spawn (build-overlay included) -> /healthz 200 -> 16 warm-up replies; "
        "median of the run's cold set-ups",
    ),
    EndToEnd(
        "query_p50_ms", "ms", "lower", 0.25,
        "p50 over query positions of the best-of-passes round trip",
    ),
    EndToEnd(
        "query_p90_ms", "ms", "lower", 0.25,
        "p90 over query positions of the best-of-passes round trip",
    ),
    EndToEnd(
        "throughput_qps", "1/s", "higher", 0.25,
        "queries / sum of best-of-passes round trips: closed loop, 1 connection",
    ),
    EndToEnd(
        "update_p50_ms", "ms", "lower", 0.25,
        "p50 over update positions of the best-of-passes POST /v1/updates round trip",
    ),
    EndToEnd(
        "server_rss_mb", "MB", "lower", 0.10,
        "VmRSS of the server process tree after the last operation",
    ),
)

_Q = "query_p50_ms"
_QT = "query_p50_ms, query_p90_ms, throughput_qps"

LAYERS: tuple[Layer, ...] = (
    # serve ------------------------------------------------------------
    Layer("serve.http_self_ms", "ms", "lower", f"{_Q}, throughput_qps: paper14k_hot most, every workload by the same ms"),
    Layer("serve.query_self_ms", "ms", "lower", f"{_Q} on paper14k_hot"),
    Layer("serve.http_parse_us", "us", "lower", f"{_Q} on paper14k_hot"),
    Layer("serve.http_encode_us", "us", "lower", f"{_Q} on paper14k_hot"),
    Layer("serve.response_bytes", "B", "lower", f"{_Q} on paper14k_hot"),
    Layer("serve.result_cache_hit_ratio", "ratio", "higher", f"{_Q} on paper14k_hot (1.0 there, 0 elsewhere)"),
    Layer("serve.engine_runs", "count", "lower", f"{_Q}: 0 per request on paper14k_hot, 1 elsewhere"),
    Layer("serve.coalesced", "count", "higher", "none with one connection (stays 0)"),
    Layer("serve.rejected", "count", "lower", "failed operations (stays 0)"),
    Layer("serve.update_validate_ms", "ms", "lower", "update_p50_ms"),
    Layer("serve.update_apply_ms", "ms", "lower", "update_p50_ms on every workload"),
    Layer("serve.post_update_query_ms", "ms", "lower", "query_p90_ms on metro576_live"),
    Layer("serve.cpu_ms_per_query", "ms", "lower", "throughput_qps once the stall is gone; diagnostic today"),
    Layer("serve.boot_s", "s", "lower", "setup_s"),
    # shard ------------------------------------------------------------
    Layer("shard.query_self_ms", "ms", "lower", f"{_Q} on metro576_live only"),
    Layer("shard.wire_codec_us", "us", "lower", f"{_Q} on metro576_live only"),
    Layer("shard.wire_bytes", "B", "lower", f"{_Q} on metro576_live only"),
    Layer("shard.update_broadcast_ms", "ms", "lower", "update_p50_ms on metro576_live"),
    Layer("shard.boot_s", "s", "lower", "setup_s on metro576_live"),
    Layer("shard.worker_rss_mb", "MB", "lower", "server_rss_mb on metro576_live"),
    # core -------------------------------------------------------------
    Layer("core.engine_ms", "ms", "lower", f"{_QT} on paper14k_unique; none on paper14k_hot"),
    Layer("core.engine_p90_ms", "ms", "lower", "query_p90_ms on paper14k_unique"),
    Layer("core.self_ms", "ms", "lower", f"{_Q} on paper14k_unique"),
    Layer("core.expanded_paths", "count", "lower", f"{_QT} on paper14k_unique"),
    Layer("core.labels_generated", "count", "lower", f"{_QT} on paper14k_unique"),
    Layer("core.pruned_dominated", "count", "higher", f"{_Q} on paper14k_unique"),
    Layer("core.pruned_bound", "count", "higher", f"{_Q} on paper14k_unique"),
    Layer("core.max_queue_size", "count", "lower", "server_rss_mb, query_p90_ms on paper14k_unique"),
    Layer("core.edge_cache_hit_ratio", "ratio", "higher", f"{_Q} on paper14k_unique; query_p90_ms on metro576_live"),
    Layer("core.edge_fn_us", "us", "lower", "query_p90_ms on metro576_live (cold after every update)"),
    Layer("core.answer_byte_drift", "count", "lower", "none; ROADMAP item 5 wants 0"),
    # func -------------------------------------------------------------
    Layer("func.ops_ms", "ms", "lower", f"{_Q} on paper14k_unique and metro1600_overlay"),
    Layer("func.calls", "count", "lower", f"{_Q} on paper14k_unique"),
    Layer("func.breakpoints_allocated", "count", "lower", f"{_Q} on paper14k_unique"),
    Layer("func.envelope_merges", "count", "lower", f"{_Q} on paper14k_unique"),
    Layer("func.compose_us_32", "us", "lower", f"{_Q} on paper14k_unique"),
    Layer("func.compose_us_512", "us", "lower", f"{_Q}, query_p90_ms on metro1600_overlay"),
    Layer("func.merge_min_us_32", "us", "lower", f"{_Q} on paper14k_unique"),
    Layer("func.merge_min_us_512", "us", "lower", f"{_Q}, setup_s on metro1600_overlay"),
    Layer("func.envelope_fold_us_32", "us", "lower", f"{_Q} on paper14k_unique"),
    Layer("func.envelope_fold_us_512", "us", "lower", f"{_Q} on metro1600_overlay"),
    # estimators -------------------------------------------------------
    Layer("estimators.precompute_s", "s", "lower", "setup_s on paper14k_* and metro576_live"),
    Layer("estimators.prepare_ms", "ms", "lower", f"{_Q} on paper14k_unique, metro576_live"),
    Layer("estimators.bound_us", "us", "lower", f"{_Q} on paper14k_unique, metro576_live"),
    Layer("estimators.bound_evaluations", "count", "lower", f"{_Q} on paper14k_unique"),
    Layer("estimators.refresh_delta_ms", "ms", "lower", "update_p50_ms on every workload"),
    Layer("estimators.tables_mb", "MB", "lower", "server_rss_mb"),
    Layer("estimators.snapshot_load_ms", "ms", "lower", "setup_s on metro1600_overlay"),
    # hierarchy --------------------------------------------------------
    Layer("hierarchy.build_s", "s", "lower", "setup_s on metro1600_overlay, metro576_live"),
    Layer("hierarchy.shortcuts", "count", "lower", "server_rss_mb, setup_s on metro1600_overlay"),
    Layer("hierarchy.breakpoints", "count", "lower", "server_rss_mb, setup_s on metro1600_overlay"),
    Layer("hierarchy.engine_ms", "ms", "lower", f"{_QT} on metro1600_overlay"),
    Layer("hierarchy.labels_generated", "count", "lower", f"{_QT} on metro1600_overlay"),
    Layer("hierarchy.refresh_delta_ms", "ms", "lower", "update_p50_ms on metro1600_overlay, metro576_live"),
    Layer("hierarchy.cells_recomputed", "count", "lower", "update_p50_ms on metro1600_overlay, metro576_live"),
    Layer("hierarchy.snapshot_map_ms", "ms", "lower", "setup_s on metro1600_overlay"),
    Layer("hierarchy.snapshot_mb", "MB", "lower", "server_rss_mb on metro1600_overlay"),
    # network / patterns -----------------------------------------------
    Layer("network.load_s", "s", "lower", "setup_s on paper14k_*"),
    Layer("network.outgoing_us", "us", "lower", f"{_Q} on paper14k_unique"),
    Layer("patterns.edge_function_us", "us", "lower", "query_p90_ms on metro576_live"),
    # storage (no end-to-end workload serves from .ccam) ----------------
    Layer("storage.build_s", "s", "lower", "none end to end; traced run of paper14k_unique only"),
    Layer("storage.page_reads", "count", "lower", "none end to end; traced run of paper14k_unique only"),
    Layer("storage.find_node_us", "us", "lower", "none end to end; traced run of paper14k_unique only"),
    Layer("storage.buffer_hit_ratio", "ratio", "higher", "none end to end; traced run of paper14k_unique only"),
    # loadgen / trace ----------------------------------------------------
    Layer("loadgen.calib_min_ms", "ms", "lower", "none; the machine, not the code"),
    Layer("loadgen.calib_median_ms", "ms", "lower", "none; the machine, not the code"),
    Layer("loadgen.contended", "count", "lower", "none; 1 = the run could not get clean passes"),
    Layer("loadgen.steal_ratio", "ratio", "lower", "none; CPU time the hypervisor took during the passes"),
    Layer("loadgen.passes", "count", "higher", "none; passes that fitted in --seconds"),
    Layer("loadgen.raw_p50_ms", "ms", "lower", "none; pooled over passes, unfiltered"),
    Layer("loadgen.raw_p95_ms", "ms", "lower", "none; pooled over passes, unfiltered"),
    Layer("loadgen.wall_qps", "1/s", "higher", "none; operations per wall second of the passes"),
    Layer("loadgen.self_us", "us", "lower", "none; client CPU per operation"),
    Layer("trace.overhead_ratio", "ratio", "lower", "none; traced / untraced in-process replay"),
)

LAYER_NAMES = tuple(layer.name for layer in LAYERS)
UNITS = {m.name: m.unit for m in END_TO_END + LAYERS}
