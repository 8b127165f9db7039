"""Command-line interface: generate networks, build CCAM databases, query, serve.

Installed as ``repro-allfp``::

    repro-allfp generate --out metro.json --width 48 --height 48
    repro-allfp build-ccam --network metro.json --out metro.ccam
    repro-allfp precompute --network metro.json --out metro.est
    repro-allfp query --network metro.json --source 0 --target 2303 \\
        --from 7:00 --to 9:00 --mode allfp \\
        --estimator boundary --estimator-cache metro.est
    repro-allfp profile --network metro.json --source 0 --targets 3,4,5 \\
        --from 7:00 --to 9:00
    repro-allfp knn --network metro.json --source 0 --candidates 3,4,5 \\
        --k 2 --from 7:00 --to 9:00
    repro-allfp info --network metro.json
    repro-allfp serve --network metro.json --port 8080 \\
        --estimator boundary --estimator-cache metro.est
    repro-allfp replay-updates --url http://127.0.0.1:8080 \\
        --trace incident.jsonl --speed 10
    repro-allfp chaos --network metro.json --estimator boundary --queries 40

Deliberate failures (missing files, unknown nodes, malformed clock strings)
exit non-zero with one clean ``error:`` line on stderr — never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core.arrival import ArrivalIntAllFastestPaths, reverse_boundary_estimator
from .core.engine import IntAllFastestPaths
from .estimators.boundary import BoundaryNodeEstimator
from .estimators.naive import NaiveEstimator
from .exceptions import EstimatorError, ReproError
from .func import kernel
from .network.generator import MetroConfig, make_metro_network
from .network.io import load_network, save_network
from .serve.boot import open_network, open_service
from .storage.ccam import CCAMStore
from .timeutil import TimeInterval, format_duration, parse_clock


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.metro_scale and args.paper_scale:
        raise ReproError("--metro-scale and --paper-scale are mutually exclusive")
    if args.metro_scale:
        config = MetroConfig.metro_scale(seed=args.seed)
    elif args.paper_scale:
        config = MetroConfig.paper_scale(seed=args.seed)
    else:
        config = MetroConfig(
            width=args.width, height=args.height, spacing=args.spacing, seed=args.seed
        )
    if args.format == "osm-text":
        # Stream straight to disk: metro-scale graphs never materialize
        # as Python objects on this path.
        from .network.generator import emit_metro_lines

        nodes = ways = 0
        with open(args.out, "w", encoding="utf-8") as handle:
            for line in emit_metro_lines(config):
                handle.write(line + "\n")
                if line.startswith("node "):
                    nodes += 1
                elif line.startswith("way "):
                    ways += 1
        print(f"wrote {args.out}: {nodes} nodes, {ways} ways (importer text)")
        return 0
    if args.metro_scale:
        # The object-graph generator would allocate ~100k node/edge objects
        # twice over; go through the streaming importer instead.
        from .network.generator import emit_metro_lines
        from .network.importer import parse_lines

        network, _ = parse_lines(emit_metro_lines(config))
    else:
        network = make_metro_network(config)
    save_network(network, args.out)
    print(
        f"wrote {args.out}: {network.node_count} nodes, "
        f"{network.edge_count} directed edges"
    )
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    from .network.importer import import_network

    network, stats = import_network(args.input)
    if Path(args.out).suffix == ".ccam":
        store = CCAMStore.build(network, args.out)
        store.close()
    else:
        save_network(network, args.out)
    print(
        f"imported {args.input}: {stats.nodes} nodes, {stats.ways} ways, "
        f"{stats.edges} directed edges "
        f"({stats.highway_edges} highway, {stats.local_edges} local)"
    )
    if stats.skipped_duplicates or stats.skipped_self_loops:
        print(
            f"skipped: {stats.skipped_duplicates} duplicate edge(s), "
            f"{stats.skipped_self_loops} self-loop(s)"
        )
    print(f"wrote {args.out}")
    return 0


def _cmd_build_ccam(args: argparse.Namespace) -> int:
    network = load_network(args.network)
    store = CCAMStore.build(
        network, args.out, page_size=args.page_size, strategy=args.strategy
    )
    info = store.build_info
    print(
        f"wrote {args.out}: {info['data_pages']} data pages, "
        f"{info['tree_pages']} index pages, "
        f"clustering quality {info['clustering_quality']:.1%}"
    )
    store.close()
    return 0


def _wants_boundary(network, args: argparse.Namespace) -> bool:
    """Whether the §5 estimator was asked for and can be had."""
    if args.estimator != "boundary":
        return False
    if isinstance(network, CCAMStore):
        print(
            "note: boundary estimator precomputation needs the full graph; "
            "falling back to naive on a .ccam input",
            file=sys.stderr,
        )
        return False
    return True


def _customized(network, args: argparse.Namespace) -> dict:
    """The cache hit / miss / build / write policy of the two RPRESNAP files
    (``--estimator-cache``, ``--overlay-cache``), for every verb that reads
    them, with or without ``--shards``.

    Returns what to serve from, as :func:`repro.serve.boot.open_service`
    keywords (``None`` where the flags ask for nothing): a **hit** — the
    named cache file exists and, for ``--overlay-cache`` with
    ``--overlay-levels``, has an overlay section — is handed on as its path
    (``snapshot_path`` / ``overlay_path``) for the reader to open; a **miss**
    is built in-process, written to the named file for the next boot, and
    handed on as the object (``estimator`` / ``overlay``).  One file may be
    named by both flags: an estimator miss writes it as version 1, the
    overlay miss that follows rewrites it as version 2 leading with the same
    tables.  Misses are noted on stderr here, hits by :func:`_note_hits` (``query``
    opens the file first, so a bad one is the only line it prints).
    """
    from .estimators import snapshot as snap

    sources = dict.fromkeys(
        ("estimator", "snapshot_path", "overlay", "overlay_path"), None
    )
    cache = args.estimator_cache
    if not _wants_boundary(network, args):
        pass
    elif cache and Path(cache).exists():
        sources["snapshot_path"] = cache
    else:
        built = BoundaryNodeEstimator(network, args.grid, args.grid)
        sources["estimator"] = built
        if cache:
            built.save_snapshot(cache)
            print(
                f"estimator cache miss: precomputed in "
                f"{built.precompute_seconds:.2f}s and wrote {cache}",
                file=sys.stderr,
            )

    cache, levels = args.overlay_cache, args.overlay_levels
    if cache and Path(cache).exists() and (levels <= 0 or _has_overlay(cache)):
        sources["overlay_path"] = cache
    elif cache and levels <= 0:
        raise ReproError(
            f"overlay cache {cache} does not exist; pass --overlay-levels N "
            "to build it (or repro-allfp build-overlay)"
        )
    elif levels > 0:
        from .hierarchy import MultiLevelOverlay

        overlay = MultiLevelOverlay.build(network, levels=levels)
        sources["overlay"] = overlay
        took = f"{overlay.level_count} level(s) in {overlay.stats.build_seconds:.2f}s"
        if cache:
            # A v2 snapshot always leads with estimator tables: the ones this
            # boot has (built, or in the estimator cache it hit), else built
            # for the purpose (naive, .ccam).
            if sources["snapshot_path"]:
                leader = BoundaryNodeEstimator.from_snapshot(
                    network, sources["snapshot_path"]
                )
            else:
                leader = sources["estimator"] or BoundaryNodeEstimator(
                    network, args.grid, args.grid
                )
            snap.save_tables(
                leader.tables, cache, snap.network_fingerprint(network), overlay=overlay
            )
            print(f"overlay cache miss: built {took} and wrote {cache}", file=sys.stderr)
        else:
            print(f"overlay: built {took}", file=sys.stderr)
    return sources


def _has_overlay(cache: str) -> bool:
    """Whether the snapshot at ``cache`` carries an overlay section.  A file
    the reader refuses counts as having one: it is not rebuilt over, the
    verb that opens it reports it (``query`` exits 2, a service boots
    degraded)."""
    from .estimators.snapshot import Snapshot

    try:
        return Snapshot(cache).overlay_header is not None
    except EstimatorError:
        return True


def _note_hits(sources: dict) -> None:
    for kind, key in (("estimator", "snapshot_path"), ("overlay", "overlay_path")):
        if sources[key]:
            print(f"{kind} cache hit: {sources[key]}", file=sys.stderr)


def _cmd_precompute(args: argparse.Namespace) -> int:
    network = open_network(args.network)
    if isinstance(network, CCAMStore):
        raise ReproError(
            "boundary estimator precomputation needs the full graph; "
            "pass the .json network instead of a .ccam database"
        )
    estimator = BoundaryNodeEstimator(
        network, args.grid, args.grid, metric=args.metric
    )
    path = estimator.save_snapshot(args.out)
    size = path.stat().st_size
    print(
        f"wrote {path}: {args.grid}x{args.grid} grid, {args.metric} metric, "
        f"{network.node_count} nodes, {size} bytes "
        f"(precompute {estimator.precompute_seconds:.2f}s)"
    )
    return 0


def _cmd_build_overlay(args: argparse.Namespace) -> int:
    """Build the multi-level overlay + boundary tables, write one v2 snapshot.

    The output file serves double duty: ``--estimator-cache`` readers see the
    ordinary boundary tables, ``--overlay-cache`` readers ``mmap`` the
    appended overlay section.
    """
    from .estimators import snapshot as snap
    from .hierarchy import MultiLevelOverlay

    network = open_network(args.network)
    if isinstance(network, CCAMStore):
        raise ReproError(
            "overlay construction needs the full graph; "
            "pass the .json network instead of a .ccam database"
        )
    horizon = TimeInterval(0.0, args.horizon_hours * 60.0)
    estimator = BoundaryNodeEstimator(network, args.grid, args.grid)
    tables = estimator.tables
    overlay = MultiLevelOverlay.build(
        network,
        levels=args.levels,
        nx=args.overlay_grid,
        fanout=args.fanout,
        horizon=horizon,
    )
    snap.save_tables(
        tables, args.out, snap.network_fingerprint(network), overlay=overlay
    )
    size = Path(args.out).stat().st_size
    print(
        f"wrote {args.out}: RPRESNAP v2, {size} bytes "
        f"(estimator {args.grid}x{args.grid}, overlay below)"
    )
    for level in overlay.levels:
        nx, ny = overlay.level_dims(level.level)
        print(
            f"level {level.level}: {nx}x{ny} cells, "
            f"{level.shortcut_count} shortcuts, "
            f"{level.breakpoint_count} breakpoints"
        )
    print(
        f"build: {overlay.stats.build_seconds:.2f}s "
        f"({sum(lv.profile_searches for lv in overlay.stats.levels)} "
        f"profile searches)"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    network = open_network(args.network)
    interval = _window(args)
    backward = args.constraint == "arrival"
    if backward:
        if _wants_boundary(network, args):
            if args.estimator_cache:
                print(
                    "note: --estimator-cache is ignored with "
                    "--constraint arrival (the backward estimator is built "
                    "on the reversed network)",
                    file=sys.stderr,
                )
            estimator = reverse_boundary_estimator(network, args.grid, args.grid)
        else:
            estimator = NaiveEstimator(network)
        if args.overlay_cache or args.overlay_levels:
            print(
                "note: the overlay is ignored with --constraint arrival "
                "(shortcuts store forward arrival functions)",
                file=sys.stderr,
            )
        engine = ArrivalIntAllFastestPaths(network, estimator)
    else:
        # One-shot: cache hits are opened strictly, so a bad file is a
        # one-line error and exit 2 rather than a degraded answer.
        sources = _customized(network, args)
        estimator, overlay = sources["estimator"], sources["overlay"]
        if sources["snapshot_path"]:
            estimator = BoundaryNodeEstimator.from_snapshot(
                network, sources["snapshot_path"]
            )
        if sources["overlay_path"]:
            from .estimators.snapshot import map_overlay

            overlay = map_overlay(sources["overlay_path"], network)
        _note_hits(sources)
        if estimator is None:
            estimator = NaiveEstimator(network)
        if overlay is not None:
            from .hierarchy.engine import OverlayEngine

            engine = OverlayEngine(overlay, estimator)
        else:
            engine = IntAllFastestPaths(network, estimator)
    if args.mode == "singlefp":
        single = engine.single_fastest_path(args.source, args.target, interval)
        print(single)
        print(
            f"expanded paths: {single.stats.expanded_paths}, "
            f"page reads: {single.stats.page_reads}"
        )
        _print_kernel_stats(single.stats)
    else:
        result = engine.all_fastest_paths(args.source, args.target, interval)
        print(result)
        best_leave, best_time = result.best()
        print(
            f"best: leave at minute {best_leave:.1f} for "
            f"{format_duration(best_time)}; expanded paths: "
            f"{result.stats.expanded_paths}, page reads: {result.stats.page_reads}"
        )
        _print_kernel_stats(result.stats)
    return 0


def _parse_node_list(raw: str, flag: str) -> list[int]:
    try:
        nodes = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ReproError(
            f"{flag} must be a comma-separated list of node ids: {exc}"
        ) from exc
    if not nodes:
        raise ReproError(f"{flag} must name at least one node")
    return nodes


def _cmd_profile(args: argparse.Namespace) -> int:
    from .core.profile import profile_search

    network = open_network(args.network)
    interval = _window(args)
    targets = (
        None if args.targets is None else _parse_node_list(args.targets, "--targets")
    )
    result = profile_search(network, args.source, interval, targets=targets)
    for node in sorted(result.profiles):
        fn = result.profiles[node]
        travel = fn.minus_identity()
        print(
            f"node {node}: best {format_duration(travel.min_value())}, "
            f"worst {format_duration(travel.max_value())}, "
            f"{len(fn)} breakpoints"
        )
    stats = result.stats
    print(
        f"reachable nodes: {len(result.profiles)}; expanded: "
        f"{stats.expanded_paths}; elapsed: {stats.elapsed_seconds * 1e3:.1f}ms"
    )
    _print_kernel_stats(stats)
    return 0


def _cmd_knn(args: argparse.Namespace) -> int:
    from .core.knn import interval_knn

    network = open_network(args.network)
    interval = _window(args)
    candidates = _parse_node_list(args.candidates, "--candidates")
    result = interval_knn(network, args.source, candidates, args.k, interval)
    for neighbor in result.neighbors:
        windows = ", ".join(
            f"[{lo:.1f}, {hi:.1f}]" for lo, hi in neighbor.optimal_intervals
        )
        print(
            f"#{neighbor.rank} node {neighbor.node}: "
            f"{format_duration(neighbor.min_travel_time)} at {windows}"
        )
    stats = result.stats
    print(
        f"reachable candidates: {result.reachable_candidates}/{len(set(candidates))}; "
        f"expanded: {stats.expanded_paths}; "
        f"elapsed: {stats.elapsed_seconds * 1e3:.1f}ms"
    )
    _print_kernel_stats(stats)
    return 0


def _parse_pair_list(raw: str, flag: str) -> list[tuple[int, int]]:
    pairs: list[tuple[int, int]] = []
    for part in raw.split(","):
        if part.strip() == "":
            continue
        bits = part.split(":")
        if len(bits) != 2:
            raise ReproError(
                f"{flag} entries must look like SOURCE:TARGET, got {part!r}"
            )
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError as exc:
            raise ReproError(
                f"{flag} entries must be integer node ids: {exc}"
            ) from exc
    if not pairs:
        raise ReproError(f"{flag} must name at least one SOURCE:TARGET pair")
    return pairs


def _cmd_batch(args: argparse.Namespace) -> int:
    from .core.batch import batch_fastest_times

    if (args.pairs is None) == (args.targets is None):
        raise ReproError(
            "supply exactly one of --pairs SOURCE:TARGET,... or "
            "--source with --targets"
        )
    if args.targets is not None and args.source is None:
        raise ReproError("--targets requires --source")
    network = open_network(args.network)
    interval = _window(args)
    if args.pairs is not None:
        pairs = _parse_pair_list(args.pairs, "--pairs")
    else:
        pairs = [
            (args.source, target)
            for target in _parse_node_list(args.targets, "--targets")
        ]
    result = batch_fastest_times(
        network, pairs, interval, deadline=args.deadline
    )
    for item in result.items:
        if item.error is not None:
            print(f"{item.source} -> {item.target}: error ({item.error})")
        elif not item.reachable:
            print(f"{item.source} -> {item.target}: unreachable")
        else:
            windows = ", ".join(
                f"[{lo:.1f}, {hi:.1f}]" for lo, hi in item.optimal_intervals
            )
            print(
                f"{item.source} -> {item.target}: best "
                f"{format_duration(item.optimal_travel_time)} at {windows}"
            )
    stats = result.stats
    print(
        f"{len(result.items)} pair(s) in {result.groups} profile search(es); "
        f"expanded: {stats.expanded_paths}; "
        f"elapsed: {stats.elapsed_seconds * 1e3:.1f}ms"
    )
    _print_kernel_stats(stats)
    return 0


def _print_kernel_stats(stats) -> None:
    """One line of kernel-work counters (silent when the query did none)."""
    lookups = stats.edge_cache_hits + stats.edge_cache_misses
    if stats.breakpoints_allocated == 0 and lookups == 0:
        return
    hit_rate = stats.edge_cache_hits / lookups if lookups else 0.0
    print(
        f"kernel: {stats.breakpoints_allocated} breakpoints allocated, "
        f"{stats.envelope_merges} envelope merges, "
        f"edge cache {stats.edge_cache_hits}/{lookups} hits "
        f"({hit_rate:.0%})"
    )


def _build_service(args: argparse.Namespace):
    """Shared by ``serve`` and ``chaos``: the service surface.

    ``--shards 0`` opens one :class:`~repro.serve.AllFPService`; ``--shards
    N`` starts a :class:`~repro.shard.tier.ShardedService` whose N workers
    each open the same thing from the same sources — cache files are
    ``mmap``-ed, a parent-built estimator travels as a temporary snapshot,
    the network itself by fork (re-opened per worker for .ccam stores).
    """
    from .serve import ServiceConfig

    network = open_network(args.network)
    if args.shards > 0 and args.overlay_levels > 0 and not args.overlay_cache:
        print(
            "note: --overlay-levels with --shards needs --overlay-cache "
            "(workers mmap the snapshot); running without the overlay",
            file=sys.stderr,
        )
        args.overlay_levels = 0
    sources = _customized(network, args)
    _note_hits(sources)  # a service maps them leniently: bad file = degraded
    config = ServiceConfig(
        max_pending=args.max_pending,
        default_deadline=args.deadline if args.deadline > 0 else None,
        coalesce=not args.no_coalesce,
        cache_results=not args.no_result_cache,
        result_cache_size=args.result_cache_size,
        result_cache_ttl=args.result_cache_ttl,
        task_retries=args.task_retries,
        serve_stale=args.serve_stale,
    )
    if args.shards > 0:
        from .shard import ShardedService

        # The tier's only transport for customized data is a file to mmap;
        # an overlay built just now (cache miss) is in the file it wrote.
        if sources.pop("overlay") is not None:
            sources["overlay_path"] = args.overlay_cache
        return ShardedService(
            network,
            config=config,
            shards=args.shards,
            network_path=args.network,
            **sources,
        )
    service, boot = open_service(network, config=config, **sources)
    for error in boot["errors"]:
        print(f"warning: {error}; serving degraded", file=sys.stderr)
    return service


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import make_server
    from .serve.http import POST_ROUTES

    service = _build_service(args)
    server = make_server(service, args.host, args.port, quiet=args.quiet)
    host, port = server.server_address[:2]
    print(f"repro-allfp serving on http://{host}:{port}")
    if args.shards > 0:
        print(
            f"sharded: {args.shards} worker process(es) behind the "
            "consistent-hash router"
        )
    endpoints = [f"POST {path}" for path in POST_ROUTES]
    print("endpoints: " + ", ".join(endpoints + ["GET /healthz", "GET /metrics"]))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.shutdown()
        service.close()
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos harness against an in-process service or tier (see
    ``docs/reliability.md``): baseline the workload fault-free, replay it
    under the fault plan — with ``--shards``, also a mid-run worker kill —
    and exit non-zero on any invariant violation."""
    from . import reliability
    from .serve.chaos import busiest_shard, default_fault_plan, run_chaos
    from .workloads.queries import morning_rush_interval, random_queries

    if args.faults:
        text = args.faults.strip()
        if not text.startswith("{"):
            text = Path(text).read_text(encoding="utf-8")
        plan = reliability.FaultPlan.from_json(text)
    else:
        plan = default_fault_plan(seed=args.fault_seed)
    if reliability.is_active():
        # REPRO_FAULTS would also poison the baseline phase; the harness
        # owns installation for the chaos phase only.
        reliability.uninstall()
        print(
            "note: removed the REPRO_FAULTS injector; the chaos verb "
            "installs its plan after the fault-free baseline",
            file=sys.stderr,
        )
    service = _build_service(args)
    interval = morning_rush_interval(args.interval_hours)
    queries = random_queries(
        service.network,
        args.queries,
        interval,
        seed=args.seed,
        min_distance=args.min_distance,
        max_distance=args.max_distance,
    )
    kill_shard = None
    if args.shards > 0:
        kill_shard = (
            args.kill_shard
            if args.kill_shard is not None
            else busiest_shard(service.ring, queries)
        )
    print(
        f"chaos: {len(queries)} queries, {args.clients} client(s), "
        f"{len(plan.specs)} fault spec(s), seed {plan.seed}"
        + (
            f", {args.shards} shard(s) with one mid-run kill"
            if args.shards > 0
            else ""
        )
    )
    try:
        report = run_chaos(
            service, queries, plan, kill_shard=kill_shard, clients=args.clients
        )
    finally:
        service.close()
    for line in report.summary_lines():
        print(line)
    return 0 if report.passed() else 1


def _cmd_replay_updates(args: argparse.Namespace) -> int:
    """Replay a timestamped incident trace against a running server.

    Each trace line is POSTed to ``/v1/updates`` at its recorded offset
    (compressed by ``--speed``); a rejected batch — validation error,
    unknown edge, overload past the client's retry budget — stops the
    replay with one ``error:`` line and exit code 2.
    """
    import time as _time

    from .serve.client import HTTPClient
    from .serve.updates import load_trace, replay_trace

    if args.speed <= 0:
        raise ReproError(f"--speed must be > 0, got {args.speed:g}")
    events = load_trace(args.trace)
    client = HTTPClient(args.url, timeout=args.timeout)
    print(
        f"replaying {args.trace}: {len(events)} batch(es), "
        f"{sum(len(e.batch) for e in events)} mutation(s) "
        f"against {args.url}"
        + (f" at {args.speed:g}x" if args.speed != 1.0 else "")
    )
    started = _time.monotonic()
    versions = []

    def post(event) -> None:
        status, body = client.updates(event.batch)
        if status != 200:
            raise ReproError(
                f"update batch at t={event.at:g}s rejected: "
                f"HTTP {status}: {body['error']}: {body['message']}"
            )
        versions.append(body["version"])
        print(
            f"t={event.at:g}s: applied {body['applied']} "
            f"mutation(s) -> network version {body['version']} "
            f"(staleness {body['staleness_seconds']:.3f}s)"
        )

    replay_trace(events, post, args.speed)
    print(
        f"replay complete: network version {versions[-1]} "
        f"after {_time.monotonic() - started:.2f}s"
    )
    return 0


def _cmd_snapshot_info(args: argparse.Namespace) -> int:
    """Describe an RPRESNAP estimator snapshot without loading its arrays.

    Corruption (bad magic, truncation, inconsistent counts) surfaces as an
    :class:`~repro.exceptions.EstimatorError`, which ``main`` turns into a
    one-line ``error:`` message and exit code 2.
    """
    import time as _time

    from .estimators.snapshot import Snapshot

    header = Snapshot(args.snapshot).describe()
    print(f"snapshot: {args.snapshot}")
    print(f"format: RPRESNAP v{header['version']} ({header['byteorder']}-endian)")
    print(f"network fingerprint: {header['fingerprint']}")
    mtime = Path(args.snapshot).stat().st_mtime
    age_minutes = max(0.0, _time.time() - mtime) / 60.0
    print(
        "built: "
        f"{_time.strftime('%Y-%m-%d %H:%M:%S', _time.gmtime(mtime))} UTC "
        f"({format_duration(age_minutes)} ago)"
    )
    print(
        "network version: base 0 at this fingerprint "
        "(live updates advance network_applied_version on /metrics)"
    )
    if getattr(args, "network", None):
        from .estimators.snapshot import network_fingerprint

        network = open_network(args.network)
        if isinstance(network, CCAMStore):
            raise ReproError(
                "fingerprint cross-check needs the full graph; "
                "pass the .json network instead of a .ccam database"
            )
        actual = network_fingerprint(network).hex()
        if actual != header["fingerprint"]:
            raise ReproError(
                f"fingerprint MISMATCH: {args.network} hashes to {actual}, "
                f"snapshot pins {header['fingerprint']} — rebuild the "
                "snapshot or pass the network it was built from"
            )
        print(f"network check: {args.network} matches the pinned fingerprint")
    print(f"metric: {header['metric']}")
    print(
        f"grid: {header['nx']}x{header['ny']} "
        f"({header['cell_count']} cells)"
    )
    print(f"nodes: {header['node_count']}")
    print(f"arrays: {header['arrays']}")
    print(f"precompute: {header['precompute_seconds']:.2f}s")
    print(f"size: {header['file_bytes']} bytes")
    overlay = header.get("overlay")
    if overlay is not None:
        base_nx, base_ny = overlay["base_grid"]
        lo, hi = overlay["horizon"]
        print(
            f"overlay: {overlay['levels']} level(s), base grid "
            f"{base_nx}x{base_ny}, fanout {overlay['fanout']}, "
            f"horizon [{lo:.1f}, {hi:.1f}] min, "
            f"build {overlay['build_seconds']:.2f}s"
        )
        for level in overlay["level_details"]:
            print(
                f"  level {level['level']}: {level['nx']}x{level['ny']} "
                f"({level['cells']} cells), "
                f"{level['boundary_nodes']} boundary nodes, "
                f"{level['shortcuts']} shortcuts, "
                f"{level['breakpoints']} breakpoints, "
                f"{level['profile_searches']} profile searches, "
                f"{level['build_seconds']:.2f}s"
            )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    network = open_network(args.network)
    if isinstance(network, CCAMStore):
        print(f"nodes: {network.node_count}")
        print(f"directed edges: {network.edge_count}")
        print(f"max speed: {network.max_speed():.3f} mpm")
        print(f"page size: {network.page_size}")
        print(f"build: {network.build_info}")
        return 0
    from .network.stats import network_stats

    for line in network_stats(network).summary_lines():
        print(line)
    return 0


# ----------------------------------------------------------------------
# Option groups: each declared once, attached to every verb that takes it.
# ----------------------------------------------------------------------
def _add_network(p, help=".json or .ccam input") -> None:
    p.add_argument("--network", required=True, help=help)


def _add_window(p, constraint: bool = False) -> None:
    """``--from/--to/--day``, read back by :func:`_window`; ``query`` also
    says which end of the trip the window constrains."""
    p.add_argument("--from", dest="leave_from", default="7:00")
    p.add_argument("--to", dest="leave_to", default="9:00")
    if constraint:
        p.add_argument(
            "--constraint",
            choices=("leaving", "arrival"),
            default="leaving",
            help="whether --from/--to constrain the leaving time at the source "
            "or the arrival time at the target",
        )
    p.add_argument("--day", type=int, default=0, help="0 = Monday")


def _window(args: argparse.Namespace) -> TimeInterval:
    return TimeInterval(
        parse_clock(args.leave_from, args.day), parse_clock(args.leave_to, args.day)
    )


def _add_customization(p) -> None:
    """The estimator choice and the two RPRESNAP cache-flag pairs, read
    back by :func:`_customized`."""
    p.add_argument("--estimator", choices=("naive", "boundary"), default="naive")
    p.add_argument("--grid", type=int, default=6, help="boundary grid size")
    p.add_argument(
        "--estimator-cache",
        default=None,
        metavar="PATH",
        help="boundary-estimator snapshot: load it when present "
        "(fingerprint-checked), precompute and write it when missing",
    )
    p.add_argument(
        "--overlay-levels",
        type=int,
        default=0,
        metavar="N",
        help="answer through an N-level overlay hierarchy (0 = off)",
    )
    p.add_argument(
        "--overlay-cache",
        default=None,
        metavar="PATH",
        help="v2 snapshot with an overlay section: mmap it when "
        "present (fingerprint-checked), build and write it when "
        "missing and --overlay-levels > 0",
    )


def _add_service(p) -> None:
    """Everything :func:`_build_service` reads."""
    _add_network(p)
    _add_customization(p)
    p.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission limit before 503 fast-fail",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        help="per-query wall-clock budget in seconds (0 disables)",
    )
    p.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable single-flight deduplication of identical in-flight queries",
    )
    p.add_argument(
        "--no-result-cache",
        action="store_true",
        help="disable the TTL+LRU result cache",
    )
    p.add_argument("--result-cache-size", type=int, default=1024)
    p.add_argument("--result-cache-ttl", type=float, default=300.0, help="seconds")
    p.add_argument(
        "--task-retries",
        type=int,
        default=1,
        help="retries for worker tasks that crash with an unexpected error",
    )
    p.add_argument(
        "--serve-stale",
        action="store_true",
        help="answer from the last good (stale) result when a deadline trips",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run N worker processes behind the consistent-hash router "
        "(0 = single-process, the default)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-allfp",
        description="Time-interval fastest paths with CapeCod speed patterns "
        "(ICDE 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    gen = verb("generate", _cmd_generate, "generate a synthetic metro network")
    gen.add_argument("--out", required=True, help="output .json path")
    gen.add_argument("--width", type=int, default=48)
    gen.add_argument("--height", type=int, default=48)
    gen.add_argument("--spacing", type=float, default=0.25, help="block miles")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper-matching 14.5k-node configuration",
    )
    gen.add_argument(
        "--metro-scale",
        action="store_true",
        help="emit the 100k+-node metro configuration through the "
        "streaming generator",
    )
    gen.add_argument(
        "--format",
        choices=("json", "osm-text"),
        default="json",
        help="output format: .json network or importer node/way text",
    )

    imp = verb(
        "import",
        _cmd_import,
        "stream an OSM-flavored node/way text file into a network",
    )
    imp.add_argument("input", help="node/way text file (see docs/hierarchy.md)")
    imp.add_argument(
        "--out",
        required=True,
        help="output path: .ccam builds a disk database, anything else "
        "writes the .json network",
    )

    build = verb("build-ccam", _cmd_build_ccam, "build a CCAM disk database")
    _add_network(build, "input .json network")
    build.add_argument("--out", required=True, help="output .ccam path")
    build.add_argument("--page-size", type=int, default=2048)
    build.add_argument(
        "--strategy", choices=("hilbert", "connectivity"), default="connectivity"
    )

    prep = verb(
        "precompute",
        _cmd_precompute,
        "precompute the boundary estimator and write a snapshot",
    )
    _add_network(prep, "input .json network")
    prep.add_argument("--out", required=True, help="output snapshot path")
    prep.add_argument("--grid", type=int, default=6, help="boundary grid size")
    prep.add_argument("--metric", choices=("time", "distance"), default="time")

    build_ov = verb(
        "build-overlay",
        _cmd_build_overlay,
        "build a multi-level overlay and write a v2 snapshot "
        "(estimator tables + overlay in one file)",
    )
    _add_network(build_ov, "input .json network")
    build_ov.add_argument("--out", required=True, help="output snapshot path")
    build_ov.add_argument("--levels", type=int, default=2, help="overlay level count")
    build_ov.add_argument(
        "--grid", type=int, default=6, help="boundary-estimator grid size"
    )
    build_ov.add_argument(
        "--overlay-grid",
        type=int,
        default=8,
        help="base partition size for level 0 (coarsened by --fanout per level)",
    )
    build_ov.add_argument(
        "--fanout",
        type=int,
        default=2,
        help="cells merged per axis at each level",
    )
    build_ov.add_argument(
        "--horizon-hours",
        type=float,
        default=48.0,
        help="departure-time coverage of the shortcut functions",
    )
    build_ov.add_argument(
        "--workers",
        type=int,
        choices=(1,),
        default=1,
        help="accepted for its callers: the build runs in one process",
    )

    query = verb("query", _cmd_query, "run an allFP or singleFP query")
    _add_network(query)
    query.add_argument("--source", type=int, required=True)
    query.add_argument("--target", type=int, required=True)
    _add_window(query, constraint=True)
    query.add_argument("--mode", choices=("allfp", "singlefp"), default="allfp")
    _add_customization(query)

    profile = verb(
        "profile",
        _cmd_profile,
        "one-to-all earliest-arrival profile search from a source",
    )
    _add_network(profile)
    profile.add_argument("--source", type=int, required=True)
    profile.add_argument(
        "--targets",
        default=None,
        help="comma-separated node ids to report (default: every reachable node)",
    )
    _add_window(profile)

    knn = verb("knn", _cmd_knn, "time-interval k-nearest-neighbour query")
    _add_network(knn)
    knn.add_argument("--source", type=int, required=True)
    knn.add_argument(
        "--candidates",
        required=True,
        help="comma-separated candidate node ids",
    )
    knn.add_argument("--k", type=int, default=1)
    _add_window(knn)

    batch = verb(
        "batch",
        _cmd_batch,
        "answer many (source, target) fastest-time queries together",
    )
    _add_network(batch)
    batch.add_argument(
        "--pairs",
        default=None,
        help="comma-separated SOURCE:TARGET pairs, e.g. 0:9,3:7",
    )
    batch.add_argument(
        "--source", type=int, default=None, help="one-to-many source node"
    )
    batch.add_argument(
        "--targets",
        default=None,
        help="comma-separated target node ids (one-to-many, with --source)",
    )
    _add_window(batch)
    batch.add_argument(
        "--deadline", type=float, default=None,
        help="wall-clock budget in seconds for the whole batch",
    )

    serve = verb("serve", _cmd_serve, "run the HTTP query service")
    _add_service(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080, help="0 auto-assigns")
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request access logs"
    )

    chaos = verb(
        "chaos",
        _cmd_chaos,
        "replay a workload under injected faults and check the "
        "correct-typed-or-degraded invariant",
    )
    _add_service(chaos)
    chaos.add_argument(
        "--faults",
        default=None,
        help="fault plan: inline JSON or a path to a JSON file "
        "(default: a representative built-in plan)",
    )
    chaos.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the built-in plan (ignored with --faults)",
    )
    chaos.add_argument("--queries", type=int, default=40)
    chaos.add_argument("--clients", type=int, default=4)
    chaos.add_argument("--seed", type=int, default=0, help="workload seed")
    chaos.add_argument("--min-distance", type=float, default=0.0)
    chaos.add_argument("--max-distance", type=float, default=float("inf"))
    chaos.add_argument("--interval-hours", type=float, default=3.0)
    chaos.add_argument(
        "--kill-shard",
        type=int,
        default=None,
        help="with --shards: which worker to hard-kill mid-run "
        "(default: the shard owning the most workload keys)",
    )

    info = verb("info", _cmd_info, "describe a network or database file")
    _add_network(info, None)

    snap_info = verb(
        "snapshot-info",
        _cmd_snapshot_info,
        "describe an RPRESNAP estimator snapshot (exit 2 if corrupt)",
    )
    snap_info.add_argument("--snapshot", required=True, help="RPRESNAP file")
    snap_info.add_argument(
        "--network",
        default=None,
        help="cross-check the snapshot's pinned fingerprint against this "
        ".json network (exit 2 on mismatch)",
    )

    replay = verb(
        "replay-updates",
        _cmd_replay_updates,
        "replay a timestamped incident trace against a running server",
    )
    replay.add_argument(
        "--url", required=True, help="server base URL, e.g. http://127.0.0.1:8080"
    )
    replay.add_argument(
        "--trace",
        required=True,
        help="JSONL incident trace: one {'at': seconds, 'mutations': [...]} "
        "object per line",
    )
    replay.add_argument(
        "--speed",
        type=float,
        default=1.0,
        help="time compression: 10 fires a t=5s event at 0.5s",
    )
    replay.add_argument(
        "--timeout", type=float, default=60.0, help="per-request seconds"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        kernel.configure_from_env()
        return args.func(args)
    except (ReproError, OSError, ValueError) as exc:
        # Deliberate failure modes (bad inputs, missing files, unknown
        # nodes, malformed clock strings): one clean line, non-zero exit.
        message = str(exc) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
