"""Versioned binary snapshots of the boundary estimator's precompute.

Layout (all integers little-endian, fixed-width, written with ``struct`` —
**no pickle anywhere**, so loading an untrusted file can at worst raise
:class:`~repro.exceptions.EstimatorError`):

.. code-block:: text

    magic        8 bytes   b"RPRESNAP"
    version      u16       SNAPSHOT_VERSION
    byteorder    u8        0 = little, 1 = big (array payloads are native)
    metric       u8        0 = "time", 1 = "distance"
    nx, ny       u16 u16   grid resolution
    node_count   u32
    cell_count   u32
    v_max        f64       network-wide maximum speed (mpm)
    prep_secs    f64       wall-clock seconds the original precompute took
    fingerprint  32 bytes  sha256 of the network's canonical serialization
    5 × array    each:     typecode u8 | itemsize u8 | count u64 | payload

The arrays appear in the fixed order ``node_ids, node_cell, to_boundary,
from_boundary, cell_pair``.  The fingerprint pins a snapshot to one exact
network (nodes, edges, distances, speed patterns, calendar); loading against
anything else refuses with a clear error instead of silently serving bounds
that may no longer be admissible.

**Version 2** appends an optional multi-level overlay section after the
estimator arrays, so one file warm-boots both the boundary estimator and
the hierarchy (see ``docs/hierarchy.md``):

.. code-block:: text

    ovly magic     4 bytes  b"OVLY"
    level_count    u16      | base_nx u16 | base_ny u16 | fanout u16
    horizon_lo/hi  f64 f64
    build_secs     f64
    per level:     nx u16 | ny u16 | cells u32 | boundary u32
                   | build_secs f64 | searches u64
                   5 × array: src(q) dst(q) off(q) xs(d) ys(d)

Version-1 files (no overlay) remain byte-identical to what this module has
always written; the reader accepts both versions.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import sys
from array import array
from pathlib import Path

from .. import reliability
from ..exceptions import EstimatorError
from .precompute import (
    CELL_TYPECODE,
    NODE_ID_TYPECODE,
    WEIGHT_TYPECODE,
    EstimatorTables,
)

MAGIC = b"RPRESNAP"
#: Version written when no overlay is attached (the historical format).
SNAPSHOT_VERSION = 1
#: Version written when an overlay section follows the estimator arrays.
SNAPSHOT_VERSION_OVERLAY = 2
_SUPPORTED_VERSIONS = (SNAPSHOT_VERSION, SNAPSHOT_VERSION_OVERLAY)

_HEADER = struct.Struct("<8sHBBHHIIdd32s")
_ARRAY_HEADER = struct.Struct("<BBQ")

OVERLAY_MAGIC = b"OVLY"
_OVERLAY_HEADER = struct.Struct("<4sHHHHddd")
_LEVEL_HEADER = struct.Struct("<HHIIdQ")
#: (name, typecode) of the five flat stores of one overlay level.
_LEVEL_ARRAY_SPECS = (
    ("src", "q"),
    ("dst", "q"),
    ("off", "q"),
    ("xs", "d"),
    ("ys", "d"),
)

_METRIC_CODES = {"time": 0, "distance": 1}
_METRIC_NAMES = {code: name for name, code in _METRIC_CODES.items()}

#: How many calendar days the fingerprint samples (matches network IO).
_CALENDAR_SAMPLE_DAYS = 366


def network_fingerprint(network) -> bytes:
    """sha256 digest of the network's canonical serialization.

    Covers everything the estimator tables depend on — node locations, edge
    distances, per-edge speed patterns — plus the calendar, so a snapshot is
    pinned to one exact network version.
    """
    h = hashlib.sha256()
    calendar = network.calendar
    doc = {
        "categories": list(calendar.categories.names),
        "calendar_days": [
            calendar.category_for_day(d) for d in range(_CALENDAR_SAMPLE_DAYS)
        ],
    }
    h.update(json.dumps(doc, sort_keys=True).encode())
    for node in sorted(network.nodes(), key=lambda n: n.id):
        h.update(struct.pack("<qdd", node.id, node.x, node.y))
    # Networks share a handful of distinct pattern objects across thousands
    # of edges; digest each object once and splice the cached digest in.
    pattern_digests: dict[int, bytes] = {}
    pack_edge = struct.Struct("<qqd").pack
    pack_piece = struct.Struct("<dd").pack
    for edge in sorted(network.edges(), key=lambda e: (e.source, e.target)):
        h.update(pack_edge(edge.source, edge.target, edge.distance))
        pattern = edge.pattern
        digest = pattern_digests.get(id(pattern))
        if digest is None:
            ph = hashlib.sha256()
            for category in pattern.categories:
                ph.update(category.encode())
                for start, speed in pattern.daily(category).pieces:
                    ph.update(pack_piece(start, speed))
            digest = ph.digest()
            pattern_digests[id(pattern)] = digest
        h.update(digest)
    return h.digest()


def _write_array(out, arr) -> None:
    # Accept both array-module stores and the read-only memoryviews a
    # zero-copy (mmap) EstimatorTables carries.
    typecode = getattr(arr, "typecode", None) or arr.format
    out.write(_ARRAY_HEADER.pack(ord(typecode), arr.itemsize, len(arr)))
    out.write(arr.tobytes())


def _write_overlay_section(out, overlay) -> None:
    """Append the v2 overlay section for a ``MultiLevelOverlay``."""
    horizon = overlay.horizon
    out.write(
        _OVERLAY_HEADER.pack(
            OVERLAY_MAGIC,
            overlay.level_count,
            overlay.grid.shape[0],
            overlay.grid.shape[1],
            overlay.fanout,
            horizon.start,
            horizon.end,
            overlay.stats.build_seconds,
        )
    )
    for level in overlay.levels:
        stats = level.stats
        out.write(
            _LEVEL_HEADER.pack(
                level.nx,
                level.ny,
                stats.cells,
                stats.boundary_nodes,
                stats.build_seconds,
                stats.profile_searches,
            )
        )
        for arr in (level.src, level.dst, level.off, level.xs, level.ys):
            reliability.fire("repro.estimators.snapshot.save")
            _write_array(out, arr)


def save_tables(
    tables: EstimatorTables,
    path: str | Path,
    fingerprint: bytes,
    overlay=None,
) -> None:
    """Write ``tables`` to ``path`` in the versioned binary format.

    Crash-safe: the bytes go to a temporary file in the same directory,
    are fsynced, and only then renamed over ``path`` with ``os.replace``.
    A process killed mid-save leaves either the old snapshot or no
    snapshot — never a truncated ``RPRESNAP`` file.

    With ``overlay`` (a :class:`~repro.hierarchy.overlay.MultiLevelOverlay`)
    the file is written as version 2 with the overlay section appended;
    without it the output is byte-identical to the historical version 1.
    """
    if len(fingerprint) != 32:
        raise EstimatorError("network fingerprint must be a 32-byte sha256")
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as out:
            out.write(
                _HEADER.pack(
                    MAGIC,
                    SNAPSHOT_VERSION
                    if overlay is None
                    else SNAPSHOT_VERSION_OVERLAY,
                    0 if sys.byteorder == "little" else 1,
                    _METRIC_CODES[tables.metric],
                    tables.nx,
                    tables.ny,
                    tables.node_count,
                    tables.cell_count,
                    tables.v_max,
                    tables.precompute_seconds,
                    fingerprint,
                )
            )
            for arr in (
                tables.node_ids,
                tables.node_cell,
                tables.to_boundary,
                tables.from_boundary,
                tables.cell_pair,
            ):
                reliability.fire("repro.estimators.snapshot.save")
                _write_array(out, arr)
            if overlay is not None:
                _write_overlay_section(out, overlay)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


class _BufReader:
    """Sequential cursor over a snapshot buffer with truncation checks."""

    __slots__ = ("buf", "offset", "source")

    def __init__(self, buf: memoryview, source: str) -> None:
        self.buf = buf
        self.offset = 0
        self.source = source

    def take(self, count: int, what: str) -> memoryview:
        end = self.offset + count
        if end > len(self.buf):
            raise EstimatorError(
                f"{self.source}: truncated estimator snapshot "
                f"(while reading {what})"
            )
        view = self.buf[self.offset:end]
        self.offset = end
        return view


def _parse_header(reader: _BufReader) -> dict:
    """Unpack and validate the fixed header; fingerprint check is the
    caller's (``read_header`` reports it, the loaders enforce it)."""
    source = reader.source
    (
        magic,
        version,
        byteorder,
        metric_code,
        nx,
        ny,
        node_count,
        cell_count,
        v_max,
        prep_secs,
        stored_fingerprint,
    ) = _HEADER.unpack(bytes(reader.take(_HEADER.size, "header")))
    if magic != MAGIC:
        raise EstimatorError(f"{source}: not an estimator snapshot")
    if version not in _SUPPORTED_VERSIONS:
        raise EstimatorError(
            f"{source}: unsupported snapshot version {version} "
            f"(this build reads versions "
            f"{' and '.join(str(v) for v in _SUPPORTED_VERSIONS)})"
        )
    metric = _METRIC_NAMES.get(metric_code)
    if metric is None:
        raise EstimatorError(
            f"{source}: corrupt snapshot: unknown metric code {metric_code}"
        )
    return {
        "version": version,
        "byteorder": "big" if byteorder == 1 else "little",
        "metric": metric,
        "nx": nx,
        "ny": ny,
        "node_count": node_count,
        "cell_count": cell_count,
        "v_max": v_max,
        "precompute_seconds": prep_secs,
        "fingerprint": stored_fingerprint,
    }


def _parse_array(
    reader: _BufReader, expected_typecode: str, swap: bool, copy: bool, what: str
):
    source = reader.source
    typecode_byte, itemsize, count = _ARRAY_HEADER.unpack(
        bytes(reader.take(_ARRAY_HEADER.size, f"{what} header"))
    )
    typecode = chr(typecode_byte)
    if typecode != expected_typecode:
        raise EstimatorError(
            f"{source}: corrupt snapshot: {what} has typecode {typecode!r}, "
            f"expected {expected_typecode!r}"
        )
    if itemsize != array(typecode).itemsize:
        raise EstimatorError(
            f"{source}: snapshot written with {itemsize}-byte {typecode!r} "
            f"items; this platform uses {array(typecode).itemsize}"
        )
    payload = reader.take(itemsize * count, what)
    if not copy:
        # Zero-copy: a typed read-only view straight over the backing
        # buffer.  The caller keeps the buffer (the mmap) alive via
        # EstimatorTables._buffer_owner.
        return payload.cast(typecode)
    arr = array(typecode)
    arr.frombytes(payload)
    if swap:
        arr.byteswap()
    return arr


def parse_tables(
    buf,
    fingerprint: bytes,
    *,
    source: str = "<buffer>",
    copy: bool = True,
    owner: object | None = None,
) -> EstimatorTables:
    """Parse a full RPRESNAP image held in a buffer.

    With ``copy=True`` (the default) every store lands in a private
    ``array`` — byte-for-byte what :func:`load_tables` has always produced.
    With ``copy=False`` the stores are read-only typed memoryviews straight
    over ``buf`` (which must be read-only and outlive the tables — pass the
    keeper as ``owner``); a snapshot written on a foreign-byteorder platform
    cannot be viewed in place and falls back to copying.
    """
    view = memoryview(buf)
    if not view.readonly and not copy:
        view = view.toreadonly()
    reader = _BufReader(view, source)
    header = _parse_header(reader)
    if header["fingerprint"] != fingerprint:
        raise EstimatorError(
            f"{source}: snapshot was built for a different network "
            "(fingerprint mismatch); re-run `repro-allfp precompute`"
        )
    swap = (header["byteorder"] == "big") != (sys.byteorder == "big")
    if swap:
        copy = True  # cannot view foreign-endian payloads in place
    arrays = {
        what: _parse_array(reader, typecode, swap, copy, what)
        for what, typecode in (
            ("node_ids", NODE_ID_TYPECODE),
            ("node_cell", CELL_TYPECODE),
            ("to_boundary", WEIGHT_TYPECODE),
            ("from_boundary", WEIGHT_TYPECODE),
            ("cell_pair", WEIGHT_TYPECODE),
        )
    }
    node_count, cell_count = header["node_count"], header["cell_count"]
    if (
        len(arrays["node_ids"]) != node_count
        or len(arrays["node_cell"]) != node_count
        or len(arrays["to_boundary"]) != node_count
        or len(arrays["from_boundary"]) != node_count
        or len(arrays["cell_pair"]) != cell_count * cell_count
        or cell_count != header["nx"] * header["ny"]
    ):
        raise EstimatorError(f"{source}: corrupt snapshot: array sizes disagree")
    return EstimatorTables(
        nx=header["nx"],
        ny=header["ny"],
        metric=header["metric"],
        v_max=header["v_max"],
        precompute_seconds=header["precompute_seconds"],
        workers_used=1,
        loaded_from_snapshot=True,
        _buffer_owner=None if copy else owner,
        **arrays,
    )


def load_tables(path: str | Path, fingerprint: bytes) -> EstimatorTables:
    """Read a snapshot into private arrays, verifying format and fingerprint.

    Raises :class:`EstimatorError` — never an unpickling error or a raw
    ``struct.error`` — on any of: missing file, wrong magic, unsupported
    version, truncation, corrupt array headers, or a fingerprint that does
    not match ``fingerprint`` (the current network's hash).
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            # Payload-free fault point: a "corrupt" spec here raises loudly
            # instead of mutating bytes — a flipped byte inside e.g. v_max
            # would pass every header check and silently break admissibility,
            # which is precisely the outcome injection must never create.
            reliability.fire("repro.estimators.snapshot.load")
            data = f.read()
    except OSError as exc:
        raise EstimatorError(f"cannot open estimator snapshot: {exc}") from None
    return parse_tables(data, fingerprint, source=str(path), copy=True)


def map_tables(path: str | Path, fingerprint: bytes) -> EstimatorTables:
    """The zero-copy load path: ``mmap`` the snapshot read-only and build
    :class:`EstimatorTables` whose stores are typed views over the mapping.

    Every process mapping the same snapshot shares one page-cache copy of
    the tables — N shard workers cost one table, not N.  The mapping is
    kept alive by the returned tables (``_buffer_owner``) and unmapped
    when they are garbage-collected.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            reliability.fire("repro.estimators.snapshot.load")
            mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:
        raise EstimatorError(f"cannot map estimator snapshot: {exc}") from None
    try:
        return parse_tables(
            mapped, fingerprint, source=str(path), copy=False, owner=mapped
        )
    except BaseException:
        try:
            mapped.close()
        except BufferError:
            # A view created by the failed parse is still referenced from
            # the traceback; the mapping unmaps when the exception dies.
            pass
        raise


def _skip_arrays(reader: _BufReader, count: int) -> list[tuple[str, int]]:
    """Advance past ``count`` encoded arrays, returning (typecode, len)."""
    seen = []
    for _ in range(count):
        typecode_byte, itemsize, n = _ARRAY_HEADER.unpack(
            bytes(reader.take(_ARRAY_HEADER.size, "array header"))
        )
        reader.take(itemsize * n, "array payload")
        seen.append((chr(typecode_byte), n))
    return seen


def _parse_overlay_section(reader: _BufReader, network, swap: bool, copy: bool):
    """Parse the v2 overlay section into a ``MultiLevelOverlay``."""
    source = reader.source
    (
        magic,
        level_count,
        base_nx,
        base_ny,
        fanout,
        horizon_lo,
        horizon_hi,
        build_seconds,
    ) = _OVERLAY_HEADER.unpack(
        bytes(reader.take(_OVERLAY_HEADER.size, "overlay header"))
    )
    if magic != OVERLAY_MAGIC:
        raise EstimatorError(
            f"{source}: corrupt snapshot: bad overlay section magic"
        )
    if level_count < 1 or fanout < 2 or base_nx < 1 or base_ny < 1:
        raise EstimatorError(
            f"{source}: corrupt snapshot: implausible overlay header "
            f"({level_count} levels, {base_nx}x{base_ny} grid, "
            f"fanout {fanout})"
        )
    # Deferred import: the hierarchy package imports this module's loaders.
    from ..exceptions import QueryError
    from ..hierarchy.overlay import (
        LevelStats,
        MultiLevelOverlay,
        OverlayLevel,
        OverlayStats,
    )
    from ..timeutil import TimeInterval
    from .grid import GridPartition

    grid = GridPartition(network, base_nx, base_ny)
    levels = []
    stats = OverlayStats(build_seconds=build_seconds)
    for k in range(level_count):
        (nx, ny, cells, boundary_nodes, level_seconds, searches) = (
            _LEVEL_HEADER.unpack(
                bytes(
                    reader.take(_LEVEL_HEADER.size, f"overlay level {k} header")
                )
            )
        )
        arrays = {
            name: _parse_array(
                reader, typecode, swap, copy, f"overlay level {k} {name}"
            )
            for name, typecode in _LEVEL_ARRAY_SPECS
        }
        level_stats = LevelStats(
            level=k,
            nx=nx,
            ny=ny,
            cells=cells,
            boundary_nodes=boundary_nodes,
            shortcuts=len(arrays["src"]),
            breakpoints=len(arrays["xs"]),
            profile_searches=searches,
            build_seconds=level_seconds,
        )
        try:
            level = OverlayLevel(
                k,
                nx,
                ny,
                arrays["src"],
                arrays["dst"],
                arrays["off"],
                arrays["xs"],
                arrays["ys"],
                level_stats,
            )
        except QueryError as exc:
            raise EstimatorError(
                f"{source}: corrupt snapshot: {exc}"
            ) from None
        levels.append(level)
        stats.levels.append(level_stats)
    if reader.offset != len(reader.buf):
        raise EstimatorError(
            f"{source}: corrupt snapshot: "
            f"{len(reader.buf) - reader.offset} trailing bytes after overlay"
        )
    return MultiLevelOverlay(
        network,
        grid,
        fanout,
        TimeInterval(horizon_lo, horizon_hi),
        levels,
        stats,
    )


def _overlay_from_buffer(
    buf, network, *, source: str, copy: bool, owner: object | None
):
    view = memoryview(buf)
    if not view.readonly and not copy:
        view = view.toreadonly()
    reader = _BufReader(view, source)
    header = _parse_header(reader)
    if header["version"] != SNAPSHOT_VERSION_OVERLAY:
        raise EstimatorError(
            f"{source}: snapshot has no overlay section (version "
            f"{header['version']}); build one with `repro-allfp "
            "build-overlay`"
        )
    if header["fingerprint"] != network_fingerprint(network):
        raise EstimatorError(
            f"{source}: snapshot was built for a different network "
            "(fingerprint mismatch); re-run `repro-allfp build-overlay`"
        )
    swap = (header["byteorder"] == "big") != (sys.byteorder == "big")
    if swap:
        copy = True  # cannot view foreign-endian payloads in place
    _skip_arrays(reader, len(_ARRAY_SPECS))
    overlay = _parse_overlay_section(reader, network, swap, copy)
    if not copy:
        # The arrays are views over the caller's buffer: keep it mapped for
        # the overlay's lifetime (same idiom as EstimatorTables).
        overlay._buffer_owner = owner
    return overlay


def load_overlay(path: str | Path, network):
    """Read the overlay section of a v2 snapshot into private arrays.

    Verifies the fingerprint against ``network`` and raises
    :class:`EstimatorError` (one line) on a missing file, a version-1
    snapshot, truncation, or any corruption.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            reliability.fire("repro.estimators.snapshot.load")
            data = f.read()
    except OSError as exc:
        raise EstimatorError(f"cannot open estimator snapshot: {exc}") from None
    return _overlay_from_buffer(
        data, network, source=str(path), copy=True, owner=None
    )


def map_overlay(path: str | Path, network):
    """Zero-copy overlay load: shortcut arrays are views over an ``mmap``.

    N serve workers mapping the same snapshot share one page-cache copy of
    every level's shortcut functions; per-node edge objects still
    materialise lazily per process, but only for nodes a query touches.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            reliability.fire("repro.estimators.snapshot.load")
            mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:
        raise EstimatorError(f"cannot map estimator snapshot: {exc}") from None
    try:
        return _overlay_from_buffer(
            mapped, network, source=str(path), copy=False, owner=mapped
        )
    except BaseException:
        try:
            mapped.close()
        except BufferError:
            pass
        raise


#: Per-array byte cost used by the header-consistency check and
#: ``snapshot-info``: (name, typecode, count expression).
_ARRAY_SPECS = (
    ("node_ids", NODE_ID_TYPECODE),
    ("node_cell", CELL_TYPECODE),
    ("to_boundary", WEIGHT_TYPECODE),
    ("from_boundary", WEIGHT_TYPECODE),
    ("cell_pair", WEIGHT_TYPECODE),
)


def read_header(path: str | Path) -> dict:
    """Header fields of a snapshot plus size bookkeeping, for operators.

    Validates everything checkable without a network in hand: magic,
    version, metric code, grid/cell consistency, and that the file size
    matches what the header's counts imply.  Raises
    :class:`EstimatorError` (one line) on any corruption.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as f:
            head = f.read(_HEADER.size)
    except OSError as exc:
        raise EstimatorError(f"cannot open estimator snapshot: {exc}") from None
    reader = _BufReader(memoryview(head), str(path))
    header = _parse_header(reader)
    if header["cell_count"] != header["nx"] * header["ny"]:
        raise EstimatorError(
            f"{path}: corrupt snapshot: cell_count {header['cell_count']} "
            f"!= {header['nx']}x{header['ny']} grid"
        )
    counts = {
        "node_ids": header["node_count"],
        "node_cell": header["node_count"],
        "to_boundary": header["node_count"],
        "from_boundary": header["node_count"],
        "cell_pair": header["cell_count"] * header["cell_count"],
    }
    expected = _HEADER.size + sum(
        _ARRAY_HEADER.size + counts[name] * array(typecode).itemsize
        for name, typecode in _ARRAY_SPECS
    )
    if header["version"] == SNAPSHOT_VERSION:
        if size != expected:
            raise EstimatorError(
                f"{path}: corrupt snapshot: file is {size} bytes, header "
                f"implies {expected}"
            )
    else:
        header["overlay"] = _read_overlay_header(path, size, expected)
    header["fingerprint"] = header["fingerprint"].hex()
    header["arrays"] = len(_ARRAY_SPECS)
    header["file_bytes"] = size
    return header


def _read_overlay_header(path: Path, size: int, estimator_bytes: int) -> dict:
    """Walk a v2 file's overlay section for ``snapshot-info`` (no network).

    Validates structure and total size; returns the section summary.
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise EstimatorError(f"cannot open estimator snapshot: {exc}") from None
    reader = _BufReader(memoryview(data), str(path))
    reader.take(_HEADER.size, "header")
    _skip_arrays(reader, len(_ARRAY_SPECS))
    if reader.offset != estimator_bytes:
        raise EstimatorError(
            f"{path}: corrupt snapshot: estimator arrays occupy "
            f"{reader.offset - _HEADER.size} bytes, header implies "
            f"{estimator_bytes - _HEADER.size}"
        )
    (
        magic,
        level_count,
        base_nx,
        base_ny,
        fanout,
        horizon_lo,
        horizon_hi,
        build_seconds,
    ) = _OVERLAY_HEADER.unpack(
        bytes(reader.take(_OVERLAY_HEADER.size, "overlay header"))
    )
    if magic != OVERLAY_MAGIC:
        raise EstimatorError(
            f"{path}: corrupt snapshot: bad overlay section magic"
        )
    levels = []
    for k in range(level_count):
        (nx, ny, cells, boundary_nodes, level_seconds, searches) = (
            _LEVEL_HEADER.unpack(
                bytes(
                    reader.take(_LEVEL_HEADER.size, f"overlay level {k} header")
                )
            )
        )
        arrays = _skip_arrays(reader, len(_LEVEL_ARRAY_SPECS))
        for (name, want), (got, _n) in zip(_LEVEL_ARRAY_SPECS, arrays):
            if got != want:
                raise EstimatorError(
                    f"{path}: corrupt snapshot: overlay level {k} {name} "
                    f"has typecode {got!r}, expected {want!r}"
                )
        levels.append(
            {
                "level": k,
                "nx": nx,
                "ny": ny,
                "cells": cells,
                "boundary_nodes": boundary_nodes,
                "shortcuts": arrays[0][1],
                "breakpoints": arrays[3][1],
                "profile_searches": searches,
                "build_seconds": level_seconds,
            }
        )
    if reader.offset != size:
        raise EstimatorError(
            f"{path}: corrupt snapshot: file is {size} bytes, overlay "
            f"section implies {reader.offset}"
        )
    return {
        "levels": level_count,
        "base_grid": [base_nx, base_ny],
        "fanout": fanout,
        "horizon": [horizon_lo, horizon_hi],
        "build_seconds": build_seconds,
        "level_details": levels,
    }
