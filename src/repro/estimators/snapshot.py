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

There is one reader, :class:`Snapshot`: the file is ``mmap``-ed read-only
and walked once, by the layout table the writer uses, into a directory of
sections; tables, overlay and the operator description are three reads off
that directory.  A file that does not walk end to end is refused whole.
"""

from __future__ import annotations

import hashlib
import json
import math
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
#: The array layout, shared by writer and reader: per section, the stores in
#: file order as (attribute name, typecode).
_LAYOUT = {
    "tables": (
        ("node_ids", NODE_ID_TYPECODE),
        ("node_cell", CELL_TYPECODE),
        ("to_boundary", WEIGHT_TYPECODE),
        ("from_boundary", WEIGHT_TYPECODE),
        ("cell_pair", WEIGHT_TYPECODE),
    ),
    "level": (("src", "q"), ("dst", "q"), ("off", "q"), ("xs", "d"), ("ys", "d")),
}

#: Names of the fixed header's fields, in ``_HEADER`` order.
_HEADER_FIELDS = (
    "magic",
    "version",
    "byteorder",
    "metric",
    "nx",
    "ny",
    "node_count",
    "cell_count",
    "v_max",
    "precompute_seconds",
    "fingerprint",
)
_METRIC_CODES = {"time": 0, "distance": 1}
_METRIC_NAMES = {code: name for name, code in _METRIC_CODES.items()}
_BYTEORDER_NAMES = {0: "little", 1: "big"}

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
    # mapped EstimatorTables carries.
    typecode = getattr(arr, "typecode", None) or arr.format
    out.write(_ARRAY_HEADER.pack(ord(typecode), arr.itemsize, len(arr)))
    out.write(arr.tobytes())


def _write_section(out, section: str, holder) -> None:
    for name, _typecode in _LAYOUT[section]:
        reliability.fire("repro.estimators.snapshot.save")
        _write_array(out, getattr(holder, name))


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
        _write_section(out, "level", level)


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
    An overlay with stale cells is refused: a live update changed edges
    inside them, so its rows no longer match the network the fingerprint
    names.
    """
    if len(fingerprint) != 32:
        raise EstimatorError("network fingerprint must be a 32-byte sha256")
    if overlay is not None and any(overlay.stale):
        raise EstimatorError(
            "overlay has stale cells (edges changed since its build); "
            "rebuild it before saving"
        )
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
            _write_section(out, "tables", tables)
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


class Snapshot:
    """One RPRESNAP file, mapped read-only and walked once.

    Opening checks everything that can be checked without a network in
    hand — magic, version, byteorder and metric codes, every array header
    against :data:`_LAYOUT`, array sizes against the header's counts, the
    overlay header's plausibility, and that the sections end where the file
    does — and raises :class:`EstimatorError` (one line; never a
    ``struct.error`` or an unpickling error) on a missing, truncated or
    corrupt file.  What it leaves is the section directory: ``header``
    (the fixed fields), ``arrays`` (the five table stores by name),
    ``overlay_header`` (``None`` in a version-1 file) and ``levels`` (per
    overlay level, its header fields and its five stores by name).

    The stores are typed read-only views over the mapping, so every process
    that opens the same file shares one page-cache copy of it; the objects
    read off the directory keep the mapping alive.  The one exception is a
    file written on a platform of the other byteorder (the header says so),
    whose payloads cannot be viewed in place: its stores are private
    byte-swapped arrays.
    """

    def __init__(self, path: str | Path) -> None:
        self.source = str(path)
        try:
            with open(path, "rb") as f:
                # Payload-free fault point: a "corrupt" spec here raises loudly
                # instead of mutating bytes — a flipped byte inside e.g. v_max
                # would pass every header check and silently break admissibility,
                # which is precisely the outcome injection must never create.
                reliability.fire("repro.estimators.snapshot.load")
                # An empty file cannot be mapped; it walks as a truncated one.
                empty = os.fstat(f.fileno()).st_size == 0
                self._mapping = b"" if empty else mmap.mmap(
                    f.fileno(), 0, access=mmap.ACCESS_READ
                )
        except (OSError, ValueError) as exc:
            raise EstimatorError(f"cannot open estimator snapshot: {exc}") from None
        self._buf = memoryview(self._mapping)
        self._offset = 0
        self.header = self._walk_header()
        self._swap = self.header["byteorder"] != sys.byteorder
        self.arrays = self._walk_arrays("tables", "")
        node_count, cell_count = self.header["node_count"], self.header["cell_count"]
        if cell_count != self.header["nx"] * self.header["ny"] or any(
            len(store) != (cell_count**2 if name == "cell_pair" else node_count)
            for name, store in self.arrays.items()
        ):
            raise self._corrupt("array sizes disagree")
        self.overlay_header, self.levels = None, []
        if self.header["version"] == SNAPSHOT_VERSION_OVERLAY:
            self._walk_overlay()
        if self._offset != len(self._buf):
            raise self._corrupt(
                f"file is {len(self._buf)} bytes, its sections end at {self._offset}"
            )

    # -- the walk ------------------------------------------------------
    def _corrupt(self, what: str) -> EstimatorError:
        return EstimatorError(f"{self.source}: corrupt snapshot: {what}")

    def _take(self, count: int, what: str) -> memoryview:
        end = self._offset + count
        if end > len(self._buf):
            raise EstimatorError(
                f"{self.source}: truncated estimator snapshot "
                f"(while reading {what})"
            )
        view = self._buf[self._offset:end]
        self._offset = end
        return view

    def _walk_header(self) -> dict:
        source = self.source
        header = dict(
            zip(_HEADER_FIELDS, _HEADER.unpack(self._take(_HEADER.size, "header")))
        )
        if header.pop("magic") != MAGIC:
            raise EstimatorError(f"{source}: not an estimator snapshot")
        if header["version"] not in _SUPPORTED_VERSIONS:
            raise EstimatorError(
                f"{source}: unsupported snapshot version {header['version']} "
                f"(this build reads versions "
                f"{' and '.join(str(v) for v in _SUPPORTED_VERSIONS)})"
            )
        if header["metric"] not in _METRIC_NAMES:
            raise self._corrupt(f"unknown metric code {header['metric']}")
        if header["byteorder"] not in _BYTEORDER_NAMES:
            raise self._corrupt(f"unknown byteorder code {header['byteorder']}")
        v_max, prep_secs = header["v_max"], header["precompute_seconds"]
        if not (0.0 <= v_max < math.inf and 0.0 <= prep_secs < math.inf):
            raise self._corrupt(
                f"implausible header (v_max {v_max}, precompute {prep_secs}s)"
            )
        header["metric"] = _METRIC_NAMES[header["metric"]]
        header["byteorder"] = _BYTEORDER_NAMES[header["byteorder"]]
        return header

    def _walk_arrays(self, section: str, prefix: str) -> dict:
        """The stores of one section, in layout order, by name."""
        source = self.source
        stores = {}
        for name, expected in _LAYOUT[section]:
            what = prefix + name
            typecode_byte, itemsize, count = _ARRAY_HEADER.unpack(
                self._take(_ARRAY_HEADER.size, f"{what} header")
            )
            typecode = chr(typecode_byte)
            if typecode != expected:
                raise self._corrupt(
                    f"{what} has typecode {typecode!r}, expected {expected!r}"
                )
            if itemsize != array(typecode).itemsize:
                raise EstimatorError(
                    f"{source}: snapshot written with {itemsize}-byte "
                    f"{typecode!r} items; this platform uses "
                    f"{array(typecode).itemsize}"
                )
            payload = self._take(itemsize * count, what)
            if self._swap:
                store = array(typecode)
                store.frombytes(payload)
                store.byteswap()
            else:
                store = payload.cast(typecode)
            stores[name] = store
        return stores

    def _walk_overlay(self) -> None:
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
            self._take(_OVERLAY_HEADER.size, "overlay header")
        )
        if magic != OVERLAY_MAGIC:
            raise self._corrupt("bad overlay section magic")
        if (
            level_count < 1
            or fanout < 2
            or base_nx < 1
            or base_ny < 1
            or not -math.inf < horizon_lo <= horizon_hi < math.inf
            or not 0.0 <= build_seconds < math.inf
        ):
            raise self._corrupt(
                "implausible overlay header "
                f"({level_count} levels, {base_nx}x{base_ny} grid, "
                f"fanout {fanout}, horizon [{horizon_lo}, {horizon_hi}], "
                f"build {build_seconds}s)"
            )
        self.overlay_header = {
            "levels": level_count,
            "base_grid": [base_nx, base_ny],
            "fanout": fanout,
            "horizon": [horizon_lo, horizon_hi],
            "build_seconds": build_seconds,
        }
        for k in range(level_count):
            nx, ny, cells, boundary_nodes, level_seconds, searches = (
                _LEVEL_HEADER.unpack(
                    self._take(_LEVEL_HEADER.size, f"overlay level {k} header")
                )
            )
            stores = self._walk_arrays("level", f"overlay level {k} ")
            fields = {
                "level": k,
                "nx": nx,
                "ny": ny,
                "cells": cells,
                "boundary_nodes": boundary_nodes,
                "shortcuts": len(stores["src"]),
                "breakpoints": len(stores["xs"]),
                "profile_searches": searches,
                "build_seconds": level_seconds,
            }
            self.levels.append((fields, stores))

    # -- the three reads -----------------------------------------------
    def _check_fingerprint(self, fingerprint: bytes, verb: str) -> None:
        if self.header["fingerprint"] != fingerprint:
            raise EstimatorError(
                f"{self.source}: snapshot was built for a different network "
                f"(fingerprint mismatch); re-run `repro-allfp {verb}`"
            )

    def tables(self, fingerprint: bytes) -> EstimatorTables:
        """The boundary tables, refused unless the file was built for the
        network that hashes to ``fingerprint``."""
        self._check_fingerprint(fingerprint, "precompute")
        header = self.header
        return EstimatorTables(
            nx=header["nx"],
            ny=header["ny"],
            metric=header["metric"],
            v_max=header["v_max"],
            precompute_seconds=header["precompute_seconds"],
            loaded_from_snapshot=True,
            _buffer_owner=None if self._swap else self._mapping,
            **self.arrays,
        )

    def overlay(self, network, fingerprint: bytes):
        """The overlay section as a ``MultiLevelOverlay`` over ``network``,
        whose hash the caller passes as ``fingerprint``."""
        source = self.source
        if self.overlay_header is None:
            raise EstimatorError(
                f"{source}: snapshot has no overlay section (version "
                f"{self.header['version']}); build one with `repro-allfp "
                "build-overlay`"
            )
        self._check_fingerprint(fingerprint, "build-overlay")
        # Deferred import: the hierarchy package imports this module.
        from ..exceptions import QueryError
        from ..hierarchy.overlay import (
            LevelStats,
            MultiLevelOverlay,
            OverlayLevel,
            OverlayStats,
        )
        from ..timeutil import TimeInterval
        from .grid import GridPartition

        meta = self.overlay_header
        stats = OverlayStats(build_seconds=meta["build_seconds"])
        levels = []
        for fields, stores in self.levels:
            level_stats = LevelStats(**fields)
            try:
                level = OverlayLevel(
                    fields["level"],
                    fields["nx"],
                    fields["ny"],
                    *(stores[name] for name, _typecode in _LAYOUT["level"]),
                    level_stats,
                )
            except QueryError as exc:
                raise self._corrupt(str(exc)) from None
            levels.append(level)
            stats.levels.append(level_stats)
        overlay = MultiLevelOverlay(
            network,
            GridPartition(network, *meta["base_grid"]),
            meta["fanout"],
            TimeInterval(*meta["horizon"]),
            levels,
            stats,
        )
        if not self._swap:
            # The stores are views: keep the file mapped for the overlay's
            # lifetime (same idiom as EstimatorTables).
            overlay._buffer_owner = self._mapping
        return overlay

    def describe(self) -> dict:
        """Header fields plus size bookkeeping, for operators
        (``snapshot-info``); ``"overlay"`` is present for a version-2 file."""
        doc = dict(self.header)
        doc["fingerprint"] = doc["fingerprint"].hex()
        doc["arrays"] = len(self.arrays)
        doc["file_bytes"] = len(self._buf)
        if self.overlay_header is not None:
            doc["overlay"] = {
                **self.overlay_header,
                "level_details": [fields for fields, _stores in self.levels],
            }
        return doc


def map_tables(path: str | Path, fingerprint: bytes) -> EstimatorTables:
    """Open ``path`` and read its boundary tables (see :class:`Snapshot`)."""
    return Snapshot(path).tables(fingerprint)


def map_overlay(path: str | Path, network):
    """Open ``path`` and read its overlay section (see :class:`Snapshot`).

    N serve workers mapping the same snapshot share one page-cache copy of
    every level's shortcut functions; per-node edge objects still
    materialise lazily per process, but only for nodes a query touches.
    """
    return Snapshot(path).overlay(network, network_fingerprint(network))
