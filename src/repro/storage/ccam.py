"""The CCAM store: build a disk database from a network, serve and update it.

File layout (version 2; all regions page-aligned to one ``page_size``):

* file page 0 — fixed header (struct) identifying the page region,
* file pages ``1 .. P`` — one shared page region holding data pages (node
  records) and B+-tree pages (key = node id, value =
  ``region_page_no << 16 | slot``); a build writes data pages first and the
  bulk-loaded tree after them, updates may interleave freely,
* a JSON metadata blob after the last page: the pattern catalog, the
  calendar, and summary statistics.  Rewritten on :meth:`flush` when the
  store is writable (appending pages relocates it).

Queries open the file behind one LRU :class:`~repro.storage.buffer.BufferManager`
(data and index pages share it, as they would share a disk and buffer pool),
and implement the :class:`~repro.core.graph.Graph` protocol like the
in-memory network — plus ``incoming``, ``find_edge``, the paper's
``find_node`` / ``get_successors`` names and I/O counters.  The query
engines therefore run unchanged against disk, and their
``stats.page_reads`` report physical page I/O.

Opened with ``writable=True`` the store additionally supports the paper's
"appropriate operations to update the network" (§2.2): edge pattern
updates (the FATES-style traffic refresh), edge insertion/removal, and node
insertion/removal — node placement follows CCAM's connectivity heuristic
(prefer the page already holding the most graph neighbours).

Engines cache per-edge arrival functions, so construct engines *after*
applying updates (or construct fresh ones).
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Iterable, Literal

from .. import reliability
from ..exceptions import (
    EdgeNotFoundError,
    NetworkError,
    NodeNotFoundError,
    PageOverflowError,
    StorageError,
)
from ..network.model import CapeCodNetwork, Edge
from ..patterns.categories import Calendar, DayCategorySet
from ..patterns.schema import RoadClass
from ..patterns.speed import CapeCodPattern, DailySpeedPattern
from .bptree import BPlusTree
from .buffer import (
    DEFAULT_BUFFER_PAGES,
    DEFAULT_PAGE_SIZE,
    BufferManager,
    FilePageStore,
    MemoryPageStore,
)
from .pages import (
    NO_CLASS,
    NeighborRef,
    NodeRecord,
    decode_data_page,
    decode_record_at_slot,
    encode_data_page,
    encode_record,
    page_payload,
    record_size,
)
from .partition import clustering_quality, pack_connectivity, pack_hilbert

_MAGIC = b"CCAMRPR2"
_HEADER = struct.Struct("<8sIIIIIQQ")
# magic, version, page_size, region_pages, reserved, tree_root, meta_off, meta_len
_VERSION = 2

_CALENDAR_SAMPLE_DAYS = 366

Strategy = Literal["hilbert", "connectivity"]

_ROAD_CLASSES = list(RoadClass)


class CCAMStore:
    """A disk-backed CapeCod network (read-only by default).

    Create databases with :meth:`build`, open them with the constructor or
    :meth:`open`.  Instances are context managers; writable stores persist
    header/metadata on :meth:`flush` and :meth:`close`.
    """

    def __init__(
        self,
        path: str | Path,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        writable: bool = False,
    ) -> None:
        self._path = Path(path)
        self._writable = writable
        with open(self._path, "rb") as f:
            header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise StorageError(f"{path}: truncated CCAM header")
        (
            magic,
            version,
            page_size,
            region_pages,
            _reserved,
            tree_root,
            meta_off,
            meta_len,
        ) = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise StorageError(f"{path}: not a CCAM database")
        if version != _VERSION:
            raise StorageError(f"{path}: unsupported CCAM version {version}")
        self._page_size = page_size
        self._file_store = FilePageStore(
            self._path, page_size, 1 + region_pages, writable=writable
        )
        self._buffer = BufferManager(self._file_store, buffer_pages)
        self._region = _Region(self._buffer, base=1, writable=writable)
        self._tree = BPlusTree(self._region, page_size, root=tree_root)
        with open(self._path, "rb") as f:
            f.seek(meta_off)
            meta = json.loads(f.read(meta_len).decode("utf-8"))
        self._patterns = [_pattern_from_json(p) for p in meta["patterns"]]
        self._pattern_ids = {p: i for i, p in enumerate(self._patterns)}
        categories = DayCategorySet(meta["categories"])
        self._calendar = Calendar.periodic(categories, meta["calendar_days"])
        self._calendar_days = meta["calendar_days"]
        self._node_count = meta["node_count"]
        self._edge_count = meta["edge_count"]
        self._max_speed = meta["max_speed"]
        self._min_speed = meta["min_speed"]
        self.build_info = meta.get("build", {})
        self._dirty = False
        # target -> source ids, built by the first incoming() call.
        self._transpose: dict[int, list[int]] | None = None

    @classmethod
    def open(
        cls,
        path: str | Path,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        writable: bool = False,
    ) -> "CCAMStore":
        """Alias of the constructor, for symmetry with :meth:`build`."""
        return cls(path, buffer_pages, writable)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network: CapeCodNetwork,
        path: str | Path,
        page_size: int = DEFAULT_PAGE_SIZE,
        strategy: Strategy = "connectivity",
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
    ) -> "CCAMStore":
        """Write a CCAM database for ``network`` and open it (read-only)."""
        pattern_ids: dict[CapeCodPattern, int] = {}
        patterns: list[CapeCodPattern] = []

        def pattern_id(p: CapeCodPattern) -> int:
            idx = pattern_ids.get(p)
            if idx is None:
                idx = len(patterns)
                pattern_ids[p] = idx
                patterns.append(p)
            return idx

        def class_id(road_class: RoadClass | None) -> int:
            if road_class is None:
                return NO_CLASS
            return _ROAD_CLASSES.index(road_class)

        records: dict[int, bytes] = {}
        for node in network.nodes():
            neighbors = tuple(
                NeighborRef(
                    e.target, e.distance, pattern_id(e.pattern), class_id(e.road_class)
                )
                for e in network.outgoing(node.id)
            )
            records[node.id] = encode_record(
                NodeRecord(node.id, node.x, node.y, neighbors)
            )

        payload = page_payload(page_size)
        size_of = lambda nid: len(records[nid])
        if strategy == "hilbert":
            assignment = pack_hilbert(network, size_of, payload)
        elif strategy == "connectivity":
            assignment = pack_connectivity(network, size_of, payload)
        else:
            raise StorageError(f"unknown packing strategy {strategy!r}")

        store = MemoryPageStore(page_size)
        directory: list[tuple[int, int]] = []  # (node_id, page<<16|slot)
        for members in assignment:
            page_no = store.allocate()
            store.write(
                page_no,
                encode_data_page([records[nid] for nid in members], page_size),
            )
            for slot, nid in enumerate(members):
                if slot > 0xFFFF:
                    raise StorageError("slot overflow")
                directory.append((nid, (page_no << 16) | slot))
        directory.sort()
        data_pages = store.page_count

        tree = BPlusTree.bulk_load(store, page_size, directory)

        calendar = network.calendar
        meta = {
            "patterns": [_pattern_to_json(p) for p in patterns],
            "categories": list(calendar.categories.names),
            "calendar_days": [
                calendar.category_for_day(d)
                for d in range(_CALENDAR_SAMPLE_DAYS)
            ],
            "node_count": network.node_count,
            "edge_count": network.edge_count,
            "max_speed": network.max_speed(),
            "min_speed": network.min_speed(),
            "build": {
                "strategy": strategy,
                "clustering_quality": clustering_quality(network, assignment),
                "data_pages": data_pages,
                "tree_pages": store.page_count - data_pages,
            },
        }
        meta_blob = json.dumps(meta).encode("utf-8")
        meta_off = (1 + store.page_count) * page_size
        header = _HEADER.pack(
            _MAGIC,
            _VERSION,
            page_size,
            store.page_count,
            0,
            tree.root_page,
            meta_off,
            len(meta_blob),
        )
        with open(path, "wb") as f:
            f.write(header.ljust(page_size, b"\x00"))
            store.dump(f)
            f.write(meta_blob)
        return cls(path, buffer_pages)

    # ------------------------------------------------------------------
    # Accessor surface (shared with CapeCodNetwork)
    # ------------------------------------------------------------------
    @property
    def calendar(self) -> Calendar:
        return self._calendar

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def writable(self) -> bool:
        return self._writable

    def _locator(self, node_id: int) -> tuple[int, int]:
        locator = self._tree.get(node_id)
        if locator is None:
            raise NodeNotFoundError(node_id)
        return (locator >> 16, locator & 0xFFFF)

    def find_node(self, node_id: int) -> NodeRecord:
        """The paper's ``FindNode``: B+-tree lookup, then one data-page read."""
        if reliability.is_active():
            reliability.fire("repro.storage.ccam.find_node")
        page_no, slot = self._locator(node_id)
        data = self._region.read(page_no)
        return decode_record_at_slot(data, slot)

    def location(self, node_id: int) -> tuple[float, float]:
        return self.find_node(node_id).location

    def euclidean(self, a: int, b: int) -> float:
        """Euclidean distance between two nodes (miles)."""
        ax, ay = self.location(a)
        bx, by = self.location(b)
        return math.hypot(ax - bx, ay - by)

    def _edge_from_ref(self, source: int, ref: NeighborRef) -> Edge:
        return Edge(
            source,
            ref.target,
            ref.distance,
            self._patterns[ref.pattern_id],
            None if ref.class_id == NO_CLASS else _ROAD_CLASSES[ref.class_id],
        )

    def outgoing(self, node_id: int) -> list[Edge]:
        """The paper's ``GetSuccessor``: the node's adjacency as edges."""
        record = self.find_node(node_id)
        return [self._edge_from_ref(node_id, ref) for ref in record.neighbors]

    get_successors = outgoing

    def outgoing_from(self, node_id: int, prev: int | None) -> list[Edge]:
        return self.outgoing(node_id)

    def incoming(self, node_id: int) -> list[Edge]:
        """Edges into a node, by ascending source id, read from the pages.

        Records hold outgoing adjacency only, so the first call scans every
        record into an id-level transpose (target -> source ids); topology
        mutators drop it, pattern updates need not — edges are
        materialised from the current records on every call.
        """
        self._locator(node_id)
        if self._transpose is None:
            transpose: dict[int, list[int]] = {}
            for source in self.node_ids():
                for ref in self.find_node(source).neighbors:
                    transpose.setdefault(ref.target, []).append(source)
            self._transpose = transpose
        return [
            self.find_edge(source, node_id)
            for source in self._transpose.get(node_id, ())
        ]

    def find_edge(self, source: int, target: int) -> Edge:
        for edge in self.outgoing(source):
            if edge.target == target:
                return edge
        raise EdgeNotFoundError(source, target)

    def max_speed(self) -> float:
        return self._max_speed

    def min_speed(self) -> float:
        return self._min_speed

    def node_ids(self):
        """All node ids in key order (a full B+-tree leaf scan)."""
        return (key for key, _v in self._tree.items())

    # ------------------------------------------------------------------
    # Update operations (§2.2: "operations to update the network")
    # ------------------------------------------------------------------
    def _require_writable(self) -> None:
        if not self._writable:
            raise StorageError(
                "store opened read-only; open with writable=True to update"
            )

    def _validate_pattern(self, pattern: CapeCodPattern) -> None:
        """Reject malformed patterns *before* any page or intern mutation.

        A bad pattern must surface as one typed :class:`NetworkError` —
        never a half-written record or a poisoned pattern table.
        """
        if not isinstance(pattern, CapeCodPattern):
            raise NetworkError(
                f"expected a CapeCodPattern, got {type(pattern).__name__}"
            )
        if not pattern.covers(self._calendar.categories):
            raise NetworkError(
                f"pattern categories {pattern.categories} do not cover the "
                f"store calendar {tuple(self._calendar.categories.names)}"
            )
        if pattern.min_speed() <= 0:
            raise NetworkError(
                f"pattern has non-positive speed {pattern.min_speed():g} mpm"
            )

    def _pattern_id(self, pattern: CapeCodPattern) -> int:
        idx = self._pattern_ids.get(pattern)
        if idx is None:
            idx = len(self._patterns)
            self._patterns.append(pattern)
            self._pattern_ids[pattern] = idx
            self._max_speed = max(self._max_speed, pattern.max_speed())
            self._min_speed = min(self._min_speed, pattern.min_speed())
        return idx

    def _page_records(self, page_no: int) -> list[NodeRecord]:
        return decode_data_page(self._region.read(page_no))

    def _page_free(self, page_no: int) -> int:
        used = sum(
            record_size(len(r.neighbors)) for r in self._page_records(page_no)
        )
        return page_payload(self._page_size) - used

    def _write_page(self, page_no: int, records: list[NodeRecord]) -> None:
        """Rewrite a data page and refresh every member's tree locator."""
        image = encode_data_page(
            [encode_record(r) for r in records], self._page_size
        )
        self._region.write(page_no, image)
        for slot, record in enumerate(records):
            self._tree.insert(record.node_id, (page_no << 16) | slot)
        self._dirty = True

    def _mutate_record(
        self, node_id: int, new_neighbors: tuple[NeighborRef, ...]
    ) -> None:
        """Replace a node's adjacency, relocating its record on overflow."""
        page_no, slot = self._locator(node_id)
        records = self._page_records(page_no)
        old = records[slot]
        updated = NodeRecord(old.node_id, old.x, old.y, new_neighbors)
        records[slot] = updated
        try:
            self._write_page(page_no, records)
            return
        except PageOverflowError:
            pass
        # Evict the grown record and place it elsewhere.
        del records[slot]
        self._write_page(page_no, records)
        self._place_record(updated, exclude_page=page_no)

    def _place_record(
        self, record: NodeRecord, exclude_page: int | None = None
    ) -> None:
        """CCAM's connectivity placement: prefer the page already holding
        the most of the record's graph neighbours, given free space."""
        needed = record_size(len(record.neighbors))
        if needed > page_payload(self._page_size):
            raise PageOverflowError(
                f"record of node {record.node_id} exceeds the page payload"
            )
        counts: dict[int, int] = {}
        for ref in record.neighbors:
            locator = self._tree.get(ref.target)
            if locator is None:
                continue
            counts[locator >> 16] = counts.get(locator >> 16, 0) + 1
        for page_no, _n in sorted(
            counts.items(), key=lambda item: -item[1]
        ):
            if page_no == exclude_page:
                continue
            if self._page_free(page_no) >= needed:
                records = self._page_records(page_no)
                records.append(record)
                self._write_page(page_no, records)
                return
        # No connected page has room: open a fresh data page.
        page_no = self._region.allocate()
        self._write_page(page_no, [record])

    def update_edge_pattern(
        self, source: int, target: int, pattern: CapeCodPattern
    ) -> None:
        """Replace one edge's speed pattern (a traffic-knowledge refresh)."""
        self._require_writable()
        self._validate_pattern(pattern)
        record = self.find_node(source)
        if not any(ref.target == target for ref in record.neighbors):
            raise EdgeNotFoundError(source, target)
        # Only now intern the pattern: a rejected update leaves the
        # pattern table exactly as it was.
        pattern_idx = self._pattern_id(pattern)
        new_refs = tuple(
            NeighborRef(ref.target, ref.distance, pattern_idx, ref.class_id)
            if ref.target == target
            else ref
            for ref in record.neighbors
        )
        self._mutate_record(source, new_refs)

    def insert_edge(
        self,
        source: int,
        target: int,
        distance: float,
        pattern: CapeCodPattern,
        road_class: RoadClass | None = None,
    ) -> None:
        """Add a directed edge between existing nodes."""
        self._require_writable()
        self._validate_pattern(pattern)
        self._locator(target)  # target must exist
        record = self.find_node(source)
        if any(ref.target == target for ref in record.neighbors):
            raise NetworkError(f"duplicate edge {source}->{target}")
        if distance < 0:
            raise NetworkError("negative edge length")
        class_id = NO_CLASS if road_class is None else _ROAD_CLASSES.index(road_class)
        new_refs = record.neighbors + (
            NeighborRef(target, distance, self._pattern_id(pattern), class_id),
        )
        self._mutate_record(source, new_refs)
        self._edge_count += 1
        self._transpose = None

    def remove_edge(self, source: int, target: int) -> None:
        """Remove a directed edge."""
        self._require_writable()
        record = self.find_node(source)
        new_refs = tuple(
            ref for ref in record.neighbors if ref.target != target
        )
        if len(new_refs) == len(record.neighbors):
            raise EdgeNotFoundError(source, target)
        self._mutate_record(source, new_refs)
        self._edge_count -= 1
        self._transpose = None

    def insert_node(
        self,
        node_id: int,
        x: float,
        y: float,
        edges: Iterable[tuple[int, float, CapeCodPattern, RoadClass | None]] = (),
    ) -> None:
        """Add a node (with optional outgoing edges) via CCAM placement."""
        self._require_writable()
        if self._tree.get(node_id) is not None:
            raise NetworkError(f"node {node_id} already exists")
        refs = []
        for target, distance, pattern, road_class in edges:
            self._validate_pattern(pattern)
            self._locator(target)
            class_id = (
                NO_CLASS if road_class is None else _ROAD_CLASSES.index(road_class)
            )
            refs.append(
                NeighborRef(target, distance, self._pattern_id(pattern), class_id)
            )
        record = NodeRecord(node_id, float(x), float(y), tuple(refs))
        self._place_record(record)
        self._node_count += 1
        self._edge_count += len(refs)
        self._transpose = None

    def remove_node(self, node_id: int) -> None:
        """Remove a node; its outgoing edges go with it.

        The caller must first remove edges *pointing at* the node (the
        store persists no reverse index, mirroring the paper's storage model).
        """
        self._require_writable()
        page_no, slot = self._locator(node_id)
        records = self._page_records(page_no)
        removed = records.pop(slot)
        self._write_page(page_no, records)
        self._tree.delete(node_id)
        self._node_count -= 1
        self._edge_count -= len(removed.neighbors)
        self._dirty = True
        self._transpose = None

    # ------------------------------------------------------------------
    # I/O accounting
    # ------------------------------------------------------------------
    @property
    def page_reads(self) -> int:
        """Physical page reads since open / the last reset."""
        return self._buffer.physical_reads

    @property
    def page_writes(self) -> int:
        return self._buffer.physical_writes

    @property
    def logical_reads(self) -> int:
        return self._buffer.logical_reads

    @property
    def buffer_hit_rate(self) -> float:
        return self._buffer.hit_rate

    def reset_io_counters(self) -> None:
        self._buffer.reset_counters()

    def drop_buffer(self) -> None:
        """Empty the buffer pool (cold-cache experiments)."""
        self._buffer.invalidate()

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Persist header and metadata after updates."""
        if not self._writable or not self._dirty:
            return
        meta = {
            "patterns": [_pattern_to_json(p) for p in self._patterns],
            "categories": list(self._calendar.categories.names),
            "calendar_days": self._calendar_days,
            "node_count": self._node_count,
            "edge_count": self._edge_count,
            "max_speed": self._max_speed,
            "min_speed": self._min_speed,
            "build": self.build_info,
        }
        blob = json.dumps(meta).encode("utf-8")
        region_pages = self._file_store.page_count - 1
        meta_off = (1 + region_pages) * self._page_size
        header = _HEADER.pack(
            _MAGIC,
            _VERSION,
            self._page_size,
            region_pages,
            0,
            self._tree.root_page,
            meta_off,
            len(blob),
        )
        self._file_store.write(0, header)
        self._file_store.flush()
        with open(self._path, "r+b") as f:
            f.seek(meta_off)
            f.write(blob)
            f.truncate(meta_off + len(blob))
        self._dirty = False

    def close(self) -> None:
        self.flush()
        self._file_store.close()

    def __enter__(self) -> "CCAMStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class _Region:
    """Page-number translation onto the shared buffer (base offset)."""

    __slots__ = ("_buffer", "_base", "_writable")

    def __init__(
        self, buffer: BufferManager, base: int, writable: bool = False
    ) -> None:
        self._buffer = buffer
        self._base = base
        self._writable = writable

    def read(self, page_no: int) -> bytes:
        return self._buffer.read(self._base + page_no)

    def write(self, page_no: int, data: bytes) -> None:
        if not self._writable:
            raise StorageError("CCAM store opened read-only")
        self._buffer.write(self._base + page_no, data)

    def allocate(self) -> int:
        if not self._writable:
            raise StorageError("CCAM store opened read-only")
        return self._buffer.allocate() - self._base


def _pattern_to_json(pattern: CapeCodPattern) -> dict:
    return {
        category: list(pattern.daily(category).pieces)
        for category in pattern.categories
    }


def _pattern_from_json(data: dict) -> CapeCodPattern:
    return CapeCodPattern(
        {
            category: DailySpeedPattern([tuple(p) for p in pieces])
            for category, pieces in data.items()
        }
    )
