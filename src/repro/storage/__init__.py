"""CCAM — the Connectivity-Clustered Access Method substrate (system S6).

The paper stores the road network on disk with CCAM [18]: node records are
clustered into fixed-size pages following the Hilbert one-dimensional
ordering of node locations (heuristically preserving connectivity), and a
B+-tree over node ids locates any node's page.  The query algorithms access
the network exclusively through ``find_node`` / ``get_successors``, so page
I/O is measurable.

This package is a from-scratch reimplementation:

* :mod:`~repro.storage.hilbert` — Hilbert space-filling curve.
* :mod:`~repro.storage.partition` — packing node sequences into pages
  (Hilbert-sequential and connectivity-BFS strategies).
* :mod:`~repro.storage.pages` — binary page/record codecs.
* :mod:`~repro.storage.bptree` — a page-based B+-tree (insert / search /
  range scan / lazy delete).
* :mod:`~repro.storage.buffer` — LRU buffer manager with I/O counters.
* :mod:`~repro.storage.ccam` — the store: build from a network, open from
  disk, and the :class:`~repro.core.graph.Graph` protocol the engines read.
"""

from .hilbert import hilbert_index, hilbert_value
from .buffer import BufferManager, MemoryPageStore, FilePageStore
from .bptree import BPlusTree
from .partition import pack_hilbert, pack_connectivity, clustering_quality
from .ccam import CCAMStore

__all__ = [
    "hilbert_index",
    "hilbert_value",
    "BufferManager",
    "MemoryPageStore",
    "FilePageStore",
    "BPlusTree",
    "pack_hilbert",
    "pack_connectivity",
    "clustering_quality",
    "CCAMStore",
]
