"""Hierarchical fastest-path computation (system S15 in DESIGN.md).

§6.1 of the paper argues its algorithm "can easily scale in larger networks
by employing hierarchical network partitioning [9, 7, 8, 16] … applying our
algorithm few more times (twice at each level of the hierarchy and once at
the top level)".  This package implements that scheme once, for any number
of levels:

* the network is partitioned into nested grid *cells* (the same grid
  machinery as the boundary-node estimator; ``fanout × fanout`` cells merge
  into one super-cell per level),
* for every cell of every level, exact earliest-arrival **shortcut
  functions** between its boundary nodes are customized bottom-up with
  profile search restricted to the cell (:class:`MultiLevelOverlay`,
  ``overlay.py``) and kept in flat arrays; a live update recomputes no
  row, it marks the cells holding a changed edge stale,
* a query runs the ordinary IntAllFastestPaths engine over a *hybrid query
  graph* (:class:`OverlayEngine`, ``engine.py``): the source and target
  base cells and the stale cells at full detail, everything else
  collapsed — at the coarsest level that contains neither an endpoint nor
  a changed edge — to boundary nodes connected by crossing edges and
  :class:`ShortcutEdge` shortcuts.

``MultiLevelOverlay.build(network, levels=1)`` is the paper's two-level
case (fragments plus one top-level search); more levels let the search
climb instead of flooding the flat graph at metro scale.

Travel times are exact (each shortcut is the pointwise minimum over all
intra-cell paths); reported paths contain shortcut hops, which
:meth:`OverlayEngine.expand_path` re-expands to concrete road segments for
any departure instant.
"""

from .overlay import MultiLevelOverlay, OverlayLevel, OverlayStats, ShortcutEdge
from .engine import OverlayEngine

__all__ = [
    "MultiLevelOverlay",
    "OverlayLevel",
    "OverlayStats",
    "OverlayEngine",
    "ShortcutEdge",
]
