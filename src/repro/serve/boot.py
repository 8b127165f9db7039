"""The one boot path: network + customized data → :class:`AllFPService`.

The §5 boundary tables and the §6.1 overlay are customized once and are
one artifact (an RPRESNAP file, or the objects just built); the query side
only *opens* it.  :func:`open_service` is that opening, and the only place
under ``src/repro`` that constructs the serving class — the CLI calls it for
``--shards 0`` and every shard worker calls it after the fork, so a worker
is literally the single-process service, opened from files.
"""

from __future__ import annotations

from pathlib import Path

from ..estimators.boundary import BoundaryNodeEstimator
from ..estimators.naive import NaiveEstimator
from ..estimators import snapshot as snap
from ..exceptions import ReproError
from ..network.io import load_network
from ..storage.ccam import CCAMStore
from .service import AllFPService, ServiceConfig


def open_network(path):
    """A ``.ccam`` database as a :class:`CCAMStore`, anything else as the
    in-memory network.  Every process opens its own store: a .ccam file
    object shared across a fork would race on its offset."""
    if Path(path).suffix == ".ccam":
        return CCAMStore.open(path)
    return load_network(path)


def open_service(
    network,
    estimator=None,
    config: ServiceConfig | None = None,
    *,
    snapshot_path=None,
    overlay=None,
    overlay_path=None,
) -> tuple[AllFPService, dict]:
    """Open a service over ``network``; returns ``(service, boot_info)``.

    Per artifact, a path wins over an object: ``snapshot_path`` /
    ``overlay_path`` are ``mmap``-ed read-only (zero-copy, one page-cache
    image however many processes map them), otherwise the ``estimator`` /
    ``overlay`` object handed in is used as is.  A typed load failure never
    keeps the service down: a bad table file falls back to the naive bound,
    a bad overlay section to the flat engine — both still exact — and the
    service is flagged ``degraded``.

    ``boot_info`` says how each artifact arrived: ``tables_mode`` is one of
    ``none`` / ``naive`` / ``inherited`` / ``mmap`` / ``fallback``,
    ``overlay_mode`` one of ``none`` / ``inherited`` / ``mmap`` /
    ``fallback``, and ``errors`` lists the load failures, one line each.
    """
    info = {"tables_mode": "none", "overlay_mode": "none", "errors": []}
    degraded = False
    # One file named by both paths is opened, walked and fingerprint-checked
    # against one hash of the network.
    reader = fingerprint = None
    if snapshot_path is not None:
        try:
            fingerprint = snap.network_fingerprint(network)
            reader = snap.Snapshot(snapshot_path)
            tables = reader.tables(fingerprint)
            estimator = BoundaryNodeEstimator(
                network, tables.nx, tables.ny, tables.metric, tables=tables
            )
            info["tables_mode"] = "mmap"
        except ReproError as exc:
            estimator, degraded = None, True
            info["tables_mode"] = "fallback"
            info["errors"].append(f"boundary estimator unavailable ({exc})")
    elif isinstance(estimator, NaiveEstimator):
        # The service bounds queries with its own naive estimator over
        # ``network``, never one read off another network object.
        info["tables_mode"] = "naive"
    elif estimator is not None:
        info["tables_mode"] = "inherited"
    if overlay_path is not None:
        try:
            fingerprint = fingerprint or snap.network_fingerprint(network)
            if reader is None or Path(overlay_path) != Path(snapshot_path):
                reader = snap.Snapshot(overlay_path)
            overlay = reader.overlay(network, fingerprint)
            info["overlay_mode"] = "mmap"
        except ReproError as exc:
            overlay, degraded = None, True
            info["overlay_mode"] = "fallback"
            info["errors"].append(f"overlay unavailable ({exc})")
    elif overlay is not None:
        info["overlay_mode"] = "inherited"
    service = AllFPService(
        network, estimator, config, degraded=degraded, overlay=overlay
    )
    return service, info
