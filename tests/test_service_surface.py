"""One conformance suite for the one service surface.

``AllFPService``, a 1-shard and a 2-shard ``ShardedService`` all implement
:class:`repro.serve.ServiceSurface`; every assertion below runs unchanged
over the three, so the HTTP layer, the clients, the chaos harness and the
CLI can program against the protocol without asking which one they hold.
"""

from __future__ import annotations

import pytest

from repro import reliability
from repro.estimators.boundary import BoundaryNodeEstimator
from repro.network.generator import MetroConfig, make_metro_network
from repro.serve import (
    AllFPService,
    QueryRequest,
    ServiceConfig,
    ServiceSurface,
    parse_metrics,
)
from repro.serve.updates import EdgeMutation, MutationBatch, slowdown_pattern
from repro.shard import ShardedService
from repro.timeutil import TimeInterval

INTERVAL = TimeInterval.from_clock("7:00", "8:00")

HEALTH_KEYS = {
    "status", "degraded", "network_version",
    "staleness_seconds", "pending_updates", "nodes",
}
STATS_KEYS = {"engine_runs", "result_cache", "single_flight", "updates"}
UPDATES_KEYS = {
    "applied_version", "batches_applied", "mutations_applied",
    "pending", "staleness_seconds", "max_staleness_seconds",
}


def _open(kind: str):
    network = make_metro_network(MetroConfig(width=8, height=8, seed=23))
    estimator = BoundaryNodeEstimator(network, 3, 3)
    config = ServiceConfig()
    if kind == "single":
        return AllFPService(network, estimator, config)
    return ShardedService(network, estimator, config, shards=int(kind[-1]))


@pytest.fixture(params=["single", "tier1", "tier2"])
def surface(request):
    """A fresh service per test — these tests mutate the network."""
    service = _open(request.param)
    yield service
    service.close()


def _batch(service, index: int = 0) -> MutationBatch:
    edge = list(service.network.edges())[index]
    return MutationBatch(
        (EdgeMutation(edge.source, edge.target, slowdown_pattern(edge.pattern, 0.25)),)
    )


class TestServiceSurface:
    def test_satisfies_the_protocol(self, surface):
        assert isinstance(surface, ServiceSurface)

    def test_health_keys(self, surface):
        health = surface.health()
        shards = health.pop("shards", None)
        assert set(health) == HEALTH_KEYS
        assert (health["status"], health["degraded"]) == ("ok", False)
        assert health["nodes"] == surface.network.node_count
        if shards is not None:  # the tier's one addition
            assert [s["alive"] for s in shards] == [True] * len(shards)

    def test_stats_keys(self, surface):
        surface.query(QueryRequest(0, 63, INTERVAL))
        stats = surface.stats()
        assert STATS_KEYS <= set(stats)
        assert set(stats["updates"]) == UPDATES_KEYS
        assert stats["engine_runs"] == 1
        assert stats["result_cache"]["misses"] == 1
        assert stats["single_flight"]["coalesced"] == 0

    def test_apply_updates_returns_the_version_health_follows(self, surface):
        assert surface.health()["network_version"] == 0
        assert surface.query(QueryRequest(0, 63, INTERVAL)).version == 0
        for expected in (1, 2):
            assert surface.apply_updates(_batch(surface, expected)) == expected
            assert surface.health()["network_version"] == expected
        assert surface.query(QueryRequest(0, 63, INTERVAL)).version == 2

    def test_update_ledger_settles_and_is_exported(self, surface):
        surface.apply_updates(_batch(surface))
        assert surface.staleness_seconds() == 0.0
        health = surface.health()
        assert (health["staleness_seconds"], health["pending_updates"]) == (0.0, 0)
        updates = surface.stats()["updates"]
        assert updates["applied_version"] == 1
        assert updates["batches_applied"] == 1
        assert updates["mutations_applied"] == 1
        assert updates["pending"] == 0
        assert updates["staleness_seconds"] == 0.0
        assert updates["max_staleness_seconds"] > 0.0
        names = {sample.partition("{")[0] for sample in parse_metrics(surface.render_metrics())}
        assert {
            "repro_network_applied_version",
            "repro_update_staleness_seconds",
            "repro_updates_pending",
            "repro_updates_applied_total",
            "repro_update_mutations_total",
        } <= names

    def test_invalidate_drops_cached_results(self, surface):
        request = QueryRequest(0, 63, INTERVAL)
        surface.query(request)
        assert surface.query(request).cached
        assert surface.invalidate() == 1
        assert surface.health()["network_version"] == 0
        again = surface.query(request)
        assert not again.cached and again.version == 0
        assert surface.stats()["engine_runs"] == 2

    def test_faults_round_trip_a_fired_count(self, surface):
        plan = reliability.FaultPlan(
            seed=1,
            specs=(
                reliability.FaultSpec(
                    "repro.serve.service.task", mode="delay", delay_seconds=0.0
                ),
            ),
        )
        surface.install_faults(plan)
        try:
            surface.query(QueryRequest(0, 63, INTERVAL))
        finally:
            fired = surface.uninstall_faults()
        assert fired == 1
        assert surface.uninstall_faults() == 0
        assert not reliability.is_active()
