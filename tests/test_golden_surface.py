"""Frozen wire surface and CLI flags: the refactoring guard for the front end.

``tests/data/golden_surface.json`` pins, for the HTTP server booted over
(a) an ``AllFPService`` and (b) a 2-shard ``ShardedService`` on the 10x10
``metro_tiny`` network, what a client or an operator can see:

* the recursive key structure of ``/healthz``, of one ``/v1/allfp`` and one
  ``/v1/updates`` 200 body, and of one 404, 400 and 503 error body;
* the sorted ``/metrics`` series names with their label names;
* the recursive key structure of ``stats()``;

and, from ``build_parser()``, every verb's option strings with default and
help text.  Numbers are masked to ``"number"`` and free-text ``message``
strings to ``"str"``; every other string (``status``, ``tables_mode``,
``error`` ...) and every bool is kept literally, and the comparison is
``==``.

Regenerate (only when a surface change is intended and named in the PR):

    PYTHONPATH=src python tests/test_golden_surface.py
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.estimators.boundary import BoundaryNodeEstimator
from repro.exceptions import ServiceOverloaded
from repro.network.generator import MetroConfig, make_metro_network
from repro.serve import (
    AllFPService,
    HTTPClient,
    QueryRequest,
    ServiceConfig,
    make_server,
    parse_metrics,
    start_in_thread,
)
from repro.serve.updates import EdgeMutation, MutationBatch, slowdown_pattern
from repro.shard import ShardedService
from repro.timeutil import TimeInterval

GOLDEN = Path(__file__).parent / "data" / "golden_surface.json"

#: Free text that legitimately varies (paths, ids, timings inside prose).
_MASKED_STRINGS = ("message",)


def shape(value, key: str = ""):
    """The structure of a JSON-able value with volatile leaves masked."""
    if isinstance(value, dict):
        return {str(k): shape(v, str(k)) for k, v in sorted(value.items(), key=str)}
    if isinstance(value, (list, tuple)):
        return [shape(value[0], key)] if value else []
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "str" if key in _MASKED_STRINGS else value
    return type(value).__name__


def _network():
    return make_metro_network(MetroConfig(width=10, height=10, seed=5))


def _single():
    network = _network()
    return AllFPService(
        network, BoundaryNodeEstimator(network, 4, 4), ServiceConfig()
    )


def _tier():
    network = _network()
    return ShardedService(
        network,
        BoundaryNodeEstimator(network, 4, 4),
        ServiceConfig(),
        shards=2,
    )


SERVICES = {"single": _single, "tier2": _tier}


def _series(text: str) -> list[list]:
    """Sorted ``[name, [label names]]`` of a Prometheus exposition."""
    seen = set()
    for sample in parse_metrics(text):
        name, _, labels = sample.partition("{")
        label_names = tuple(
            sorted(part.split("=")[0] for part in labels.rstrip("}").split(",") if part)
        )
        seen.add((name, label_names))
    return [[name, list(labels)] for name, labels in sorted(seen)]


def wire_surface(factory) -> dict:
    """Drive one fixed request sequence over HTTP and record its shapes."""
    service = factory()
    server = make_server(service, port=0)
    start_in_thread(server)
    try:
        host, port = server.server_address[:2]
        client = HTTPClient(f"http://{host}:{port}", retries=0, retry_503=False)
        interval = TimeInterval.from_clock("7:00", "8:00")
        edge = next(iter(service.network.edges()))
        batch = MutationBatch(
            (
                EdgeMutation(
                    edge.source, edge.target, slowdown_pattern(edge.pattern, 0.5)
                ),
            )
        )
        surface = {"healthz": shape(client.healthz())}
        for name, (status, body) in {
            "allfp_200": client.query(QueryRequest(0, 99, interval)),
            "updates_200": client.updates(batch),
            "error_404": client.query(QueryRequest(10**9, 5, interval)),
            "error_400": client.post("/v1/allfp", {}),
        }.items():
            assert status == int(name[-3:]), (name, status, body)
            surface[name] = shape(body)
        surface["metrics"] = _series(client.metrics_text())
        surface["stats"] = shape(service.stats())

        def overloaded(request):
            raise ServiceOverloaded(65, 64, 0.05)

        service.query = overloaded  # the HTTP mapping is what is pinned
        status, body = client.query(QueryRequest(0, 99, interval))
        assert status == 503, (status, body)
        surface["error_503"] = shape(body)
        return surface
    finally:
        service.__dict__.pop("query", None)
        server.shutdown()
        server.server_close()
        service.close()


def cli_surface() -> dict:
    """Every verb's options: flag strings, default, help."""
    parser = build_parser()
    (verbs,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    surface = {}
    for verb, sub in sorted(verbs.choices.items()):
        surface[verb] = [
            {
                "options": list(action.option_strings) or [action.dest],
                "default": repr(action.default),
                "help": action.help,
            }
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        ]
    return surface


def current_surface() -> dict:
    doc = {name: wire_surface(factory) for name, factory in SERVICES.items()}
    doc["cli"] = cli_surface()
    return doc


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SERVICES))
def test_wire_surface_is_frozen(golden, name):
    got = wire_surface(SERVICES[name])
    assert sorted(got) == sorted(golden[name])
    for part in sorted(got):
        assert got[part] == golden[name][part], part


def test_cli_flags_are_frozen(golden):
    got = cli_surface()
    assert sorted(got) == sorted(golden["cli"])
    for verb in sorted(got):
        assert got[verb] == golden["cli"][verb], verb


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(current_surface(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
