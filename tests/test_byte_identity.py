"""Byte identity as a property of the product.

An answer is a function of the network, the calendar and the query — never
of what the edge-function store was asked before, of what it evicted, or of
which process computed it.  Every comparison here is ``==`` on ``repr()``
floats; the fixed query set is answered

(a) on a fresh context,
(b) on a context that first answered wider, narrower, later-in-the-day and
    next-day windows,
(c) with the store bound at 2 entries, so everything is evicted between uses,
(d) for a window inside one day and for one crossing midnight,
(e) through an ``AllFPService`` cold and warm, through a 2-shard tier, and
    after ``apply_updates`` plus the batch that restores the patterns.
"""

from __future__ import annotations

import json

import pytest

from repro.core.arrival import ArrivalIntAllFastestPaths
from repro.core.engine import IntAllFastestPaths
from repro.core.knn import interval_knn
from repro.core.profile import profile_search
from repro.core.runtime import EdgeFunctionCache, SearchContext
from repro.network.generator import (
    MetroConfig,
    make_metro_network,
    paper_example_network,
)
from repro.serve import AllFPService, ServiceConfig
from repro.serve.service import QueryRequest
from repro.serve.updates import EdgeMutation, MutationBatch, slowdown_pattern
from repro.shard import ShardedService
from repro.timeutil import TimeInterval

#: network -> (build, source, target, profile targets / kNN candidates)
CASES = {
    "example": (paper_example_network, 0, 2, [1, 2]),
    "metro_tiny": (
        lambda: make_metro_network(MetroConfig(width=10, height=10, seed=5)),
        41,
        78,
        [9, 55, 78, 90],
    ),
}

WINDOWS = {
    "one_day": TimeInterval.from_clock("6:50", "7:35"),
    "across_midnight": TimeInterval(1425.0, 1455.0),
}


def _points(fn) -> list[tuple[str, str]]:
    return [(repr(x), repr(y)) for x, y in fn.breakpoints]


def _allfp_doc(result) -> dict:
    return {
        "border": _points(result.border),
        "partition": [
            (repr(e.interval.start), repr(e.interval.end), e.path)
            for e in result.entries
        ],
    }


def _wire_doc(result) -> str:
    """The answer as it crosses the wire (``json`` writes floats by repr)."""
    doc = result.as_dict()
    doc.pop("stats")
    return json.dumps(doc, sort_keys=True)


def _answers(network, context, source, target, others, window) -> dict:
    """The four query kinds on one context, every float as its repr()."""
    profile = profile_search(
        network, source, window, targets=others, context=context
    )
    knn = interval_knn(network, source, others, 2, window, context=context)
    return {
        "allfp": _allfp_doc(
            IntAllFastestPaths(network, context=context).all_fastest_paths(
                source, target, window
            )
        ),
        "arrive": _allfp_doc(
            ArrivalIntAllFastestPaths(
                network, context=context
            ).all_fastest_paths(source, target, window)
        ),
        "profile": {
            node: _points(fn) for node, fn in sorted(profile.profiles.items())
        },
        "knn": [
            (n.node, repr(n.min_travel_time), _points(n.travel_time_function))
            for n in knn.neighbors
        ],
    }


def _restoring_batches(network) -> tuple[MutationBatch, MutationBatch]:
    """Slow three edges down, and the batch that puts their patterns back."""
    edges = list(network.edges())[:3]
    slow = MutationBatch(
        tuple(
            EdgeMutation(e.source, e.target, slowdown_pattern(e.pattern, 0.5))
            for e in edges
        )
    )
    restore = MutationBatch(
        tuple(EdgeMutation(e.source, e.target, e.pattern) for e in edges)
    )
    return slow, restore


@pytest.mark.parametrize("window_name", list(WINDOWS))
@pytest.mark.parametrize("net_name", list(CASES))
def test_answers_do_not_depend_on_store_history(net_name, window_name):
    build, source, target, others = CASES[net_name]
    window = WINDOWS[window_name]
    network = build()
    query = (source, target, others, window)

    fresh = _answers(network, SearchContext(network), *query)

    warmed = SearchContext(network)
    lo, hi = window.start, window.end
    for other in (
        TimeInterval(lo - 45.0, hi + 90.0),  # wider
        TimeInterval(lo + 5.0, lo + 10.0),  # narrower
        TimeInterval(lo + 300.0, hi + 300.0),  # later in the day
        TimeInterval(lo + 1440.0, hi + 1440.0),  # the next day
    ):
        _answers(network, warmed, source, target, others, other)
    assert _answers(network, warmed, *query) == fresh
    assert _answers(network, warmed, *query) == fresh  # and fully warm

    evicting = SearchContext(
        network, edge_cache=EdgeFunctionCache(network.calendar, 2)
    )
    assert _answers(network, evicting, *query) == fresh
    assert len(evicting.edge_cache) <= 2


@pytest.mark.parametrize("net_name", list(CASES))
def test_answers_do_not_depend_on_the_serving_path(net_name):
    build, source, target, _others = CASES[net_name]
    window = WINDOWS["one_day"]
    fresh = _wire_doc(
        IntAllFastestPaths(build()).all_fastest_paths(source, target, window)
    )
    request = QueryRequest(source, target, window)
    config = ServiceConfig(cache_results=False)

    def served(service) -> str:
        return _wire_doc(service.query(request).result)

    network = build()
    slow, restore = _restoring_batches(network)
    service = AllFPService(network, config=config)
    try:
        assert served(service) == fresh  # cold
        wider = TimeInterval(window.start - 45.0, window.end + 90.0)
        service.query(QueryRequest(source, target, wider))
        assert served(service) == fresh  # warm
        service.apply_updates(slow)
        service.apply_updates(restore)
        assert served(service) == fresh
    finally:
        service.close()

    network = build()
    slow, restore = _restoring_batches(network)
    tier = ShardedService(network, None, config, shards=2)
    try:
        assert served(tier) == fresh
        assert served(tier) == fresh
        tier.apply_updates(slow)
        tier.apply_updates(restore)
        assert served(tier) == fresh
    finally:
        tier.close()
