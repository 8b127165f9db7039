"""Batch query layer: core engine, service mode, HTTP endpoint, CLI verb."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.batch import (
    BatchResult,
    batch_fastest_times,
    batch_one_to_many,
)
from repro.core.engine import IntAllFastestPaths
from repro.core.runtime import SearchContext
from repro.exceptions import QueryError
from repro.serve import (
    AllFPService,
    HTTPClient,
    QueryRequest,
    ServiceConfig,
    make_server,
    start_in_thread,
)
from repro.serve.http import MAX_BATCH_ITEMS
from repro.timeutil import TimeInterval


@pytest.fixture
def interval():
    return TimeInterval.from_clock("7:00", "8:00")


@pytest.fixture(scope="module")
def network_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("batch-cli") / "net.json"
    code = main(
        ["generate", "--out", str(path), "--width", "10", "--height", "10"]
    )
    assert code == 0
    return path


def _batch(pairs, interval):
    return QueryRequest(pairs[0][0], None, interval, "batch", pairs=pairs)


@pytest.fixture
def service(metro_tiny):
    svc = AllFPService(metro_tiny, config=ServiceConfig())
    yield svc
    svc.close()


@pytest.fixture
def http_service(metro_tiny):
    svc = AllFPService(metro_tiny, config=ServiceConfig())
    server = make_server(svc, port=0)
    start_in_thread(server)
    host, port = server.server_address[:2]
    client = HTTPClient(f"http://{host}:{port}")
    yield svc, client
    server.shutdown()
    svc.close()


# ----------------------------------------------------------------------
# Core engine
# ----------------------------------------------------------------------
class TestBatchEngine:
    def test_matches_per_pair_allfp(self, metro_tiny, interval):
        """Batched optimum == the allFP border minimum, pair by pair."""
        pairs = [(0, 37), (0, 99), (5, 42), (0, 11)]
        result = batch_fastest_times(metro_tiny, pairs, interval)
        assert [(i.source, i.target) for i in result.items] == pairs
        assert result.groups == 2  # sources 0 and 5
        engine = IntAllFastestPaths(metro_tiny)
        for item in result.items:
            assert item.reachable and item.error is None
            allfp = engine.all_fastest_paths(
                item.source, item.target, interval
            )
            assert item.optimal_travel_time == pytest.approx(
                allfp.border.min_value(), abs=1e-6
            )

    def test_travel_time_function_and_intervals(self, metro_tiny, interval):
        result = batch_one_to_many(metro_tiny, 0, [99], interval)
        item = result.items[0]
        fn = item.travel_time_function
        assert fn is not None
        assert fn.min_value() == pytest.approx(item.optimal_travel_time)
        assert item.optimal_intervals
        lo, hi = item.optimal_intervals[0]
        assert interval.start <= lo <= hi <= interval.end

    def test_duplicate_pairs_each_answered(self, metro_tiny, interval):
        result = batch_fastest_times(
            metro_tiny, [(0, 9), (0, 9)], interval
        )
        assert len(result.items) == 2
        assert result.groups == 1
        assert result.items[0].optimal_travel_time == pytest.approx(
            result.items[1].optimal_travel_time
        )

    def test_one_search_per_source(self, metro_tiny, interval):
        """N same-source targets cost one profile search, not N."""
        many = batch_one_to_many(metro_tiny, 0, list(range(1, 21)), interval)
        one = batch_one_to_many(metro_tiny, 0, [1], interval)
        assert many.groups == 1
        assert many.stats.expanded_paths == one.stats.expanded_paths

    def test_shared_context_warms_edge_cache(self, metro_tiny, interval):
        ctx = SearchContext(metro_tiny)
        first = batch_one_to_many(metro_tiny, 0, [99], interval, context=ctx)
        second = batch_one_to_many(metro_tiny, 5, [99], interval, context=ctx)
        # The second source reads what the first one stored: the two
        # searches relax the same street edges, on the same day.
        assert first.stats.edge_cache_misses > 0
        assert second.stats.edge_cache_hits > 0
        assert second.stats.edge_cache_misses == 0

    def test_unknown_target_unreachable_without_error(
        self, metro_tiny, interval
    ):
        result = batch_one_to_many(metro_tiny, 0, [10 ** 9], interval)
        item = result.items[0]
        assert not item.reachable
        assert item.error is None
        assert item.optimal_travel_time is None

    def test_unknown_source_fails_only_its_group(self, metro_tiny, interval):
        result = batch_fastest_times(
            metro_tiny, [(10 ** 9, 5), (0, 5)], interval
        )
        bad, good = result.items
        assert not bad.reachable
        assert bad.error is not None and "NodeNotFound" in bad.error
        assert good.reachable and good.error is None

    def test_exhausted_deadline_yields_error_items(self, metro_tiny, interval):
        result = batch_one_to_many(
            metro_tiny, 0, [5, 6], interval, deadline=0.0
        )
        assert result.stats.timed_out
        for item in result.items:
            assert item.error is not None and "QueryTimeout" in item.error

    def test_empty_batch_rejected(self, metro_tiny, interval):
        with pytest.raises(QueryError, match="at least one"):
            batch_fastest_times(metro_tiny, [], interval)

    def test_stats_and_as_dict(self, metro_tiny, interval):
        result = batch_fastest_times(metro_tiny, [(0, 9), (3, 7)], interval)
        assert result.stats.expanded_paths > 0
        blob = result.as_dict()
        assert blob["groups"] == 2
        assert len(blob["items"]) == 2
        assert blob["items"][0]["source"] == 0
        assert blob["items"][0]["travel_time_function"]
        assert blob["stats"]["expanded_paths"] > 0
        assert "pair(s)" in str(result)


# ----------------------------------------------------------------------
# Service mode
# ----------------------------------------------------------------------
class TestBatchService:
    def test_batch_mode(self, service, interval):
        response = service.query(_batch([(0, 9), (3, 7)], interval))
        assert isinstance(response.result, BatchResult)
        assert len(response.result.items) == 2
        assert response.result.items[0].reachable

    def test_one_to_many_and_result_cache(self, service, interval):
        first = service.query(_batch([(0, 9), (0, 10)], interval))
        second = service.query(_batch([(0, 9), (0, 10)], interval))
        assert not first.cached
        assert second.cached

    def test_order_sensitive_cache_key(self, service, interval):
        forward = service.query(_batch([(0, 9), (0, 10)], interval))
        reversed_ = service.query(_batch([(0, 10), (0, 9)], interval))
        assert not reversed_.cached
        assert [i.target for i in forward.result.items] == [9, 10]
        assert [i.target for i in reversed_.result.items] == [10, 9]

    def test_request_validation(self, interval):
        with pytest.raises(QueryError, match="non-empty pairs"):
            QueryRequest(0, None, interval, "batch")

    def test_metrics_labelled_by_mode(self, service, interval):
        service.query(_batch([(0, 9)], interval))
        text = service.render_metrics()
        assert 'responses_total{mode="batch",status="ok"}' in text


# ----------------------------------------------------------------------
# HTTP endpoint
# ----------------------------------------------------------------------
class TestBatchHTTP:
    def test_items_form(self, http_service, interval):
        _, client = http_service
        status, body = client.query(_batch([(0, 9), (3, 7)], interval))
        assert status == 200
        items = body["result"]["items"]
        assert [(i["source"], i["target"]) for i in items] == [(0, 9), (3, 7)]
        assert items[0]["reachable"] is True
        assert items[0]["optimal_travel_time"] > 0

    def test_one_to_many_form(self, http_service, interval):
        _, client = http_service
        status, body = client.post(
            "/v1/batch",
            {"source": 0, "targets": [9, 10, 11],
             "start": interval.start, "end": interval.end},
        )
        assert status == 200
        assert len(body["result"]["items"]) == 3
        assert body["result"]["groups"] == 1

    @pytest.mark.parametrize(
        "body_extra",
        [
            {},  # neither items nor source/targets
            {"items": []},
            {"items": [{"source": 0}]},  # missing target
            {"items": "nope"},
            {"source": 0, "targets": []},
            {"items": [{"source": 0, "target": 1}] * (MAX_BATCH_ITEMS + 1)},
        ],
    )
    def test_bad_requests_rejected(self, http_service, interval, body_extra):
        _, client = http_service
        body = {"start": interval.start, "end": interval.end, **body_extra}
        status, decoded = client.post("/v1/batch", body)
        assert status == 400
        assert decoded["error"] == "BadRequest"


# ----------------------------------------------------------------------
# CLI verb
# ----------------------------------------------------------------------
class TestBatchCLI:
    def test_one_to_many(self, network_json, capsys):
        code = main(
            [
                "batch",
                "--network",
                str(network_json),
                "--source",
                "0",
                "--targets",
                "5,27,99",
                "--from",
                "7:00",
                "--to",
                "8:00",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 -> 5: best" in out
        assert "0 -> 99: best" in out
        assert "3 pair(s) in 1 profile search(es)" in out

    def test_explicit_pairs(self, network_json, capsys):
        code = main(
            ["batch", "--network", str(network_json), "--pairs", "0:9,3:7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 -> 9: best" in out
        assert "3 -> 7: best" in out
        assert "2 profile search(es)" in out

    def test_requires_exactly_one_form(self, network_json, capsys):
        code = main(
            [
                "batch",
                "--network",
                str(network_json),
                "--pairs",
                "0:9",
                "--source",
                "0",
                "--targets",
                "3",
            ]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_bad_pair_syntax(self, network_json, capsys):
        code = main(
            ["batch", "--network", str(network_json), "--pairs", "0-9"]
        )
        assert code == 2
        assert "SOURCE:TARGET" in capsys.readouterr().err
