"""End-to-end tests for the repro-allfp command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def network_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "net.json"
    code = main(
        [
            "generate",
            "--out",
            str(path),
            "--width",
            "10",
            "--height",
            "10",
            "--seed",
            "7",
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def ccam_db(network_json, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-db") / "net.ccam"
    code = main(
        ["build-ccam", "--network", str(network_json), "--out", str(path)]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_file(self, network_json, capsys):
        assert network_json.exists()

    def test_output_message(self, tmp_path, capsys):
        main(["generate", "--out", str(tmp_path / "n.json"), "--width", "6", "--height", "6"])
        out = capsys.readouterr().out
        assert "36 nodes" in out


class TestBuildCCAM:
    def test_builds(self, ccam_db):
        assert ccam_db.exists()

    def test_reports_clustering(self, network_json, tmp_path, capsys):
        main(
            [
                "build-ccam",
                "--network",
                str(network_json),
                "--out",
                str(tmp_path / "x.ccam"),
                "--strategy",
                "hilbert",
            ]
        )
        out = capsys.readouterr().out
        assert "clustering quality" in out


class TestQuery:
    def test_allfp_on_json(self, network_json, capsys):
        code = main(
            [
                "query",
                "--network",
                str(network_json),
                "--source",
                "0",
                "--target",
                "99",
                "--from",
                "7:00",
                "--to",
                "8:00",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "allFP 0->99" in out
        assert "expanded paths" in out

    def test_singlefp_on_ccam(self, ccam_db, capsys):
        code = main(
            [
                "query",
                "--network",
                str(ccam_db),
                "--source",
                "0",
                "--target",
                "99",
                "--mode",
                "singlefp",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "singleFP 0->99" in out
        assert "page reads" in out

    def test_arrival_constraint(self, network_json, capsys):
        code = main(
            [
                "query",
                "--network",
                str(network_json),
                "--source",
                "0",
                "--target",
                "99",
                "--from",
                "8:00",
                "--to",
                "9:00",
                "--constraint",
                "arrival",
                "--mode",
                "singlefp",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "singleFP 0->99" in out

    def test_arrival_with_boundary_estimator(self, network_json, capsys):
        code = main(
            [
                "query",
                "--network",
                str(network_json),
                "--source",
                "0",
                "--target",
                "55",
                "--constraint",
                "arrival",
                "--estimator",
                "boundary",
                "--grid",
                "3",
            ]
        )
        assert code == 0

    def test_boundary_estimator_on_json(self, network_json, capsys):
        code = main(
            [
                "query",
                "--network",
                str(network_json),
                "--source",
                "0",
                "--target",
                "55",
                "--estimator",
                "boundary",
                "--grid",
                "3",
            ]
        )
        assert code == 0

    def test_boundary_estimator_on_ccam_warns(self, ccam_db, capsys):
        code = main(
            [
                "query",
                "--network",
                str(ccam_db),
                "--source",
                "0",
                "--target",
                "55",
                "--estimator",
                "boundary",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "falling back to naive" in err


class TestProfileAndKnn:
    def test_profile_with_targets(self, network_json, capsys):
        code = main(
            [
                "profile",
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
        assert "node 5: best" in out
        assert "node 99: best" in out
        assert "reachable nodes: 3" in out
        assert "expanded:" in out

    def test_profile_one_to_all(self, network_json, capsys):
        code = main(
            ["profile", "--network", str(network_json), "--source", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reachable nodes: 100" in out

    def test_knn_ranks_candidates(self, network_json, capsys):
        code = main(
            [
                "knn",
                "--network",
                str(network_json),
                "--source",
                "0",
                "--candidates",
                "12,34,56,78",
                "--k",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "#1 node" in out
        assert "#2 node" in out
        assert "reachable candidates: 4/4" in out

    def test_bad_node_list_is_error(self, network_json, capsys):
        code = main(
            [
                "knn",
                "--network",
                str(network_json),
                "--source",
                "0",
                "--candidates",
                "12,potato",
            ]
        )
        assert code == 2
        assert "--candidates" in capsys.readouterr().err


class TestInfo:
    def test_json(self, network_json, capsys):
        assert main(["info", "--network", str(network_json)]) == 0
        out = capsys.readouterr().out
        assert "nodes: 100" in out

    def test_ccam(self, ccam_db, capsys):
        assert main(["info", "--network", str(ccam_db)]) == 0
        out = capsys.readouterr().out
        assert "page size: 2048" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestErrorPaths:
    """Deliberate failures exit non-zero with one clean message, no traceback."""

    def _assert_clean_error(self, code, captured, fragment):
        assert code != 0
        assert captured.err.startswith("error:")
        assert fragment in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_node_id(self, network_json, capsys):
        code = main(
            [
                "query",
                "--network",
                str(network_json),
                "--source",
                "0",
                "--target",
                "123456",
            ]
        )
        self._assert_clean_error(code, capsys.readouterr(), "not found")

    def test_malformed_clock_string(self, network_json, capsys):
        code = main(
            [
                "query",
                "--network",
                str(network_json),
                "--source",
                "0",
                "--target",
                "99",
                "--from",
                "7h30",
                "--to",
                "9:00",
            ]
        )
        self._assert_clean_error(
            code, capsys.readouterr(), "cannot parse clock string"
        )

    def test_clock_minutes_out_of_range(self, network_json, capsys):
        code = main(
            [
                "query",
                "--network",
                str(network_json),
                "--source",
                "0",
                "--target",
                "99",
                "--from",
                "7:99",
                "--to",
                "9:00",
            ]
        )
        self._assert_clean_error(code, capsys.readouterr(), "out of range")

    def test_nonexistent_network_file(self, tmp_path, capsys):
        code = main(
            [
                "query",
                "--network",
                str(tmp_path / "does-not-exist.json"),
                "--source",
                "0",
                "--target",
                "99",
            ]
        )
        self._assert_clean_error(code, capsys.readouterr(), "does-not-exist")

    def test_equal_source_and_target(self, network_json, capsys):
        code = main(
            [
                "query",
                "--network",
                str(network_json),
                "--source",
                "5",
                "--target",
                "5",
            ]
        )
        self._assert_clean_error(code, capsys.readouterr(), "differ")

    def test_build_overlay_workers_other_than_one(
        self, network_json, tmp_path, capsys
    ):
        # The build runs in one process: argparse refuses any other count.
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "build-overlay",
                    "--network",
                    str(network_json),
                    "--out",
                    str(tmp_path / "o.snap"),
                    "--workers",
                    "2",
                ]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert "--workers" in line and "invalid choice" in line
        assert "Traceback" not in err
        assert not (tmp_path / "o.snap").exists()

    @pytest.mark.parametrize(
        "value, fragment", [("abc", "not an integer"), ("1", ">= 2")]
    )
    def test_bad_max_breakpoints_env(self, value, fragment, tmp_path):
        # A fresh interpreter: the variable must not break the import of
        # repro before main() can report it.
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "generate",
                "--out", str(tmp_path / "g.json"), "--width", "4", "--height", "4",
            ],
            env={**os.environ, "REPRO_MAX_BREAKPOINTS": value},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2
        (line,) = result.stderr.splitlines()
        assert line.startswith("error:") and fragment in line


class TestImportVerb:
    @pytest.fixture(scope="class")
    def text_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-import") / "net.txt"
        code = main(
            [
                "generate",
                "--out",
                str(path),
                "--width",
                "8",
                "--height",
                "8",
                "--format",
                "osm-text",
            ]
        )
        assert code == 0
        return path

    def test_generate_osm_text(self, text_file):
        body = text_file.read_text(encoding="utf-8")
        assert body.startswith("node ")
        assert "\nway " in body

    def test_import_to_json(self, text_file, tmp_path, capsys):
        out = tmp_path / "imported.json"
        code = main(["import", str(text_file), "--out", str(out)])
        assert code == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "64 nodes" in text
        assert "directed edges" in text

    def test_import_to_ccam(self, text_file, tmp_path, capsys):
        out = tmp_path / "imported.ccam"
        code = main(["import", str(text_file), "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_imported_network_queryable(self, text_file, tmp_path, capsys):
        out = tmp_path / "imported.json"
        assert main(["import", str(text_file), "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(
            [
                "query",
                "--network",
                str(out),
                "--source",
                "0",
                "--target",
                "63",
            ]
        )
        assert code == 0
        assert "best:" in capsys.readouterr().out

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("way oneway residential 0 1\n", encoding="utf-8")
        code = main(["import", str(bad), "--out", str(tmp_path / "x.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 1" in err


class TestOverlayVerbs:
    @pytest.fixture(scope="class")
    def overlay_snapshot(self, network_json, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-overlay") / "net.ovl"
        code = main(
            [
                "build-overlay",
                "--network",
                str(network_json),
                "--out",
                str(path),
                "--levels",
                "2",
                "--overlay-grid",
                "6",
                "--grid",
                "4",
            ]
        )
        assert code == 0
        return path

    def test_build_overlay_reports_levels(self, overlay_snapshot, capsys):
        assert overlay_snapshot.exists()

    def test_snapshot_info_shows_overlay(self, overlay_snapshot, capsys):
        code = main(["snapshot-info", "--snapshot", str(overlay_snapshot)])
        assert code == 0
        out = capsys.readouterr().out
        assert "RPRESNAP v2" in out
        assert "overlay: 2 level(s)" in out
        assert "level 0:" in out and "level 1:" in out
        assert "shortcuts" in out

    def test_query_with_overlay_cache_matches_flat(
        self, network_json, overlay_snapshot, capsys
    ):
        argv = [
            "query",
            "--network",
            str(network_json),
            "--source",
            "0",
            "--target",
            "99",
        ]
        assert main(argv) == 0
        flat = capsys.readouterr().out
        assert (
            main(argv + ["--overlay-cache", str(overlay_snapshot)]) == 0
        )
        captured = capsys.readouterr()
        assert "overlay cache hit" in captured.err
        flat_best = next(l for l in flat.splitlines() if l.startswith("best:"))
        ovl_best = next(
            l for l in captured.out.splitlines() if l.startswith("best:")
        )
        assert flat_best.split(";")[0] == ovl_best.split(";")[0]

    def test_overlay_levels_builds_and_caches(
        self, network_json, tmp_path, capsys
    ):
        cache = tmp_path / "fresh.ovl"
        code = main(
            [
                "query",
                "--network",
                str(network_json),
                "--source",
                "0",
                "--target",
                "50",
                "--mode",
                "singlefp",
                "--overlay-levels",
                "1",
                "--overlay-cache",
                str(cache),
            ]
        )
        assert code == 0
        assert "overlay cache miss" in capsys.readouterr().err
        assert cache.exists()

    def test_missing_cache_without_levels_exits_2(
        self, network_json, tmp_path, capsys
    ):
        code = main(
            [
                "query",
                "--network",
                str(network_json),
                "--source",
                "0",
                "--target",
                "5",
                "--overlay-cache",
                str(tmp_path / "nope.ovl"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_snapshot_exits_2(
        self, overlay_snapshot, tmp_path, capsys
    ):
        data = overlay_snapshot.read_bytes()
        bad = tmp_path / "bad.ovl"
        bad.write_bytes(data[: len(data) // 2])
        code = main(["snapshot-info", "--snapshot", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_chaos_with_overlay(self, network_json, overlay_snapshot, capsys):
        code = main(
            [
                "chaos",
                "--network",
                str(network_json),
                "--queries",
                "4",
                "--clients",
                "1",
                "--interval-hours",
                "1",
                "--overlay-cache",
                str(overlay_snapshot),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.out + captured.err
        assert "overlay cache hit" in captured.err
        assert "invariant held" in captured.out


class TestOneFileBothCaches:
    """``--estimator-cache X --overlay-cache X`` on a cold start: the
    estimator miss writes X as version 1, which is not an overlay hit."""

    def _argv(self, network_json, cache):
        return [
            "--network",
            str(network_json),
            "--estimator",
            "boundary",
            "--grid",
            "3",
            "--estimator-cache",
            str(cache),
            "--overlay-levels",
            "1",
            "--overlay-cache",
            str(cache),
        ]

    def test_query_cold_then_warm(self, network_json, tmp_path, capsys):
        cache = tmp_path / "both.snap"
        argv = ["query", "--source", "0", "--target", "50"]
        argv += self._argv(network_json, cache)
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "estimator cache miss" in cold.err
        assert "overlay cache miss" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "estimator cache hit" in warm.err
        assert "overlay cache hit" in warm.err
        assert warm.out.splitlines()[:3] == cold.out.splitlines()[:3]

    def test_serve_cold_then_warm(self, network_json, tmp_path, capsys):
        from repro.cli import _build_service, build_parser

        cache = tmp_path / "both.snap"
        argv = ["serve"] + self._argv(network_json, cache)
        for expect in ("cache miss", "cache hit"):
            service = _build_service(build_parser().parse_args(argv))
            try:
                err = capsys.readouterr().err
                assert err.count(expect) == 2, err
                assert "warning" not in err
                assert service.stats()["overlay_levels"] == 1
                assert not service.health()["degraded"]
            finally:
                service.close()


class TestServeBanner:
    def test_banner_lists_every_route(self, network_json, capsys, monkeypatch):
        import repro.serve
        from repro.serve.http import POST_ROUTES

        class _Server:  # answers no request: serve_forever returns at once
            server_address = ("127.0.0.1", 0)

            def serve_forever(self):
                raise KeyboardInterrupt

            def shutdown(self):
                pass

        monkeypatch.setattr(
            repro.serve, "make_server", lambda *args, **kwargs: _Server()
        )
        assert main(["serve", "--network", str(network_json)]) == 0
        banner = next(
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("endpoints:")
        )
        routes = banner.removeprefix("endpoints: ").split(", ")
        assert routes == [f"POST {path}" for path in POST_ROUTES] + [
            "GET /healthz",
            "GET /metrics",
        ]
        assert "POST /v1/batch" in routes
