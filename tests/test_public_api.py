"""Contract tests for the top-level public API surface."""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro


class TestAllExports:
    def test_every_name_in_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name}"

    def test_no_private_names_in_all(self):
        private = [
            n for n in repro.__all__
            if n.startswith("_") and n != "__version__"
        ]
        assert not private

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    @pytest.mark.parametrize(
        "name",
        [
            "IntAllFastestPaths",
            "ArrivalIntAllFastestPaths",
            "OverlayEngine",
            "DiscreteTimeModel",
            "CCAMStore",
            "CapeCodNetwork",
            "NaiveEstimator",
            "BoundaryNodeEstimator",
            "TimeInterval",
            "interval_knn",
        ],
    )
    def test_headline_symbols_exported(self, name):
        assert name in repro.__all__

    def test_subpackages_importable(self):
        for module in (
            "repro.func",
            "repro.patterns",
            "repro.network",
            "repro.storage",
            "repro.estimators",
            "repro.core",
            "repro.hierarchy",
            "repro.workloads",
            "repro.analysis",
            "repro.cli",
        ):
            importlib.import_module(module)


class TestDocstrings:
    def test_all_public_classes_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_all_public_modules_documented(self):
        for module_name in (
            "repro",
            "repro.func.piecewise",
            "repro.func.monotone",
            "repro.func.envelope",
            "repro.patterns.travel_time",
            "repro.core.engine",
            "repro.core.arrival",
            "repro.core.knn",
            "repro.core.profile",
            "repro.storage.ccam",
            "repro.storage.bptree",
            "repro.estimators.boundary",
            "repro.hierarchy.overlay",
            "repro.hierarchy.engine",
        ):
            module = importlib.import_module(module_name)
            assert (module.__doc__ or "").strip(), module_name

    def test_engine_methods_documented(self):
        for method in (
            repro.IntAllFastestPaths.all_fastest_paths,
            repro.IntAllFastestPaths.single_fastest_path,
            repro.CCAMStore.build,
            repro.CCAMStore.find_node,
        ):
            assert (method.__doc__ or "").strip()
