"""Package-level sanity: public API surface, exception hierarchy, version."""

import importlib

import pytest

import repro
from repro import errors

PUBLIC_MODULES = [
    "repro.sim",
    "repro.net",
    "repro.workload",
    "repro.core",
    "repro.gnutella",
    "repro.webcache",
    "repro.olap",
    "repro.experiments",
    "repro.analysis",
]


class TestPublicSurface:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("name", PUBLIC_MODULES)
    def test_module_importable(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", PUBLIC_MODULES)
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"

    def test_top_level_exports(self):
        for symbol in repro.__all__:
            assert hasattr(repro, symbol)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.SimulationError,
            errors.SchedulingError,
            errors.NetworkError,
            errors.TopologyError,
            errors.WorkloadError,
            errors.FrameworkError,
            errors.NeighborListError,
            errors.ConfigurationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_specializations(self):
        assert issubclass(errors.SchedulingError, errors.SimulationError)
        assert issubclass(errors.TopologyError, errors.NetworkError)
        assert issubclass(errors.NeighborListError, errors.FrameworkError)

    def test_catchable_as_repro_error(self):
        with pytest.raises(errors.ReproError):
            raise errors.TopologyError("boom")
