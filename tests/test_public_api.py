"""Public-API surface checks: exports, exception hierarchy, versioning."""

import numpy as np
import pytest

import repro
from repro.exceptions import (
    ConfigurationError,
    DimensionMismatchError,
    EmptyIndexError,
    ReproError,
    SketchError,
    UnknownMetricError,
)


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_one_front_door(self):
        """``Index`` builds every index: the engines are not top-level
        names, and the top-level searcher is the plain core class."""
        import repro.core

        assert repro.HybridSearcher is repro.core.HybridSearcher
        for engine in ("QueryService", "BatchQueryEngine", "WorkerPool"):
            assert not hasattr(repro, engine)

    def test_version(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_subpackage_alls_resolve(self):
        import repro.core
        import repro.datasets
        import repro.distances
        import repro.evaluation
        import repro.hashing
        import repro.index
        import repro.observability
        import repro.sketches

        for module in (
            repro.core,
            repro.datasets,
            repro.distances,
            repro.evaluation,
            repro.hashing,
            repro.index,
            repro.observability,
            repro.sketches,
        ):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (module.__name__, name)

    def test_readme_quickstart_runs(self):
        """The README's quickstart snippet must stay executable."""
        rng = np.random.default_rng(0)
        points = rng.normal(size=(500, 16))
        index = repro.Index.build(
            points,
            repro.IndexSpec(metric="l2", radius=2.0, num_tables=6, seed=42),
        )
        result = index.query(repro.QuerySpec(points[0]))
        assert 0 in result.ids
        assert result.stats.strategy in (repro.Strategy.LSH, repro.Strategy.LINEAR)

    def test_api_subpackage_all_resolves(self):
        import repro.api

        for name in repro.api.__all__:
            assert getattr(repro.api, name, None) is not None, name


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError,
            DimensionMismatchError,
            EmptyIndexError,
            UnknownMetricError,
            SketchError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_configuration_is_value_error(self):
        """Callers using plain `except ValueError` still catch config bugs."""
        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(DimensionMismatchError, ValueError)

    def test_unknown_metric_is_key_error(self):
        assert issubclass(UnknownMetricError, KeyError)

    def test_empty_index_is_runtime_error(self):
        assert issubclass(EmptyIndexError, RuntimeError)

    def test_single_catch_all(self):
        with pytest.raises(ReproError):
            repro.get_metric("not-a-metric")
        with pytest.raises(ReproError):
            repro.CostModel(alpha=-1.0, beta=1.0)
