"""Tests for hybrid search (Algorithm 2): the HybridSearcher dispatch."""

import numpy as np
import pytest

from repro.api import Index, IndexSpec, QuerySpec
from repro.core import (
    CostModel,
    HybridSearcher,
    LinearScan,
    LSHSearch,
    QueryStats,
    Strategy,
)
from repro.exceptions import ConfigurationError, EmptyIndexError
from repro.hashing import PStableLSH
from repro.index import LSHIndex


@pytest.fixture
def hybrid(l2_index):
    return HybridSearcher(l2_index, CostModel.from_ratio(6.0))


class TestConstruction:
    def test_requires_built_index(self):
        index = LSHIndex(PStableLSH(4, w=1.0, p=2, seed=0), k=2, num_tables=2)
        with pytest.raises(EmptyIndexError):
            HybridSearcher(index, CostModel.from_ratio(1.0))

    def test_requires_sketches(self, gaussian_points):
        index = LSHIndex(
            PStableLSH(16, w=2.0, p=2, seed=0), k=2, num_tables=2, with_sketches=False
        ).build(gaussian_points)
        with pytest.raises(ConfigurationError):
            HybridSearcher(index, CostModel.from_ratio(1.0))


class TestDecision:
    def test_stats_record_both_costs(self, hybrid, gaussian_points):
        result = hybrid.query(gaussian_points[0], radius=1.0)
        stats = result.stats
        assert stats.estimated_lsh_cost > 0
        assert stats.linear_cost == hybrid.cost_model.linear_cost(hybrid.index.n)
        assert not np.isnan(stats.estimated_candidates)

    def test_dispatch_matches_cost_comparison(self, hybrid, gaussian_points):
        """The strategy recorded must agree with the recorded costs."""
        for i in range(0, 60, 7):
            stats = hybrid.query(gaussian_points[i], radius=1.5).stats
            if stats.estimated_lsh_cost < stats.linear_cost:
                assert stats.strategy == Strategy.LSH
            else:
                assert stats.strategy == Strategy.LINEAR

    def test_forced_linear_by_extreme_model(self, l2_index, gaussian_points):
        """With alpha astronomically high every query goes linear."""
        searcher = HybridSearcher(l2_index, CostModel(alpha=1e12, beta=1.0))
        result = searcher.query(gaussian_points[0], radius=1.0)
        assert result.stats.strategy == Strategy.LINEAR

    def test_forced_lsh_by_extreme_model(self, l2_index, gaussian_points):
        """With beta astronomically high (linear cost huge) LSH always wins."""
        searcher = HybridSearcher(l2_index, CostModel(alpha=1e-12, beta=1.0))
        result = searcher.query(gaussian_points[0], radius=1.0)
        assert result.stats.strategy == Strategy.LSH

    def test_decide_matches_query(self, hybrid, gaussian_points):
        for i in (0, 13, 57):
            decided = hybrid.decide(gaussian_points[i])
            ran = hybrid.query(gaussian_points[i], radius=1.5).stats.strategy
            assert decided == ran


class TestAnswers:
    def test_linear_branch_is_exact(self, l2_index, gaussian_points):
        searcher = HybridSearcher(l2_index, CostModel(alpha=1e12, beta=1.0))
        scan = LinearScan(gaussian_points, "l2")
        q = gaussian_points[4]
        hybrid_ids = searcher.query(q, radius=1.5).ids
        exact_ids = scan.query(q, radius=1.5).ids
        assert np.array_equal(hybrid_ids, exact_ids)

    def test_lsh_branch_matches_pure_lsh(self, l2_index, gaussian_points):
        searcher = HybridSearcher(l2_index, CostModel(alpha=1e-12, beta=1.0))
        pure = LSHSearch(l2_index)
        q = gaussian_points[4]
        assert np.array_equal(
            searcher.query(q, radius=1.5).ids, pure.query(q, radius=1.5).ids
        )

    def test_no_false_positives_either_branch(self, hybrid, gaussian_points):
        for i in (0, 30, 55):
            q = gaussian_points[i]
            result = hybrid.query(q, radius=1.2)
            dists = np.linalg.norm(gaussian_points[result.ids] - q, axis=1)
            assert np.all(dists <= 1.2)


class TestStatsBuiltOnce:
    def test_one_query_stats_per_row_of_a_mixed_batch(self, monkeypatch, gaussian_points):
        """Each row's ``QueryStats`` is built once, with the dispatch facts:
        the linear rows get the scan's ``(ids, distances)``, not a result
        with stats of its own to throw away.  Counted on a batch whose
        rows go both ways, and on an all-linear one."""
        import repro.core.hybrid as hybrid_module
        import repro.core.linear_scan as linear_module

        built = []

        def counting(*args, **kwargs):
            built.append(kwargs.get("strategy"))
            return QueryStats(*args, **kwargs)

        index = Index.build(
            gaussian_points, IndexSpec(metric="l2", radius=1.2, cost_ratio=1.0, seed=4)
        )
        searcher = index.engine.searcher
        queries = gaussian_points[::10]
        expected = searcher.query_batch(queries, 1.2)
        assert {r.stats.strategy for r in expected} == {Strategy.LSH, Strategy.LINEAR}
        monkeypatch.setattr(hybrid_module, "QueryStats", counting)
        monkeypatch.setattr(linear_module, "QueryStats", counting)
        results = searcher.query_batch(queries, 1.2)
        assert len(built) == len(queries)
        assert [r.stats for r in results] == [r.stats for r in expected]

        del built[:]
        all_linear = HybridSearcher(searcher.index, CostModel(alpha=1e12, beta=1.0))
        results = all_linear.query_batch(queries, 1.2)
        assert len(built) == len(queries)
        assert {r.stats.strategy for r in results} == {Strategy.LINEAR}
        index.close()


class TestServedSearcher:
    """The searcher ``Index.build`` serves: paper presets for the metric,
    the spec's cost model, Algorithm 2 per query."""

    @staticmethod
    def served(points, **spec):
        index = Index.build(points, IndexSpec(**{"seed": 3, **spec}))
        return index, index.engine.searcher

    def test_end_to_end_l2(self, gaussian_points):
        index, searcher = self.served(gaussian_points, metric="l2", radius=1.0, num_tables=10)
        result = searcher.query(gaussian_points[0], 1.0)
        assert 0 in result.ids
        assert result.radius == 1.0
        index.close()

    def test_query_batch(self, gaussian_points):
        index, searcher = self.served(gaussian_points, metric="l2", radius=1.0, num_tables=6)
        assert len(searcher.query_batch(gaussian_points[:5], 1.0)) == 5
        index.close()

    def test_radius_override(self, gaussian_points):
        index, _ = self.served(gaussian_points, metric="l2", radius=1.0, num_tables=6)
        assert index.query(QuerySpec(gaussian_points[0], radius=0.4)).radius == 0.4
        index.close()

    def test_calibration_path(self, gaussian_points):
        """cost_ratio=None triggers timing calibration and still works."""
        index, searcher = self.served(
            gaussian_points[:200], metric="l2", radius=1.0, num_tables=4, cost_ratio=None
        )
        assert searcher.cost_model.beta_over_alpha > 0
        assert searcher.query(gaussian_points[0], 1.0).output_size >= 1
        index.close()

    def test_binary_points(self, binary_points):
        index, searcher = self.served(
            binary_points, metric="hamming", radius=4.0, num_tables=10, cost_ratio=1.0
        )
        assert 0 in searcher.query(binary_points[0], 4.0).ids
        index.close()

    def test_repr(self, gaussian_points):
        index, searcher = self.served(gaussian_points, metric="l2", radius=1.0, num_tables=4)
        assert "HybridSearcher" in repr(searcher)
        index.close()
