"""Tests for the batched query engine (repro.service.batch)."""

import numpy as np
import pytest

from repro.api import Index, IndexSpec
from repro.core import CostModel, HybridSearcher, Strategy
from repro.exceptions import ConfigurationError
from repro.service import BatchQueryEngine


def build(points, radius, num_tables, seed) -> Index:
    return Index.build(
        points, IndexSpec(metric="l2", radius=radius, num_tables=num_tables, seed=seed)
    )


@pytest.fixture
def searcher(gaussian_points) -> HybridSearcher:
    """The searcher ``Index.build`` serves (paper presets, ratio 6)."""
    index = build(gaussian_points, radius=1.2, num_tables=8, seed=3)
    yield index.engine.searcher
    index.close()


def assert_results_identical(expected, actual):
    assert len(expected) == len(actual)
    for exp, act in zip(expected, actual):
        assert np.array_equal(exp.ids, act.ids)
        assert np.array_equal(exp.distances, act.distances)
        assert exp.stats.strategy == act.stats.strategy
        assert exp.stats.num_collisions == act.stats.num_collisions
        assert exp.stats.estimated_candidates == act.stats.estimated_candidates
        assert exp.stats.estimated_lsh_cost == act.stats.estimated_lsh_cost
        assert exp.stats.linear_cost == act.stats.linear_cost
        assert exp.stats.exact_candidates == act.stats.exact_candidates


class TestBatchEqualsSequential:
    def test_default_model(self, searcher, gaussian_points):
        queries = gaussian_points[::9]
        engine = BatchQueryEngine(searcher, radius=1.2)
        sequential = [searcher.query(q, 1.2) for q in queries]
        assert_results_identical(sequential, engine.query_batch(queries))

    @pytest.mark.parametrize("alpha", [1e12, 1e-12])
    def test_forced_branches(self, l2_index, gaussian_points, alpha):
        """Extreme cost models push every query down one branch; both
        the grouped-linear and the vectorised-LSH path must match."""
        searcher = HybridSearcher(l2_index, CostModel(alpha=alpha, beta=1.0))
        queries = gaussian_points[:25]
        sequential = [searcher.query(q, 1.0) for q in queries]
        engine = BatchQueryEngine(searcher, radius=1.0)
        batched = engine.query_batch(queries)
        expected = Strategy.LINEAR if alpha > 1 else Strategy.LSH
        assert all(r.stats.strategy == expected for r in batched)
        assert_results_identical(sequential, batched)

    def test_mixed_batch_covers_both_strategies(self, searcher, gaussian_points):
        """On the clustered fixture the default model should split; if it
        does, the batch path must reproduce the split exactly."""
        queries = gaussian_points
        engine = BatchQueryEngine(searcher, radius=1.2)
        batched = engine.query_batch(queries)
        sequential = [searcher.query(q, 1.2) for q in queries]
        assert_results_identical(sequential, batched)

    def test_scalar_dedup_engine_matches_vectorized(self, searcher, gaussian_points):
        queries = gaussian_points[:20]
        vec = BatchQueryEngine(searcher, radius=1.2, dedup="vectorized")
        scal = BatchQueryEngine(searcher, radius=1.2, dedup="scalar")
        assert_results_identical(scal.query_batch(queries), vec.query_batch(queries))


class TestEngineSurface:
    def test_built_engine_single_query(self, gaussian_points):
        index = build(gaussian_points, radius=1.0, num_tables=6, seed=1)
        engine = index.engine
        result = engine.query_batch(gaussian_points[11][None])[0]
        assert 11 in result.ids
        assert engine.n == gaussian_points.shape[0]
        assert engine.dim == gaussian_points.shape[1]
        index.close()

    def test_radius_override_and_missing(self, searcher, gaussian_points):
        engine = BatchQueryEngine(searcher)  # no default radius
        with pytest.raises(ConfigurationError):
            engine.query_batch(gaussian_points[0][None])
        assert engine.query_batch(gaussian_points[0][None], radius=0.8)[0].radius == 0.8

    def test_rejects_bad_dedup(self, searcher):
        with pytest.raises(ConfigurationError):
            BatchQueryEngine(searcher, dedup="nope")


class TestInsertThenBatchQuery:
    """Regression for the stale-``points`` hazard: a batch issued after
    an insert must search the refreshed matrix on every branch."""

    def test_linear_branch_sees_inserts(self, l2_index, gaussian_points, rng):
        searcher = HybridSearcher(l2_index, CostModel(alpha=1e12, beta=1.0))
        engine = BatchQueryEngine(searcher, radius=1.0)
        engine.query_batch(gaussian_points[:3])  # prime any cached state
        new_points = gaussian_points[:4] + 1e-4
        new_ids = engine.insert(new_points)
        results = engine.query_batch(new_points)
        for new_id, result in zip(new_ids, results):
            assert result.stats.strategy == Strategy.LINEAR
            assert new_id in result.ids

    def test_lsh_branch_sees_inserts(self, l2_index, gaussian_points):
        searcher = HybridSearcher(l2_index, CostModel(alpha=1e-12, beta=1.0))
        engine = BatchQueryEngine(searcher, radius=1.0)
        new_points = gaussian_points[10:13] + 1e-4
        new_ids = engine.insert(new_points)
        results = engine.query_batch(new_points)
        for new_id, result in zip(new_ids, results):
            assert result.stats.strategy == Strategy.LSH
            assert new_id in result.ids

    def test_batch_after_insert_matches_sequential(self, searcher, gaussian_points):
        engine = BatchQueryEngine(searcher, radius=1.2)
        engine.insert(gaussian_points[:6] + 2.5)
        queries = gaussian_points[::17]
        sequential = [searcher.query(q, 1.2) for q in queries]
        assert_results_identical(sequential, engine.query_batch(queries))


class TestMultiProbeBatch:
    """Regression: the batched path must probe the same buckets as the
    single-query path on a multi-probe index."""

    @pytest.fixture
    def probed_index(self, gaussian_points):
        from repro.hashing import PStableLSH
        from repro.index import MultiProbeLSHIndex

        return MultiProbeLSHIndex(
            PStableLSH(dim=16, w=2.0, p=2, seed=7),
            k=4,
            num_tables=6,
            num_probes=2,
            seed=5,
        ).build(gaussian_points)

    def test_lookup_batch_includes_probe_buckets(self, probed_index, gaussian_points):
        queries = gaussian_points[:15]
        batched = probed_index.lookup_batch(queries)
        for query, lookup in zip(queries, batched):
            single = probed_index.lookup(query)
            assert lookup.keys == single.keys  # home + probes, same order
            assert lookup.num_collisions == single.num_collisions
            assert np.array_equal(
                probed_index.candidate_ids(lookup),
                probed_index.candidate_ids(single),
            )

    def test_engine_matches_sequential_on_multiprobe(self, probed_index, gaussian_points):
        searcher = HybridSearcher(probed_index, CostModel.from_ratio(6.0))
        queries = gaussian_points[::31]
        sequential = [searcher.query(q, 1.2) for q in queries]
        engine = BatchQueryEngine(searcher, radius=1.2)
        assert_results_identical(sequential, engine.query_batch(queries))


class TestMergedSketchesBatch:
    def test_bit_identical_to_single_merges(self, l2_index, gaussian_points):
        lookups = l2_index.lookup_batch(gaussian_points[:30])
        batched = l2_index.merged_sketches_batch(lookups)
        for lookup, sketch in zip(lookups, batched):
            single = l2_index.merged_sketch(lookup)
            assert np.array_equal(single.registers, sketch.registers)
            assert single.estimate() == sketch.estimate()
