"""Tests for a sharded index, driven through ``Index(num_shards > 1)``.

Every sharded index is served by the worker pool; with the default
``execution="threads"`` its endpoints run inline in this process.
"""

import numpy as np
import pytest

from conftest import served_shards, shard_answers
from repro.api import Index, IndexSpec, QuerySpec
from repro.core import LinearScan, Strategy
from repro.distances.matrix import pairwise_distances
from repro.exceptions import ConfigurationError


def build_sharded(points, **spec) -> Index:
    return Index.build(points, IndexSpec(metric="l2", radius=1.0, **spec))


@pytest.fixture
def sharded(gaussian_points):
    index = build_sharded(gaussian_points, num_shards=3, num_tables=6, seed=2)
    yield index
    index.close()


def shard_gids(n: int, num_shards: int) -> list[np.ndarray]:
    """The round-robin partition: shard ``s`` holds rows ``s, s + K, ...``."""
    return [np.arange(s, n, num_shards) for s in range(num_shards)]


def exact_topk(points, query, k):
    distances = pairwise_distances(query, points, "l2")[0]
    order = np.lexsort((np.arange(points.shape[0]), distances))[:k]
    return order, distances[order]


class TestConstruction:
    def test_partition_is_balanced_and_disjoint(self, sharded, gaussian_points):
        sizes = sharded.engine.shard_sizes()
        assert sum(sizes) == gaussian_points.shape[0]
        assert max(sizes) - min(sizes) <= 1
        gids = shard_gids(gaussian_points.shape[0], 3)
        for shard, rows in zip(served_shards(sharded), gids):
            assert np.array_equal(shard.points, gaussian_points[rows])

    def test_too_many_shards_rejected(self, rng):
        with pytest.raises(ConfigurationError, match="must not exceed the dataset size"):
            build_sharded(rng.normal(size=(4, 3)), num_shards=5)


class TestRadiusSemantics:
    def test_merge_is_union_of_shard_answers(self, sharded, gaussian_points):
        """The merged result must be exactly the per-shard answers under
        the global id map — the shards partition the data, so the union
        is disjoint."""
        pool = sharded.engine
        gids = shard_gids(gaussian_points.shape[0], 3)
        for i in (0, 57, 301, 599):
            query = gaussian_points[i]
            merged = sharded.query(QuerySpec(query, radius=1.5))
            expected = {}
            for s, rows in enumerate(gids):
                (local,) = shard_answers(pool, s, query[None, :], 1.5)
                for local_id, dist in zip(local.ids, local.distances):
                    expected[int(rows[local_id])] = dist
            assert merged.ids.tolist() == sorted(expected)
            assert np.array_equal(
                merged.distances, np.array([expected[i] for i in sorted(expected)])
            )

    def test_linear_shards_cover_their_partition_exactly(self, gaussian_points):
        """A shard that dispatches to linear search reports *every* of
        its points in range; with collisions in the query's own shard,
        alpha -> inf forces that shard linear and the self-neighborhood
        is complete."""
        # beta / alpha = 1e-12: the cost model of alpha = 1e12, beta = 1.
        index = build_sharded(
            gaussian_points, num_shards=4, num_tables=4, cost_ratio=1e-12, seed=0
        )
        scan = LinearScan(gaussian_points, "l2")
        gids = shard_gids(gaussian_points.shape[0], 4)
        for i in (0, 57, 301, 599):
            merged = index.query(QuerySpec(gaussian_points[i], radius=1.5))
            exact = scan.query(gaussian_points[i], radius=1.5)
            # No false positives ever, and nothing missed in any shard
            # that went linear (zero-collision shards legitimately pick
            # LSH under Algorithm 2 — their cost estimate is zero).
            assert set(merged.ids) <= set(exact.ids)
            exact_in_own = np.intersect1d(exact.ids, gids[i % 4])
            assert set(exact_in_own) <= set(merged.ids)
        index.close()

    def test_hybrid_mode_answers_are_valid(self, sharded, gaussian_points):
        for i in (3, 140, 502):
            result = sharded.query(QuerySpec(gaussian_points[i]))
            assert i in result.ids
            assert np.all(np.diff(result.ids) > 0)  # global ids, strictly sorted
            true_dists = np.linalg.norm(
                gaussian_points[result.ids] - gaussian_points[i], axis=1
            )
            # atol reflects the batch kernel's cancellation noise near
            # zero distance (see test_properties tolerances).
            assert np.allclose(true_dists, result.distances, atol=1e-5)
            assert np.all(result.distances <= 1.0 + 1e-9)

    def test_batch_matches_single_loop(self, sharded, gaussian_points):
        queries = gaussian_points[::41]
        batched = sharded.query(QuerySpec(queries))
        for query, result in zip(queries, batched):
            single = sharded.query(QuerySpec(query))
            assert np.array_equal(single.ids, result.ids)
            assert np.array_equal(single.distances, result.distances)

    def test_merged_stats_aggregate_shards(self, sharded, gaussian_points):
        (result,) = sharded.engine.query_batch(gaussian_points[:1])
        assert result.stats.strategy == Strategy.HYBRID
        beta = sharded.cost_model.beta
        assert result.stats.linear_cost == pytest.approx(beta * sharded.n)


class TestTopK:
    def test_matches_unsharded_exact_topk(self, sharded, gaussian_points):
        for i, k in ((0, 1), (99, 7), (580, 25)):
            result = sharded.query(QuerySpec(gaussian_points[i], k=k))
            ids, dists = exact_topk(gaussian_points, gaussian_points[i], k)
            assert np.array_equal(result.ids, ids)
            # Per-shard kernels may differ from the monolithic one by
            # summation-order ulps (amplified near zero by cancellation).
            assert np.allclose(result.distances, dists, atol=1e-5)
            assert result.radius == result.distances[-1]

    def test_batch_topk(self, sharded, gaussian_points):
        queries = gaussian_points[:5]
        results = sharded.query(QuerySpec(queries, k=4))
        for query, result in zip(queries, results):
            ids, dists = exact_topk(gaussian_points, query, 4)
            assert np.array_equal(result.ids, ids)

    def test_k_bounds(self, sharded, gaussian_points):
        with pytest.raises(ConfigurationError):
            sharded.query(QuerySpec(gaussian_points[0], k=0))
        with pytest.raises(ConfigurationError):
            sharded.query(QuerySpec(gaussian_points[0], k=sharded.n + 1))


class TestInsert:
    def test_global_ids_and_balance(self, sharded, gaussian_points, rng):
        n0 = sharded.n
        new_points = rng.normal(size=(7, gaussian_points.shape[1]))
        ids = sharded.insert(new_points)
        assert ids.tolist() == list(range(n0, n0 + 7))
        assert sharded.n == n0 + 7
        sizes = sharded.engine.shard_sizes()
        assert max(sizes) - min(sizes) <= 1  # round-robin keeps balance

    def test_insert_then_query_sees_new_points(self, sharded, gaussian_points):
        """Regression: the stale-points hazard on the sharded path."""
        new_points = gaussian_points[:3] + 1e-4
        ids = sharded.insert(new_points)
        for new_id, query in zip(ids, new_points):
            result = sharded.query(QuerySpec(query))
            assert new_id in result.ids

    def test_insert_then_topk_is_exact(self, sharded, gaussian_points, rng):
        new_points = rng.normal(size=(5, gaussian_points.shape[1]))
        ids = sharded.insert(new_points)
        everything = np.concatenate([gaussian_points, new_points])
        for new_id, query in zip(ids, new_points):
            result = sharded.query(QuerySpec(query, k=3))
            exact_ids, _ = exact_topk(everything, query, 3)
            assert result.ids[0] == new_id
            assert np.array_equal(result.ids, exact_ids)

    def test_empty_insert(self, sharded, gaussian_points):
        assert sharded.insert(np.empty((0, gaussian_points.shape[1]))).size == 0
