"""Tests for classic LSH-based rNNR search."""

import numpy as np

from repro.core import LinearScan, LSHSearch, Strategy
from repro.core.presets import paper_parameters
from repro.evaluation.metrics import mean_recall
from repro.index import LSHIndex


class TestLSHSearch:
    def test_reports_only_true_neighbors(self, l2_index, gaussian_points):
        """No false positives: every reported point is within r (verified)."""
        searcher = LSHSearch(l2_index)
        q = gaussian_points[0]
        result = searcher.query(q, radius=1.5)
        dists = np.linalg.norm(gaussian_points[result.ids] - q, axis=1)
        assert np.all(dists <= 1.5)

    def test_subset_of_ground_truth(self, l2_index, gaussian_points):
        searcher = LSHSearch(l2_index)
        scan = LinearScan(gaussian_points, "l2")
        q = gaussian_points[5]
        lsh_ids = set(searcher.query(q, 1.5).ids.tolist())
        true_ids = set(scan.query(q, 1.5).ids.tolist())
        assert lsh_ids <= true_ids

    def test_self_is_found(self, l2_index, gaussian_points):
        searcher = LSHSearch(l2_index)
        result = searcher.query(gaussian_points[9], radius=0.5)
        assert 9 in result.ids

    def test_stats_filled(self, l2_index, gaussian_points):
        result = LSHSearch(l2_index).query(gaussian_points[0], 1.0)
        assert result.stats.strategy == Strategy.LSH
        assert result.stats.num_collisions > 0
        assert result.stats.exact_candidates >= result.output_size

    def test_empty_candidates(self, l2_index):
        """A far-away query may hit no buckets and report nothing."""
        far = np.full(16, 1e6)
        result = LSHSearch(l2_index).query(far, radius=1.0)
        assert result.output_size == 0

    def test_filter_gathers_the_rows_fancy_indexing_would(
        self, l2_index, gaussian_points, tmp_path
    ):
        """Step S3 gathers with ``take`` over plain views: the floats are
        those of ``points[candidates]``, on a memory-mapped matrix too."""
        searcher = LSHSearch(l2_index)
        metric = l2_index.family.metric
        query, radius = gaussian_points[5] + 0.01, 2.5
        candidates = np.arange(3, gaussian_points.shape[0], 4)
        state = metric.prepare_points(gaussian_points)
        expected = metric.distances_to_prepared(
            gaussian_points[candidates], query, state[candidates]
        )
        ids, distances = searcher.filter_candidates(query, radius, candidates)
        assert np.array_equal(ids, candidates[expected <= radius]) and ids.size
        assert np.array_equal(distances, expected[expected <= radius])

        np.save(tmp_path / "points.npy", gaussian_points)
        l2_index.points = np.load(tmp_path / "points.npy", mmap_mode="r")
        mapped = LSHSearch(l2_index).filter_candidates(query, radius, candidates)
        assert type(mapped[1]) is np.ndarray
        assert np.array_equal(mapped[0], ids) and np.array_equal(mapped[1], distances)

    def test_distances_sorted_by_id(self, l2_index, gaussian_points):
        q = gaussian_points[2]
        result = LSHSearch(l2_index).query(q, 2.0)
        assert np.all(np.diff(result.ids) > 0)

    def test_recall_matches_analytic_expectation(self, gaussian_points):
        """Measured recall tracks the analytic per-neighbor expectation.

        Each true neighbor at distance c is found with probability
        1 - (1 - p(c)^k)^L; averaging that over the actual neighbor
        distances predicts the measured recall.
        """
        from repro.hashing.params import expected_recall

        radius, delta, L = 1.2, 0.1, 30
        params = paper_parameters("l2", dim=16, radius=radius, num_tables=L, delta=delta, seed=5)
        index = LSHIndex(params.family, k=params.k, num_tables=L).build(gaussian_points)
        searcher = LSHSearch(index)
        scan = LinearScan(gaussian_points, "l2")
        queries = gaussian_points[:40]
        reported = [searcher.query(q, radius).ids for q in queries]
        truth_results = [scan.query(q, radius) for q in queries]
        truth = [r.ids for r in truth_results]
        measured = mean_recall(reported, truth)

        all_dists = np.concatenate([r.distances for r in truth_results])
        probs = params.family.collision_probability_batch(all_dists)
        analytic = expected_recall(probs, k=params.k, num_tables=L)
        assert abs(measured - analytic) < 0.12
        assert measured > 0.6
