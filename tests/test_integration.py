"""Cross-module integration tests: the paper's claims at small scale."""

import numpy as np
import pytest

from repro.api import Index, IndexSpec, QuerySpec
from repro.core import CostModel, HybridSearcher, LinearScan, LSHSearch, Strategy
from repro.datasets import mnist_like, split_queries, webspam_like
from repro.evaluation import GroundTruth, mean_recall


def paper_index(data, metric, radius, num_tables, seed) -> Index:
    """``Index.build`` with the paper presets at ``radius``."""
    return Index.build(
        data, IndexSpec(metric=metric, radius=radius, num_tables=num_tables, seed=seed)
    )


class TestHybridMatchesBetterStrategy:
    """Algorithm 2's core promise: per query, hybrid pays (almost) the
    cheaper of the two pure strategies' costs."""

    @pytest.fixture(scope="class")
    def webspam_setup(self):
        ds = webspam_like(n=2500, seed=1)
        data, queries = split_queries(ds.points, num_queries=30, seed=1)
        # L = 40 keeps the test fast while preserving the collision
        # volume that makes farm-core queries route to linear search.
        built = paper_index(data, "cosine", radius=0.08, num_tables=40, seed=1)
        model = CostModel.from_ratio(10.0)
        yield data, queries, built.engine.index, model
        built.close()

    def test_hard_queries_route_to_linear(self, webspam_setup):
        """Queries whose collision volume rivals n must go linear."""
        data, queries, index, model = webspam_setup
        hybrid = HybridSearcher(index, model)
        n = data.shape[0]
        for q in queries:
            stats = hybrid.query(q, radius=0.08).stats
            # Whenever collisions alone exceed the linear budget
            # (alpha * collisions > beta * n), hybrid must not run LSH.
            if model.alpha * stats.num_collisions > model.linear_cost(n):
                assert stats.strategy == Strategy.LINEAR

    def test_hybrid_recall_at_least_lsh_recall(self, webspam_setup):
        """Linear fallbacks are exact, so hybrid recall >= LSH recall."""
        data, queries, index, model = webspam_setup
        truth = GroundTruth(data, queries, "cosine")
        hybrid = HybridSearcher(index, model)
        lsh = LSHSearch(index)
        radius = 0.08
        truth_sets = truth.neighbor_sets(radius)
        hybrid_recall = mean_recall([hybrid.query(q, radius).ids for q in queries], truth_sets)
        lsh_recall = mean_recall([lsh.query(q, radius).ids for q in queries], truth_sets)
        assert hybrid_recall >= lsh_recall - 1e-9

    def test_mixed_workload_has_both_strategies(self, webspam_setup):
        """Webspam-like data produces both easy and hard queries."""
        data, queries, index, model = webspam_setup
        hybrid = HybridSearcher(index, model)
        strategies = {hybrid.query(q, radius=0.08).stats.strategy for q in queries}
        assert strategies == {Strategy.LSH, Strategy.LINEAR}

    def test_estimated_cost_tracks_real_candidates(self, webspam_setup):
        """candSize estimates stay within the HLL error envelope."""
        data, queries, index, _ = webspam_setup
        errors = []
        for q in queries[:15]:
            lookup = index.lookup(q)
            exact = index.candidate_ids(lookup).size
            if exact < 10:
                continue
            estimate = index.merged_sketch(lookup).estimate()
            errors.append(abs(estimate - exact) / exact)
        assert errors, "expected some queries with candidates"
        assert float(np.mean(errors)) < 0.2


class TestMnistPipeline:
    """The full MNIST path: images -> fingerprints -> bit sampling."""

    def test_end_to_end(self):
        ds = mnist_like(n=1500, seed=2)
        data, queries = split_queries(ds.points, num_queries=20, seed=2)
        built = paper_index(data, "hamming", radius=14.0, num_tables=15, seed=2)
        hybrid = HybridSearcher(built.engine.index, CostModel.from_ratio(1.0))
        scan = LinearScan(data, "hamming")
        found_any = 0
        for q in queries:
            result = hybrid.query(q, radius=14.0)
            exact = scan.query(q, radius=14.0)
            assert set(result.ids.tolist()) <= set(exact.ids.tolist())
            found_any += result.output_size
        assert found_any > 0
        built.close()

    def test_same_class_images_are_neighbors(self):
        ds = mnist_like(n=1000, seed=3)
        labels = ds.extras["labels"]
        scan = LinearScan(ds.points, "hamming")
        hits = []
        for i in range(20):
            result = scan.query(ds.points[i], radius=float(max(ds.radii)))
            neighbor_labels = labels[result.ids]
            if result.output_size > 1:
                hits.append(float(np.mean(neighbor_labels == labels[i])))
        # Mean purity must far exceed the 1/num_classes = 5% base rate.
        assert hits and np.mean(hits) > 0.5


class TestDeltaGuaranteeAcrossFamilies:
    """Definition 1: each near point reported with prob >= 1 - delta
    (up to the documented ceil-rule slack)."""

    @pytest.mark.parametrize("metric,radius", [("cosine", 0.3), ("hamming", 5.0)])
    def test_reporting_probability(self, metric, radius, rng):
        if metric == "cosine":
            points = rng.normal(size=(400, 24))
        else:
            base = rng.integers(0, 2, size=24)
            flips = rng.random(size=(400, 24)) < 0.08
            points = (base ^ flips).astype(np.uint8)
        built = paper_index(points, metric, radius=radius, num_tables=20, seed=0)
        searcher = LSHSearch(built.engine.index)
        scan = LinearScan(points, metric)
        queries = points[:30]
        truth = [scan.query(q, radius).ids for q in queries]
        reported = [searcher.query(q, radius).ids for q in queries]
        built.close()
        measured = mean_recall(reported, truth)
        assert measured >= 0.75  # 1 - delta = 0.9 target, ceil-rule slack


class TestSeededReproducibility:
    def test_full_pipeline_deterministic(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(500, 16))

        def run():
            built = paper_index(points, "l2", radius=1.0, num_tables=8, seed=42)
            answers = [built.query(QuerySpec(points[i])).ids.tolist() for i in range(5)]
            built.close()
            return answers

        assert run() == run()
