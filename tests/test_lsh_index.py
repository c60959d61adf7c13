"""Tests for the L-table LSHIndex (Algorithm 1 + query primitives)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DimensionMismatchError, EmptyIndexError
from repro.hashing import PStableLSH, SimHashLSH
from repro.index import LSHIndex
from repro.sketches import HyperLogLog


class TestBuild:
    def test_every_point_in_every_table(self, l2_index, gaussian_points):
        n = gaussian_points.shape[0]
        for table in l2_index.tables:
            assert int(table.bucket_sizes().sum()) == n

    def test_n_and_dim(self, l2_index, gaussian_points):
        assert l2_index.n == gaussian_points.shape[0]
        assert l2_index.dim == 16

    def test_unbuilt_properties_raise(self):
        index = LSHIndex(SimHashLSH(4, seed=0), k=2, num_tables=3)
        assert not index.is_built
        with pytest.raises(EmptyIndexError):
            _ = index.n

    def test_build_empty_raises(self):
        index = LSHIndex(SimHashLSH(4, seed=0), k=2, num_tables=3)
        with pytest.raises((ConfigurationError, DimensionMismatchError)):
            index.build(np.empty((0, 4)))

    def test_wrong_dim_raises(self, rng):
        index = LSHIndex(SimHashLSH(4, seed=0), k=2, num_tables=3)
        with pytest.raises(DimensionMismatchError):
            index.build(rng.normal(size=(10, 5)))

    def test_table_count(self, l2_index):
        assert len(l2_index.tables) == 10

    def test_seeded_rebuild_is_identical(self, gaussian_points):
        def build():
            return LSHIndex(
                PStableLSH(16, w=2.0, p=2, seed=1), k=3, num_tables=4
            ).build(gaussian_points)

        a, b = build(), build()
        for ta, tb in zip(a.tables, b.tables):
            assert set(ta.buckets.keys()) == set(tb.buckets.keys())


class TestLookup:
    def test_lookup_shape(self, l2_index, gaussian_points):
        lookup = l2_index.lookup(gaussian_points[0])
        assert len(lookup.keys) == 10
        assert len(lookup.buckets) == 10
        assert len(lookup.hash_rows) == 10

    def test_indexed_point_found_in_all_tables(self, l2_index, gaussian_points):
        """An indexed point lands in its own bucket in every table."""
        lookup = l2_index.lookup(gaussian_points[5])
        for bucket in lookup.buckets:
            assert bucket is not None
            assert 5 in bucket.ids

    def test_num_collisions_at_least_L_for_member(self, l2_index, gaussian_points):
        assert l2_index.lookup(gaussian_points[0]).num_collisions >= 10

    def test_num_collisions_exact(self, l2_index, gaussian_points):
        """#collisions equals the sum of the query's bucket sizes."""
        lookup = l2_index.lookup(gaussian_points[3])
        manual = sum(b.size for b in lookup.buckets if b is not None)
        assert lookup.num_collisions == manual

    def test_dimension_mismatch(self, l2_index):
        with pytest.raises(DimensionMismatchError):
            l2_index.lookup(np.zeros(7))

    def test_unbuilt_lookup_raises(self):
        index = LSHIndex(SimHashLSH(4, seed=0), k=2, num_tables=3)
        with pytest.raises(EmptyIndexError):
            index.lookup(np.zeros(4))


class TestCandidates:
    def test_candidates_are_unique_and_sorted(self, l2_index, gaussian_points):
        lookup = l2_index.lookup(gaussian_points[0])
        cands = l2_index.candidate_ids(lookup)
        assert np.array_equal(cands, np.unique(cands))

    def test_candidates_subset_of_collisions(self, l2_index, gaussian_points):
        lookup = l2_index.lookup(gaussian_points[0])
        cands = l2_index.candidate_ids(lookup)
        assert cands.size <= lookup.num_collisions

    def test_candidates_equal_union_of_buckets(self, l2_index, gaussian_points):
        lookup = l2_index.lookup(gaussian_points[0])
        manual = set()
        for bucket in lookup.buckets:
            if bucket is not None:
                manual.update(bucket.ids.tolist())
        assert set(l2_index.candidate_ids(lookup).tolist()) == manual


class TestMergedSketch:
    def test_estimate_close_to_exact(self, l2_index, gaussian_points):
        """The merged-HLL candSize estimate tracks the exact distinct count."""
        errors = []
        for i in range(0, 50, 5):
            lookup = l2_index.lookup(gaussian_points[i])
            exact = l2_index.candidate_ids(lookup).size
            if exact == 0:
                continue
            estimate = l2_index.merged_sketch(lookup).estimate()
            errors.append(abs(estimate - exact) / exact)
        assert np.mean(errors) < 0.15  # paper: < 7% mean, m = 128

    def test_merged_sketch_matches_direct_sketch(self, l2_index, gaussian_points):
        """Merging bucket sketches == sketching the candidate union directly."""
        lookup = l2_index.lookup(gaussian_points[2])
        merged = l2_index.merged_sketch(lookup)
        direct = HyperLogLog(p=l2_index.hll_precision, seed=l2_index.hll_seed)
        direct.add_batch(l2_index.candidate_ids(lookup))
        assert merged == direct

    def test_sketchless_index_raises(self, gaussian_points):
        index = LSHIndex(
            PStableLSH(16, w=2.0, p=2, seed=1), k=3, num_tables=4, with_sketches=False
        ).build(gaussian_points)
        lookup = index.lookup(gaussian_points[0])
        with pytest.raises(ConfigurationError):
            index.merged_sketch(lookup)

    def test_sketchless_candidates_still_work(self, gaussian_points):
        index = LSHIndex(
            PStableLSH(16, w=2.0, p=2, seed=1), k=3, num_tables=4, with_sketches=False
        ).build(gaussian_points)
        lookup = index.lookup(gaussian_points[0])
        assert index.candidate_ids(lookup).size >= 1


class TestDiagnostics:
    def test_bucket_statistics_keys(self, l2_index):
        stats = l2_index.bucket_statistics()
        assert stats["tables"] == 10.0
        assert stats["buckets"] > 0
        assert 0.0 <= stats["sketched_fraction"] <= 1.0

    def test_sketch_memory_nonnegative(self, l2_index):
        assert l2_index.sketch_memory_bytes >= 0

    def test_lazy_threshold_zero_maximises_memory(self, gaussian_points):
        eager = LSHIndex(
            PStableLSH(16, w=2.0, p=2, seed=1), k=3, num_tables=4, lazy_threshold=0
        ).build(gaussian_points)
        lazy = LSHIndex(
            PStableLSH(16, w=2.0, p=2, seed=1), k=3, num_tables=4, lazy_threshold=None
        ).build(gaussian_points)
        assert eager.sketch_memory_bytes >= lazy.sketch_memory_bytes

    def test_repr(self, l2_index):
        assert "LSHIndex" in repr(l2_index)
