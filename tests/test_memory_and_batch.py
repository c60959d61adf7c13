"""Tests for memory accounting and batched hybrid queries."""

import numpy as np
import pytest

from repro.api import Index, IndexSpec
from repro.core import CostModel, HybridSearcher
from repro.exceptions import EmptyIndexError
from repro.hashing import PStableLSH
from repro.index import LSHIndex


class TestMemoryReport:
    def test_keys_present(self, l2_index):
        report = l2_index.memory_report()
        assert set(report) == {"points", "bucket_ids", "bucket_keys", "sketches", "total"}

    def test_total_is_sum(self, l2_index):
        report = l2_index.memory_report()
        assert report["total"] == (
            report["points"] + report["bucket_ids"] + report["bucket_keys"] + report["sketches"]
        )

    def test_bucket_ids_accounting(self, l2_index, gaussian_points):
        """Each point stored once per table at 8 bytes per id."""
        report = l2_index.memory_report()
        assert report["bucket_ids"] == 8 * gaussian_points.shape[0] * 10

    def test_paper_space_claim(self, gaussian_points):
        """§3.2: with the lazy threshold, sketch memory stays below the
        id storage of the buckets that carry sketches (m < 8m each)."""
        index = LSHIndex(
            PStableLSH(16, w=4.0, p=2, seed=1), k=2, num_tables=8, hll_precision=5
        ).build(gaussian_points)
        report = index.memory_report()
        assert report["sketches"] < report["bucket_ids"]

    def test_unbuilt_raises(self):
        index = LSHIndex(PStableLSH(4, w=1.0, p=2, seed=0), k=2, num_tables=2)
        with pytest.raises(EmptyIndexError):
            index.memory_report()


def fig1_landscape(n, dim, seed):
    """Fig. 1 in miniature: one tight cluster (30 %), five mid clusters
    (50 %), a uniform background."""
    rng = np.random.default_rng(seed)
    dense = 5.0 + 0.08 * rng.normal(size=(int(0.3 * n), dim))
    centres = rng.uniform(0.0, 10.0, size=(5, dim))
    mid = centres[np.arange(int(0.5 * n)) % 5] + 0.10 * rng.normal(
        size=(int(0.5 * n), dim)
    )
    background = rng.uniform(0.0, 10.0, size=(n - len(dense) - len(mid), dim))
    return np.concatenate([dense, mid, background])


class TestBytesPerPointBudget:
    """The benchmark's ``index_bytes_per_point`` as a deterministic
    tier-1 count (n = 2000, L = 50, k = 7): the frozen layout's bucket
    addressing — a uint64 ``key64`` plus the narrow full hash row per
    bucket — must stay a fraction of the dict layout's 8 k-byte keys."""

    N, TABLES = 2000, 50

    def report(self, layout):
        points = fig1_landscape(self.N, 16, seed=11)
        spec = IndexSpec(
            metric="l2", radius=1.5, num_tables=self.TABLES, hll_precision=7,
            seed=11, layout=layout,
        )
        raw = Index.build(points, spec).engine.index
        return raw, raw.memory_report()

    def test_frozen_layout_stays_under_budget(self):
        raw, report = self.report("frozen")
        csr = raw.frozen
        assert report["total"] / self.N <= 720  # 1206 with format v1's byte keys
        # bucket_keys counts every byte that addresses a bucket.
        assert csr.key64.dtype == np.uint64 and csr.keys.dtype == np.int8
        assert report["bucket_keys"] == csr.key64.nbytes + csr.keys.nbytes
        assert report["bucket_keys"] == csr.num_buckets * (8 + raw.k)
        assert report["bucket_ids"] == 8 * self.N * self.TABLES
        assert report["total"] == sum(
            report[part] for part in ("points", "bucket_ids", "bucket_keys", "sketches")
        )

    def test_dict_layout_report_is_unchanged(self):
        raw, report = self.report("dict")
        assert report == {
            "points": 256000,
            "bucket_ids": 800000,
            "bucket_keys": 1338568,
            "sketches": 16896,
            "total": 2411464,
        }
        assert report["bucket_keys"] == 8 * raw.k * sum(
            table.num_buckets for table in raw.tables
        )


class TestQueryBatch:
    @pytest.fixture
    def hybrid(self, l2_index):
        return HybridSearcher(l2_index, CostModel.from_ratio(6.0))

    def test_matches_single_queries(self, hybrid, gaussian_points):
        queries = gaussian_points[:12]
        batch = hybrid.query_batch(queries, radius=1.2)
        for q, batched_result in zip(queries, batch):
            single = hybrid.query(q, radius=1.2)
            assert np.array_equal(batched_result.ids, single.ids)
            assert batched_result.stats.strategy == single.stats.strategy
            assert batched_result.stats.num_collisions == single.stats.num_collisions

    def test_stats_filled(self, hybrid, gaussian_points):
        results = hybrid.query_batch(gaussian_points[:3], radius=1.0)
        for result in results:
            assert result.stats.estimated_lsh_cost >= 0
            assert result.stats.linear_cost > 0

    def test_invalid_radius(self, hybrid, gaussian_points):
        with pytest.raises(Exception):
            hybrid.query_batch(gaussian_points[:3], radius=0.0)
