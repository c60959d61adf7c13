"""Tests for the fused all-tables hashing (BatchedHash)."""

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError
from repro.hashing import BitSamplingLSH, PStableLSH, SimHashLSH
from repro.hashing.batched import BatchedHash

RNG = np.random.default_rng(55)


def real_points(n=40, d=12):
    return RNG.normal(size=(n, d))


def binary_points(n=40, d=12):
    return RNG.integers(0, 2, size=(n, d)).astype(np.uint8)


class TestShapes:
    @pytest.mark.parametrize(
        "family,points",
        [
            (PStableLSH(12, w=2.0, p=2, seed=1), real_points()),
            (PStableLSH(12, w=2.0, p=1, seed=1), real_points()),
            (SimHashLSH(12, seed=1), real_points()),
            (BitSamplingLSH(12, seed=1), binary_points()),
        ],
        ids=["l2", "l1", "simhash", "bits"],
    )
    def test_hash_points_shape(self, family, points):
        batched = family.sample_batch(k=3, num_tables=5)
        out = batched.hash_points(points)
        assert out.shape == (points.shape[0], 5, 3)
        assert out.dtype == np.int64

    def test_query_rows_shape(self):
        batched = SimHashLSH(12, seed=1).sample_batch(k=4, num_tables=7)
        rows = batched.query_rows(RNG.normal(size=12))
        assert rows.shape == (7, 4)

    def test_dimension_validation(self):
        batched = SimHashLSH(12, seed=1).sample_batch(k=4, num_tables=7)
        with pytest.raises(DimensionMismatchError):
            batched.query_rows(np.zeros(13))
        with pytest.raises(DimensionMismatchError):
            batched.hash_points(np.zeros((3, 13)))


class TestConsistency:
    @pytest.mark.parametrize(
        "family,points",
        [
            (PStableLSH(12, w=2.0, p=2, seed=1), real_points()),
            (SimHashLSH(12, seed=1), real_points()),
            (BitSamplingLSH(12, seed=1), binary_points()),
        ],
        ids=["l2", "simhash", "bits"],
    )
    def test_query_rows_match_hash_points(self, family, points):
        """A vector hashed alone must land exactly where it lands in batch."""
        batched = family.sample_batch(k=3, num_tables=5)
        all_hashes = batched.hash_points(points)
        for i in (0, 7, 39):
            rows = batched.query_rows(points[i])
            assert np.array_equal(rows, all_hashes[i])

    def test_chunked_hashing_matches_unchunked(self, monkeypatch):
        """Chunk boundaries must not change any hash value."""
        import repro.hashing.batched as mod

        family = PStableLSH(8, w=1.5, p=2, seed=3)
        points = RNG.normal(size=(100, 8))
        batched = family.sample_batch(k=2, num_tables=3)
        full = batched.hash_points(points)
        monkeypatch.setattr(mod, "_CHUNK_ROWS", 7)
        chunked = batched.hash_points(points)
        assert np.array_equal(full, chunked)


class TestParams:
    @pytest.mark.parametrize(
        "family,kind,param_names",
        [
            (PStableLSH(8, w=2.0, p=2, seed=1), "pstable", {"projections", "offsets"}),
            (SimHashLSH(8, seed=1), "simhash", {"planes"}),
            (BitSamplingLSH(8, seed=1), "bit_sampling", {"coords"}),
        ],
        ids=["pstable", "simhash", "bits"],
    )
    def test_params_exposed(self, family, kind, param_names):
        batched = family.sample_batch(k=2, num_tables=3)
        assert batched.kind == kind
        assert set(batched.params) == param_names

    def test_kind_and_params_are_required(self):
        """A kernel always names its family and its saved arrays."""
        batched = SimHashLSH(8, seed=1).sample_batch(k=2, num_tables=3)
        with pytest.raises(TypeError, match="kind"):
            BatchedHash(batched.hash_points, k=2, num_tables=3, dim=8)
        with pytest.raises(TypeError, match="params"):
            BatchedHash(batched.hash_points, k=2, num_tables=3, dim=8, kind="simhash")

    def test_repr(self):
        batched = SimHashLSH(8, seed=1).sample_batch(k=2, num_tables=3)
        assert "BatchedHash" in repr(batched)
