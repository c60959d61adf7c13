"""Tests for the distance kernels: correctness, batch/scalar agreement."""

import numpy as np
import pytest
from scipy.spatial.distance import cityblock, cosine as scipy_cosine, euclidean, hamming

from repro.distances import (
    cosine_distance,
    cosine_distance_batch,
    euclidean_distance,
    euclidean_distance_batch,
    hamming_distance,
    hamming_distance_batch,
    manhattan_distance,
    manhattan_distance_batch,
    pairwise_distances,
)

RNG = np.random.default_rng(999)


class TestEuclidean:
    def test_pythagoras(self):
        assert euclidean_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_matches_scipy(self):
        for _ in range(20):
            x, y = RNG.normal(size=(2, 9))
            assert euclidean_distance(x, y) == pytest.approx(euclidean(x, y))

    def test_batch_matches_scalar(self):
        points = RNG.normal(size=(50, 7))
        q = RNG.normal(size=7)
        batch = euclidean_distance_batch(points, q)
        for i in range(50):
            assert batch[i] == pytest.approx(euclidean_distance(points[i], q))

    def test_identity(self):
        x = RNG.normal(size=5)
        assert euclidean_distance(x, x) == 0.0

    def test_symmetry(self):
        x, y = RNG.normal(size=(2, 5))
        assert euclidean_distance(x, y) == pytest.approx(euclidean_distance(y, x))


class TestManhattan:
    def test_simple(self):
        assert manhattan_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 7.0

    def test_matches_scipy(self):
        for _ in range(20):
            x, y = RNG.normal(size=(2, 9))
            assert manhattan_distance(x, y) == pytest.approx(cityblock(x, y))

    def test_batch_matches_scalar(self):
        points = RNG.normal(size=(50, 7))
        q = RNG.normal(size=7)
        batch = manhattan_distance_batch(points, q)
        for i in range(50):
            assert batch[i] == pytest.approx(manhattan_distance(points[i], q))

    def test_dominates_euclidean(self):
        x, y = RNG.normal(size=(2, 12))
        assert manhattan_distance(x, y) >= euclidean_distance(x, y)


class TestHamming:
    def test_simple(self):
        x = np.array([0, 1, 1, 0])
        y = np.array([1, 1, 0, 0])
        assert hamming_distance(x, y) == 2.0

    def test_matches_scipy(self):
        for _ in range(20):
            x = RNG.integers(0, 2, size=16)
            y = RNG.integers(0, 2, size=16)
            assert hamming_distance(x, y) == pytest.approx(hamming(x, y) * 16)

    def test_batch_matches_scalar(self):
        points = RNG.integers(0, 2, size=(50, 16))
        q = RNG.integers(0, 2, size=16)
        batch = hamming_distance_batch(points, q)
        for i in range(50):
            assert batch[i] == hamming_distance(points[i], q)

    def test_max_distance(self):
        x = np.zeros(8, dtype=int)
        y = np.ones(8, dtype=int)
        assert hamming_distance(x, y) == 8.0


class TestCosine:
    def test_orthogonal(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_parallel(self):
        x = np.array([1.0, 2.0, 3.0])
        assert cosine_distance(x, 5.0 * x) == pytest.approx(0.0, abs=1e-12)

    def test_antiparallel(self):
        x = np.array([1.0, 2.0])
        assert cosine_distance(x, -x) == pytest.approx(2.0)

    def test_matches_scipy(self):
        for _ in range(20):
            x, y = RNG.normal(size=(2, 9))
            assert cosine_distance(x, y) == pytest.approx(scipy_cosine(x, y))

    def test_zero_vector_convention(self):
        assert cosine_distance(np.zeros(3), np.array([1.0, 0.0, 0.0])) == 1.0

    def test_batch_matches_scalar(self):
        points = RNG.normal(size=(50, 7))
        q = RNG.normal(size=7)
        batch = cosine_distance_batch(points, q)
        for i in range(50):
            assert batch[i] == pytest.approx(cosine_distance(points[i], q))

    def test_batch_zero_rows(self):
        points = np.zeros((3, 4))
        q = np.ones(4)
        assert np.allclose(cosine_distance_batch(points, q), 1.0)

    def test_range(self):
        for _ in range(50):
            x, y = RNG.normal(size=(2, 6))
            assert 0.0 <= cosine_distance(x, y) <= 2.0


class TestPairwiseDistances:
    def test_shape(self):
        D = pairwise_distances(RNG.normal(size=(3, 5)), RNG.normal(size=(7, 5)), "l2")
        assert D.shape == (3, 7)

    def test_values(self):
        queries = RNG.normal(size=(2, 4))
        points = RNG.normal(size=(5, 4))
        D = pairwise_distances(queries, points, "l2")
        assert D[1, 3] == pytest.approx(euclidean_distance(queries[1], points[3]))

    def test_single_query_vector(self):
        q = RNG.normal(size=4)
        points = RNG.normal(size=(5, 4))
        D = pairwise_distances(q, points, "l1")
        assert D.shape == (1, 5)
