"""Tests for the synthetic dataset stand-ins and generators."""

import numpy as np
import pytest

from repro.datasets import (
    corel_like,
    covertype_like,
    gaussian_mixture,
    mixed_workload,
    mnist_like,
    simhash_fingerprints,
    split_queries,
    uniform_hypercube,
    webspam_like,
)
from repro.distances import pairwise_distances
from repro.exceptions import ConfigurationError


class TestSplitQueries:
    def test_shapes(self, rng):
        points = rng.normal(size=(150, 4))
        data, queries = split_queries(points, num_queries=20, seed=0)
        assert data.shape == (130, 4)
        assert queries.shape == (20, 4)

    def test_disjoint(self, rng):
        points = rng.normal(size=(50, 3))
        data, queries = split_queries(points, num_queries=10, seed=0)
        data_rows = {tuple(row) for row in data}
        assert all(tuple(q) not in data_rows for q in queries)

    def test_deterministic(self, rng):
        points = rng.normal(size=(50, 3))
        _, qa = split_queries(points, num_queries=5, seed=9)
        _, qb = split_queries(points, num_queries=5, seed=9)
        assert np.array_equal(qa, qb)

    def test_too_many_queries(self, rng):
        with pytest.raises(ConfigurationError):
            split_queries(rng.normal(size=(10, 2)), num_queries=10)


class TestGaussianMixture:
    def test_shape(self):
        centers = np.zeros((3, 5))
        pts = gaussian_mixture(100, 5, centers, np.ones(3), seed=0)
        assert pts.shape == (100, 5)

    def test_labels(self):
        centers = np.array([[0.0] * 4, [100.0] * 4])
        pts, labels = gaussian_mixture(
            200, 4, centers, np.array([0.1, 0.1]), seed=0, return_labels=True
        )
        assert set(np.unique(labels)) <= {0, 1}
        # Points labelled 1 must be near the second center.
        assert np.all(pts[labels == 1].mean(axis=1) > 50)

    def test_background_fraction(self):
        centers = np.full((1, 3), 1000.0)
        pts, labels = gaussian_mixture(
            200, 3, centers, np.array([0.1]),
            background_fraction=0.5, background_scale=1.0, seed=0, return_labels=True,
        )
        assert abs(np.mean(labels == -1) - 0.5) < 0.05

    def test_weights_respected(self):
        centers = np.array([[0.0] * 2, [10.0] * 2])
        __, labels = gaussian_mixture(
            2000, 2, centers, np.array([0.1, 0.1]),
            weights=np.array([0.9, 0.1]), seed=0, return_labels=True,
        )
        assert np.mean(labels == 0) > 0.8

    def test_bad_centers_shape(self):
        with pytest.raises(ConfigurationError):
            gaussian_mixture(10, 3, np.zeros((2, 4)), np.ones(2))

    def test_bad_spreads(self):
        with pytest.raises(ConfigurationError):
            gaussian_mixture(10, 3, np.zeros((2, 3)), np.array([-1.0, 1.0]))

    def test_bad_weights(self):
        with pytest.raises(ConfigurationError):
            gaussian_mixture(10, 3, np.zeros((2, 3)), np.ones(2), weights=np.zeros(2))


class TestMixedWorkload:
    def test_figure1_landscape(self):
        data, queries, radius = mixed_workload(2000, seed=0)
        assert data.shape == (2000, 24) and queries.shape == (200, 24)
        assert radius == 0.25 * np.sqrt(2 * 24) * 1.2
        again = mixed_workload(2000, seed=0)
        assert np.array_equal(data, again[0]) and np.array_equal(queries, again[1])
        small = mixed_workload(300, dim=5, num_queries=7, seed=3)
        assert small[0].shape == (300, 5) and small[1].shape == (7, 5)
        assert small[2] == 0.25 * np.sqrt(2 * 5) * 1.2
        # The point of the generator: neither pure strategy wins, so
        # Algorithm 2 must dispatch some queries each way.
        from repro.api import Index, IndexSpec

        index = Index.build(
            data, IndexSpec(metric="l2", radius=radius, cost_ratio=6.0, seed=0)
        )
        strategies = {outcome.strategy for outcome in index.query(queries)}
        assert strategies == {"linear", "lsh"}


class TestUniformHypercube:
    def test_range(self):
        pts = uniform_hypercube(100, 4, scale=2.0, seed=0)
        assert pts.min() >= 0.0
        assert pts.max() <= 2.0

    def test_bad_scale(self):
        with pytest.raises(ConfigurationError):
            uniform_hypercube(10, 4, scale=0.0)


class TestSimhashFingerprints:
    def test_shape(self, rng):
        fp = simhash_fingerprints(rng.normal(size=(30, 100)), bits=64, seed=0)
        assert fp.shape == (30, 64)
        assert fp.dtype == np.uint8

    def test_preserves_similarity_ordering(self, rng):
        """Closer vectors in angle get closer fingerprints in Hamming."""
        base = rng.normal(size=100)
        near = base + 0.1 * rng.normal(size=100)
        far = rng.normal(size=100)
        fp = simhash_fingerprints(np.stack([base, near, far]), bits=256, seed=0)
        d_near = (fp[0] != fp[1]).sum()
        d_far = (fp[0] != fp[2]).sum()
        assert d_near < d_far

    def test_deterministic(self, rng):
        x = rng.normal(size=(5, 10))
        assert np.array_equal(
            simhash_fingerprints(x, seed=3), simhash_fingerprints(x, seed=3)
        )


class TestStandIns:
    @pytest.mark.parametrize(
        "factory,metric,dim",
        [
            (corel_like, "l2", 32),
            (covertype_like, "l1", 54),
            (webspam_like, "cosine", 254),
            (mnist_like, "hamming", 64),
        ],
    )
    def test_schema(self, factory, metric, dim):
        ds = factory(n=500, seed=0)
        assert ds.metric == metric
        assert ds.dim == dim
        assert ds.n == 500
        assert len(ds.radii) == 6
        assert ds.beta_over_alpha > 0

    @pytest.mark.parametrize("factory", [corel_like, covertype_like, webspam_like, mnist_like])
    def test_deterministic(self, factory):
        a = factory(n=200, seed=5)
        b = factory(n=200, seed=5)
        assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("factory", [corel_like, covertype_like, webspam_like])
    def test_radii_are_meaningful(self, factory):
        """Some — but not all — pairs fall within the paper's radius sweep.

        This is the property that makes the radius sweep interesting:
        neighborhoods grow across the sweep without engulfing everything.
        """
        ds = factory(n=800, seed=1)
        sample = ds.points[:200]
        D = pairwise_distances(sample[:40], sample, ds.metric)
        off_diagonal = D[D > 0]
        frac_within_max = float(np.mean(off_diagonal <= max(ds.radii)))
        assert 0.002 < frac_within_max < 0.9

    def test_mnist_radii_meaningful(self):
        ds = mnist_like(n=800, seed=1)
        D = pairwise_distances(ds.points[:40], ds.points[:200], "hamming")
        off_diagonal = D[D > 0]
        frac = float(np.mean(off_diagonal <= max(ds.radii)))
        assert 0.002 < frac < 0.9

    def test_webspam_has_hard_and_easy_queries(self):
        """The Figure 3 structure: output sizes spread from tiny to huge."""
        ds = webspam_like(n=2000, seed=0)
        D = pairwise_distances(ds.points[:80], ds.points, "cosine")
        sizes = (D <= 0.1).sum(axis=1)
        assert sizes.max() > ds.n / 4      # hard queries exist
        assert sizes.min() <= 5            # easy queries exist

    def test_mnist_extras(self):
        ds = mnist_like(n=100, seed=0)
        assert ds.extras["images"].shape == (100, 784)
        assert ds.extras["labels"].shape == (100,)

    def test_points_binary_for_mnist(self):
        ds = mnist_like(n=50, seed=0)
        assert set(np.unique(ds.points)) <= {0, 1}

    def test_repr(self):
        assert "corel-like" in repr(corel_like(n=50, seed=0))
