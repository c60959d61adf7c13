"""Tests for the LSH families: determinism, sensitivity, p(c) formulas."""


import numpy as np
import pytest

from repro.api import Index, IndexSpec, QuerySpec
from repro.distances import cosine_distance, hamming_distance, jaccard_distance
from repro.exceptions import ConfigurationError, UnknownMetricError
from repro.hashing import (
    BitSamplingLSH,
    MinHashLSH,
    PStableLSH,
    SimHashLSH,
    family_for_metric,
)

RNG = np.random.default_rng(2024)


def empirical_collision_rate(family, x, y, trials=3000):
    """Fraction of sampled atomic hashes under which x and y collide."""
    hits = 0
    pair = np.stack([x, y])
    for _ in range(trials):
        values = family.sample(k=1).hash_matrix(pair)
        hits += int(values[0, 0] == values[1, 0])
    return hits / trials


class TestBitSampling:
    def test_collision_probability_formula(self):
        fam = BitSamplingLSH(dim=64)
        assert fam.collision_probability(0) == 1.0
        assert fam.collision_probability(16) == pytest.approx(1 - 16 / 64)
        assert fam.collision_probability(64) == 0.0

    def test_collision_probability_clamped(self):
        assert BitSamplingLSH(dim=8).collision_probability(100) == 0.0

    def test_negative_distance_raises(self):
        with pytest.raises(ValueError):
            BitSamplingLSH(dim=8).collision_probability(-1)

    def test_empirical_matches_theory(self):
        fam = BitSamplingLSH(dim=32, seed=0)
        x = RNG.integers(0, 2, size=32)
        y = x.copy()
        y[:8] ^= 1  # Hamming distance exactly 8
        theory = fam.collision_probability(hamming_distance(x, y))
        empirical = empirical_collision_rate(fam, x, y)
        assert abs(empirical - theory) < 0.04

    def test_hash_values_are_bits(self):
        fam = BitSamplingLSH(dim=16, seed=1)
        values = fam.sample(k=5).hash_matrix(RNG.integers(0, 2, size=(20, 16)))
        assert set(np.unique(values)) <= {0, 1}

    def test_deterministic_given_seed(self):
        points = RNG.integers(0, 2, size=(10, 16))
        a = BitSamplingLSH(dim=16, seed=9).sample(k=4).hash_matrix(points)
        b = BitSamplingLSH(dim=16, seed=9).sample(k=4).hash_matrix(points)
        assert np.array_equal(a, b)

    def test_batch_collision_probability(self):
        fam = BitSamplingLSH(dim=64)
        dists = np.array([0.0, 16.0, 64.0, 100.0])
        assert np.allclose(
            fam.collision_probability_batch(dists), [1.0, 0.75, 0.0, 0.0]
        )


class TestSimHash:
    def test_collision_probability_endpoints(self):
        fam = SimHashLSH(dim=16)
        assert fam.collision_probability(0.0) == pytest.approx(1.0)
        assert fam.collision_probability(1.0) == pytest.approx(0.5)
        assert fam.collision_probability(2.0) == pytest.approx(0.0)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            SimHashLSH(dim=8).collision_probability(2.5)

    def test_empirical_matches_theory(self):
        fam = SimHashLSH(dim=24, seed=0)
        x = RNG.normal(size=24)
        y = x + 0.5 * RNG.normal(size=24)
        theory = fam.collision_probability(cosine_distance(x, y))
        empirical = empirical_collision_rate(fam, x, y)
        assert abs(empirical - theory) < 0.04

    def test_scale_invariance(self):
        """SimHash values depend only on direction."""
        fam = SimHashLSH(dim=12, seed=3)
        g = fam.sample(k=8)
        x = RNG.normal(size=12)
        assert np.array_equal(g.hash_one(x), g.hash_one(10.0 * x))

    def test_batch_matches_scalar_probability(self):
        fam = SimHashLSH(dim=8)
        dists = np.array([0.0, 0.3, 1.0, 2.0])
        batch = fam.collision_probability_batch(dists)
        for i, c in enumerate(dists):
            assert batch[i] == pytest.approx(fam.collision_probability(float(c)))


class TestPStable:
    @pytest.mark.parametrize("p", [1, 2])
    def test_zero_distance_collides(self, p):
        assert PStableLSH(dim=8, w=2.0, p=p).collision_probability(0.0) == 1.0

    @pytest.mark.parametrize("p", [1, 2])
    def test_monotone_decreasing(self, p):
        fam = PStableLSH(dim=8, w=2.0, p=p)
        probs = [fam.collision_probability(c) for c in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_invalid_p(self):
        with pytest.raises(ConfigurationError):
            PStableLSH(dim=8, w=1.0, p=3)

    def test_invalid_w(self):
        with pytest.raises(ConfigurationError):
            PStableLSH(dim=8, w=0.0)

    def test_l2_empirical_matches_theory(self):
        fam = PStableLSH(dim=16, w=4.0, p=2, seed=0)
        x = RNG.normal(size=16)
        y = x + RNG.normal(size=16) * 0.5
        c = float(np.linalg.norm(x - y))
        theory = fam.collision_probability(c)
        empirical = empirical_collision_rate(fam, x, y)
        assert abs(empirical - theory) < 0.04

    def test_l1_empirical_matches_theory(self):
        fam = PStableLSH(dim=16, w=6.0, p=1, seed=0)
        x = RNG.normal(size=16)
        y = x + RNG.normal(size=16) * 0.4
        c = float(np.abs(x - y).sum())
        theory = fam.collision_probability(c)
        empirical = empirical_collision_rate(fam, x, y)
        assert abs(empirical - theory) < 0.04

    def test_metric_name_follows_p(self):
        assert PStableLSH(dim=4, w=1.0, p=1).metric_name == "l1"
        assert PStableLSH(dim=4, w=1.0, p=2).metric_name == "l2"

    def test_wider_buckets_collide_more(self):
        narrow = PStableLSH(dim=8, w=1.0, p=2)
        wide = PStableLSH(dim=8, w=8.0, p=2)
        assert wide.collision_probability(1.0) > narrow.collision_probability(1.0)

    def test_batch_matches_scalar(self):
        fam = PStableLSH(dim=8, w=2.0, p=1)
        dists = np.array([0.0, 0.5, 1.0, 5.0])
        batch = fam.collision_probability_batch(dists)
        for i, c in enumerate(dists):
            assert batch[i] == pytest.approx(fam.collision_probability(float(c)))

    def test_integer_hash_values(self):
        fam = PStableLSH(dim=8, w=1.5, p=2, seed=5)
        values = fam.sample(k=3).hash_matrix(RNG.normal(size=(10, 8)))
        assert values.dtype == np.int64

    def test_in_range_hashes_are_the_floor_of_the_shifted_projection(self):
        fam = PStableLSH(dim=8, w=1.5, p=2, seed=5)
        batched = fam.sample_batch(k=3, num_tables=4)
        points = RNG.normal(size=(50, 8)) * 40
        params = batched.params
        expected = np.floor(
            (points @ params["projections"] + params["offsets"]) / 1.5
        ).astype(np.int64)
        assert np.array_equal(batched.hash_points(points).reshape(50, -1), expected)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cache_size", [0, 16])
    def test_a_huge_finite_coordinate_hashes_quietly_and_stably(self, cache_size):
        """floor((a . x + b) / w) past the int64 range is clipped to
        +-2**62 before the cast: no warning (an error here), the same
        bucket on every call, and the answers brute force gives."""
        points = RNG.normal(size=(300, 8))
        index = Index.build(
            points, IndexSpec(metric="l2", radius=1.5, num_tables=8, seed=3, cache_size=cache_size)
        )
        try:
            huge = points[:3].copy()
            huge[:, 3] = [1e300, -1e300, 1e300]
            queries = np.concatenate([huge, points[3:5]])
            kernel = index.engine.index._batched
            first, again = kernel.hash_points(huge), kernel.hash_points(huge)
            assert np.array_equal(first, again)
            assert np.abs(first).max() == 2**62
            for _ in range(2):
                results = index.query(QuerySpec(queries))
                single = index.query(QuerySpec(huge[0]))
            with np.errstate(over="ignore"):
                gaps = np.sqrt(((points[None, :, :] - queries[:, None, :]) ** 2).sum(axis=2))
            for result, row in zip(results, gaps):
                assert result.ids.tolist() == np.flatnonzero(row <= 1.5).tolist()
            assert single.ids.size == 0
        finally:
            index.close()


class TestMinHash:
    def test_collision_probability_is_similarity(self):
        fam = MinHashLSH(dim=16)
        assert fam.collision_probability(0.25) == pytest.approx(0.75)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            MinHashLSH(dim=8).collision_probability(1.5)

    def test_empirical_matches_theory(self):
        fam = MinHashLSH(dim=40, seed=0)
        x = (RNG.random(40) < 0.4).astype(np.uint8)
        y = x.copy()
        flips = RNG.choice(40, size=8, replace=False)
        y[flips] ^= 1
        theory = fam.collision_probability(jaccard_distance(x, y))
        empirical = empirical_collision_rate(fam, x, y, trials=3000)
        assert abs(empirical - theory) < 0.05

    def test_identical_sets_always_collide(self):
        fam = MinHashLSH(dim=20, seed=1)
        g = fam.sample(k=10)
        x = (RNG.random(20) < 0.5).astype(np.uint8)
        assert np.array_equal(g.hash_one(x), g.hash_one(x.copy()))

    def test_empty_set_sentinel(self):
        fam = MinHashLSH(dim=10, seed=2)
        g = fam.sample(k=3)
        empty = np.zeros(10, dtype=np.uint8)
        values = g.hash_one(empty)
        assert np.all(values == np.iinfo(np.int64).max)


class TestFamilyForMetric:
    @pytest.mark.parametrize(
        "metric,expected",
        [
            ("hamming", BitSamplingLSH),
            ("cosine", SimHashLSH),
            ("jaccard", MinHashLSH),
        ],
    )
    def test_simple_metrics(self, metric, expected):
        assert isinstance(family_for_metric(metric, dim=8), expected)

    def test_l1_is_cauchy(self):
        fam = family_for_metric("l1", dim=8, w=2.0)
        assert isinstance(fam, PStableLSH)
        assert fam.p == 1

    def test_l2_is_gaussian(self):
        fam = family_for_metric("l2", dim=8, w=2.0)
        assert isinstance(fam, PStableLSH)
        assert fam.p == 2

    def test_alias_resolution(self):
        assert isinstance(family_for_metric("euclidean", dim=4, w=1.0), PStableLSH)

    def test_unknown_metric(self):
        with pytest.raises(UnknownMetricError):
            family_for_metric("nope", dim=4)

    def test_invalid_dim(self):
        with pytest.raises(ConfigurationError):
            SimHashLSH(dim=0)

    def test_p1_alias(self):
        fam = SimHashLSH(dim=8)
        assert fam.p1(0.3) == fam.collision_probability(0.3)

    def test_metric_property(self):
        assert family_for_metric("cosine", dim=4).metric.name == "cosine"
