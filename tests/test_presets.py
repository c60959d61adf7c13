"""Tests for the paper parameter presets."""

import pytest

from repro.core.presets import paper_parameters
from repro.exceptions import ConfigurationError, UnknownMetricError
from repro.hashing import BitSamplingLSH, PStableLSH, SimHashLSH
from repro.hashing.params import concatenation_width


class TestPStablePresets:
    def test_l1_pins_k8_w4r(self):
        params = paper_parameters("l1", dim=54, radius=3000.0)
        assert params.k == 8
        assert isinstance(params.family, PStableLSH)
        assert params.family.p == 1
        assert params.family.w == pytest.approx(4 * 3000.0)

    def test_l2_pins_k7_w2r(self):
        params = paper_parameters("l2", dim=32, radius=0.5)
        assert params.k == 7
        assert params.family.p == 2
        assert params.family.w == pytest.approx(2 * 0.5)

    @pytest.mark.parametrize("metric, p", [("l1", 1), ("l2", 2)])
    def test_k_and_w_override_the_pins(self, metric, p):
        params = paper_parameters(metric, dim=8, radius=0.5, k=3, w=4.0)
        assert (params.k, params.family.p, params.family.w) == (3, p, 4.0)

    def test_guarantee_for_typical_neighbors(self):
        """The pinned (k, w) pairs comfortably exceed 1 - delta for points
        at half the radius (where the bulk of true neighbors live; the
        boundary-distance guarantee of the pinned values is weaker, which
        the paper accepts in exchange for selectivity)."""
        from repro.hashing.params import success_probability

        for metric, radius in (("l1", 3000.0), ("l2", 0.5)):
            params = paper_parameters(metric, dim=32, radius=radius)
            p_half = params.family.collision_probability(radius / 2)
            assert success_probability(params.k, 50, p_half) >= 0.9


class TestDerivedPresets:
    def test_hamming_uses_rule(self):
        params = paper_parameters("hamming", dim=64, radius=12.0)
        p1 = 1 - 12 / 64
        assert isinstance(params.family, BitSamplingLSH)
        assert params.k == concatenation_width(50, 0.1, p1)
        assert params.p1 == pytest.approx(p1)

    def test_cosine_uses_rule(self):
        params = paper_parameters("cosine", dim=254, radius=0.05)
        assert isinstance(params.family, SimHashLSH)
        assert params.k == concatenation_width(50, 0.1, params.p1)

    def test_k_overrides_the_rule(self):
        params = paper_parameters("cosine", dim=16, radius=0.1, k=5)
        assert isinstance(params.family, SimHashLSH)
        assert params.k == 5

    @pytest.mark.parametrize("metric", ["cosine", "hamming"])
    def test_width_is_refused_without_a_pstable_family(self, metric):
        with pytest.raises(ConfigurationError, match="no bucket width"):
            paper_parameters(metric, dim=16, radius=0.1, w=1.0)

    def test_custom_L_and_delta(self):
        params = paper_parameters("cosine", dim=16, radius=0.1, num_tables=20, delta=0.05)
        assert params.num_tables == 20
        assert params.delta == 0.05

    def test_unknown_metric(self):
        with pytest.raises((UnknownMetricError, KeyError)):
            paper_parameters("nope", dim=8, radius=1.0)

    def test_invalid_radius(self):
        with pytest.raises(ConfigurationError):
            paper_parameters("l2", dim=8, radius=0.0)

    def test_seed_reproducibility(self):
        import numpy as np

        points = np.random.default_rng(0).normal(size=(5, 16))
        a = paper_parameters("cosine", dim=16, radius=0.1, seed=4).family.sample(3)
        b = paper_parameters("cosine", dim=16, radius=0.1, seed=4).family.sample(3)
        assert (a.hash_matrix(points) == b.hash_matrix(points)).all()
