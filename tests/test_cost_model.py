"""Tests for the Equation (1)/(2) cost model."""

import numpy as np
import pytest

from repro.core import CostModel, Strategy
from repro.exceptions import ConfigurationError


class TestConstruction:
    def test_basic(self):
        model = CostModel(alpha=1.0, beta=10.0)
        assert model.beta_over_alpha == 10.0

    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_invalid_constants(self, alpha, beta):
        with pytest.raises(ConfigurationError):
            CostModel(alpha=alpha, beta=beta)

    def test_from_ratio(self):
        model = CostModel.from_ratio(6.0)
        assert model.alpha == 1.0
        assert model.beta == 6.0

    def test_from_ratio_with_alpha(self):
        model = CostModel.from_ratio(10.0, alpha=2.0)
        assert model.beta == 20.0
        assert model.beta_over_alpha == 10.0

    def test_from_ratio_invalid(self):
        with pytest.raises(ConfigurationError):
            CostModel.from_ratio(0.0)

    def test_frozen(self):
        model = CostModel(alpha=1.0, beta=2.0)
        with pytest.raises(AttributeError):
            model.alpha = 5.0


class TestCosts:
    def test_equation_1(self):
        model = CostModel(alpha=2.0, beta=3.0)
        assert model.lsh_cost(num_collisions=10, cand_size=4.0) == 2 * 10 + 3 * 4

    def test_equation_2(self):
        model = CostModel(alpha=2.0, beta=3.0)
        assert model.linear_cost(n=100) == 300.0

    def test_zero_collisions(self):
        model = CostModel(alpha=1.0, beta=1.0)
        assert model.lsh_cost(0, 0.0) == 0.0

    def test_negative_inputs_raise(self):
        model = CostModel(alpha=1.0, beta=1.0)
        with pytest.raises(ConfigurationError):
            model.lsh_cost(-1, 0.0)
        with pytest.raises(ConfigurationError):
            model.lsh_cost(0, -1.0)
        with pytest.raises(ConfigurationError):
            model.linear_cost(-5)


class TestChoose:
    def test_easy_query_picks_lsh(self):
        model = CostModel.from_ratio(10.0)
        # 50 collisions, ~20 candidates vs n = 10,000.
        assert model.choose(50, 20.0, 10_000) == Strategy.LSH

    def test_hard_query_picks_linear(self):
        model = CostModel.from_ratio(10.0)
        # Collisions alone exceed the linear budget.
        assert model.choose(200_000, 9_000.0, 10_000) == Strategy.LINEAR

    def test_tie_goes_to_linear(self):
        """Algorithm 2 uses strict <, so equality runs the exact scan."""
        model = CostModel(alpha=1.0, beta=1.0)
        # lsh = 50 + 50 = 100 = linear
        assert model.choose(50, 50.0, 100) == Strategy.LINEAR

    def test_ratio_shifts_crossover(self):
        """Higher beta/alpha makes duplicate removal relatively cheaper."""
        cheap_dedup = CostModel.from_ratio(10.0)
        costly_dedup = CostModel.from_ratio(0.5)
        collisions, cand, n = 3_000, 500.0, 1_000
        assert cheap_dedup.choose(collisions, cand, n) == Strategy.LSH
        assert costly_dedup.choose(collisions, cand, n) == Strategy.LINEAR

    def test_bounds_settle_choose_for_every_estimate_inside_them(self):
        """``lsh_bounds`` brackets ``choose`` (all three outcomes occur)."""
        model = CostModel(alpha=0.7, beta=4.3)
        n = 1_000
        rng = np.random.default_rng(0)
        seen = set()
        for c in rng.integers(0, 6_000, size=400).tolist():
            up = min(c, n)
            lo = int(up * rng.random())
            certain, possible = model.lsh_bounds(c, lo, up, n)
            seen.add((certain, possible))
            for cand in (lo, (lo + up) / 2.0, up):
                verdict = model.choose(c, cand, n)
                if certain:
                    assert verdict == Strategy.LSH
                if not possible:
                    assert verdict == Strategy.LINEAR
        assert seen == {(True, True), (False, True), (False, False)}

    def test_repr(self):
        assert "beta/alpha" in repr(CostModel.from_ratio(3.0))
