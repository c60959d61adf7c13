"""The computational cost model — Equations (1) and (2) of the paper.

For a query against an index of ``n`` points:

    ``LSHCost    = alpha * #collisions + beta * candSize``      (1)
    ``LinearCost = beta * n``                                   (2)

``alpha`` is the average cost of removing one duplicate in Step S2 and
``beta`` the cost of one distance computation in Step S3.  Only the
*ratio* ``beta / alpha`` matters for the decision (both sides can be
divided by ``alpha``), which is why the paper reports the ratios 10,
10, 6, 1 for Webspam, CoverType, Corel and MNIST rather than absolute
constants.  :class:`CostModel` stores both constants so the costs keep
a physical unit (seconds) when produced by calibration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import Strategy
from repro.exceptions import ConfigurationError

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Equations (1)/(2) with fixed constants.

    Attributes
    ----------
    alpha:
        Cost of removing one duplicate (Step S2), > 0.
    beta:
        Cost of one distance computation (Step S3), > 0.

    Examples
    --------
    >>> model = CostModel(alpha=1.0, beta=10.0)
    >>> model.lsh_cost(num_collisions=100, cand_size=30.0)
    400.0
    >>> model.linear_cost(n=50)
    500.0
    >>> model.choose(num_collisions=100, cand_size=30.0, n=50)
    <Strategy.LSH: 'lsh'>
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ConfigurationError(f"alpha must be > 0, got {self.alpha}")
        if not self.beta > 0:
            raise ConfigurationError(f"beta must be > 0, got {self.beta}")

    @classmethod
    def from_ratio(cls, beta_over_alpha: float, alpha: float = 1.0) -> CostModel:
        """Build a model from the paper's ``beta / alpha`` ratio.

        The paper uses ratios 10 (Webspam), 10 (CoverType), 6 (Corel)
        and 1 (MNIST); with ``alpha = 1`` costs are then expressed in
        "duplicate-removal operations".
        """
        if not beta_over_alpha > 0:
            raise ConfigurationError(
                f"beta_over_alpha must be > 0, got {beta_over_alpha}"
            )
        return cls(alpha=alpha, beta=alpha * beta_over_alpha)

    @property
    def beta_over_alpha(self) -> float:
        """The decision-relevant ratio."""
        return self.beta / self.alpha

    def lsh_cost(self, num_collisions: int, cand_size: float) -> float:
        """Equation (1): ``alpha * #collisions + beta * candSize``."""
        if num_collisions < 0:
            raise ConfigurationError(f"num_collisions must be >= 0, got {num_collisions}")
        if cand_size < 0:
            raise ConfigurationError(f"cand_size must be >= 0, got {cand_size}")
        return self.alpha * num_collisions + self.beta * cand_size

    def linear_cost(self, n: int) -> float:
        """Equation (2): ``beta * n``.

        Memoised on the last ``n`` seen: the per-query dispatch
        evaluates this for the same index size until the next insert,
        so the hot path does no redundant arithmetic or validation.
        """
        cached = getattr(self, "_linear_cache", None)
        if cached is not None and cached[0] == n:
            return cached[1]
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        value = self.beta * n
        object.__setattr__(self, "_linear_cache", (n, value))
        return value

    def lsh_bounds(
        self, num_collisions: int, lower: float, upper: float, n: int
    ) -> tuple[bool, bool]:
        """Equation (1) at exact bounds on ``candSize``: ``(certain, possible)``.

        ``certain``: LSH wins even at ``upper``; ``possible``: it wins at
        least at ``lower``.  ``LSHCost`` is monotone in ``candSize``, so
        ``certain`` or ``not possible`` settles :meth:`choose` for every
        estimate inside the bounds (the same arithmetic as
        :meth:`lsh_cost`, so the two can never disagree at a bound).

        >>> CostModel(alpha=1.0, beta=10.0).lsh_bounds(100, 20, 100, n=50)
        (False, True)
        """
        collision_cost = self.alpha * num_collisions
        linear = self.linear_cost(n)
        return (
            collision_cost + self.beta * upper < linear,
            collision_cost + self.beta * lower < linear,
        )

    def choose(self, num_collisions: int, cand_size: float, n: int) -> Strategy:
        """Algorithm 2, line 4: LSH iff ``LSHCost < LinearCost``."""
        lsh = self.lsh_cost(num_collisions, cand_size)
        linear = self.linear_cost(n)
        return Strategy.LSH if lsh < linear else Strategy.LINEAR

    def __repr__(self) -> str:
        return (
            f"CostModel(alpha={self.alpha:.3g}, beta={self.beta:.3g}, "
            f"beta/alpha={self.beta_over_alpha:.3g})"
        )
