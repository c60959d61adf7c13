"""p-stable LSH for L1 and L2 distances (Datar, Immorlica, Indyk, Mirrokni).

An atomic hash projects onto a random p-stable direction ``a``, shifts
by a uniform offset ``b ~ U[0, w)`` and quantises into buckets of width
``w``: ``h(x) = floor((a . x + b) / w)``.  For ``p = 2`` the projections
are Gaussian (sensitive for L2); for ``p = 1`` they are Cauchy
(sensitive for L1).

Collision probabilities at distance ``c`` (with ``t = w / c``):

* L2 (Gaussian):  ``p(c) = 1 - 2 Phi(-t) - 2/(sqrt(2 pi) t) (1 - exp(-t^2 / 2))``
* L1 (Cauchy):    ``p(c) = (2/pi) arctan(t) - 1/(pi t) ln(1 + t^2)``

The paper pins the experiment parameters to ``k = 8, w = 4r`` for L1
(CoverType) and ``k = 7, w = 2r`` for L2 (Corel), chosen so the
reporting guarantee ``delta = 10%`` holds with ``L = 50``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import norm

from repro.exceptions import ConfigurationError
from repro.hashing.base import LSHFamily
from repro.hashing.composite import CompositeHash
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["PStableLSH", "l1_collision_probability", "l2_collision_probability"]


def l2_collision_probability(w: float, distance: float) -> float:
    """Gaussian p-stable collision probability at distance ``c``.

    ``p(c) = 1 - 2 Phi(-w/c) - (2 / (sqrt(2 pi) w/c)) (1 - e^{-(w/c)^2/2})``;
    approaches 1 as ``c -> 0`` and 0 as ``c -> inf``.
    """
    if distance < 0:
        raise ValueError(f"distance must be non-negative, got {distance}")
    if distance == 0.0:
        return 1.0
    t = w / distance
    p = (
        1.0
        - 2.0 * norm.cdf(-t)
        - (2.0 / (math.sqrt(2.0 * math.pi) * t)) * (1.0 - math.exp(-(t * t) / 2.0))
    )
    return float(min(1.0, max(0.0, p)))


def l1_collision_probability(w: float, distance: float) -> float:
    """Cauchy p-stable collision probability at distance ``c``.

    ``p(c) = (2/pi) arctan(w/c) - (1 / (pi w/c)) ln(1 + (w/c)^2)``.
    """
    if distance < 0:
        raise ValueError(f"distance must be non-negative, got {distance}")
    if distance == 0.0:
        return 1.0
    t = w / distance
    p = (2.0 / math.pi) * math.atan(t) - (1.0 / (math.pi * t)) * math.log1p(t * t)
    return float(min(1.0, max(0.0, p)))


class PStableLSH(LSHFamily):
    """p-stable projection LSH for L1 (``p=1``) or L2 (``p=2``).

    Parameters
    ----------
    dim:
        Vector dimensionality.
    w:
        Bucket width of the quantiser.  The paper sets ``w`` relative to
        the query radius (``4r`` for L1, ``2r`` for L2).
    p:
        1 for Cauchy/L1, 2 for Gaussian/L2.
    seed:
        Randomness for projection sampling.

    Examples
    --------
    >>> fam = PStableLSH(dim=4, w=2.0, p=2, seed=0)
    >>> fam.collision_probability(0.0)
    1.0
    """

    def __init__(self, dim: int, w: float = 1.0, p: int = 2, seed: RandomState = None) -> None:
        super().__init__(dim, seed=seed)
        if p not in (1, 2):
            raise ConfigurationError(f"p must be 1 (Cauchy/L1) or 2 (Gaussian/L2), got {p}")
        self.p = int(p)
        self.w = check_positive(w, "w")
        self.metric_name = "l1" if self.p == 1 else "l2"

    def sample(self, k: int) -> CompositeHash:
        """Draw ``k`` stable projections with uniform offsets."""
        k = check_positive_int(k, "k")
        if self.p == 2:
            projections = self._rng.standard_normal(size=(self.dim, k))
        else:
            projections = self._rng.standard_cauchy(size=(self.dim, k))
        offsets = self._rng.uniform(0.0, self.w, size=k)
        width = self.w

        def kernel(points: np.ndarray) -> np.ndarray:
            shifted = np.asarray(points, dtype=np.float64) @ projections + offsets
            return np.floor(shifted / width).astype(np.int64)

        return CompositeHash(kernel, k=k, dim=self.dim)

    def sample_batch(self, k: int, num_tables: int):
        """Stacked projections for all ``L`` tables (one matmul per query)."""
        k = check_positive_int(k, "k")
        num_tables = check_positive_int(num_tables, "num_tables")
        total = k * num_tables
        if self.p == 2:
            projections = self._rng.standard_normal(size=(self.dim, total))
        else:
            projections = self._rng.standard_cauchy(size=(self.dim, total))
        offsets = self._rng.uniform(0.0, self.w, size=total)
        return self.batch_from_params(
            {"projections": projections, "offsets": offsets}, k, num_tables
        )

    def batch_from_params(self, params: dict, k: int, num_tables: int):
        """The fused kernel over drawn or stored :meth:`sample_batch` params."""
        from repro.hashing.batched import BatchedHash

        projections, offsets, width = params["projections"], params["offsets"], self.w

        def fused(points: np.ndarray) -> np.ndarray:
            shifted = np.asarray(points, dtype=np.float64) @ projections + offsets
            return np.floor(shifted / width).astype(np.int64)

        return BatchedHash(
            fused, k=k, num_tables=num_tables, dim=self.dim, kind="pstable", params=params
        )

    def collision_probability(self, distance: float) -> float:
        """Exact ``p(c)`` for the configured stable distribution and width."""
        if self.p == 2:
            return l2_collision_probability(self.w, distance)
        return l1_collision_probability(self.w, distance)

    def collision_probability_batch(self, distances: np.ndarray) -> np.ndarray:
        """Vectorised ``p(c)``; zero distances map to probability 1."""
        distances = np.asarray(distances, dtype=np.float64)
        out = np.ones_like(distances)
        positive = distances > 0
        t = np.empty_like(distances)
        t[positive] = self.w / distances[positive]
        tp = t[positive]
        if self.p == 2:
            vals = (
                1.0
                - 2.0 * norm.cdf(-tp)
                - (2.0 / (math.sqrt(2.0 * math.pi) * tp)) * (1.0 - np.exp(-(tp * tp) / 2.0))
            )
        else:
            vals = (2.0 / math.pi) * np.arctan(tp) - (1.0 / (math.pi * tp)) * np.log1p(tp * tp)
        out[positive] = np.clip(vals, 0.0, 1.0)
        return out

    def __repr__(self) -> str:
        return f"PStableLSH(dim={self.dim}, p={self.p}, w={self.w})"
