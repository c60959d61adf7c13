"""SimHash — random-hyperplane LSH for cosine distance (Charikar, STOC 2002).

An atomic hash is the sign of a projection onto a random Gaussian
direction.  Two vectors at angle ``theta`` collide with probability
``1 - theta / pi``.  The paper uses SimHash twice:

* directly, as the LSH family for Webspam under cosine distance, and
* as a dimensionality-reduction device, producing the 64-bit
  fingerprints of MNIST (see :mod:`repro.datasets.fingerprints`).

Radius convention: this library measures cosine *distance*
``r = 1 - cos(theta)`` (see :mod:`repro.distances.cosine`), so the
collision probability at radius ``r`` is ``1 - arccos(1 - r) / pi``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.hashing.base import LSHFamily
from repro.hashing.composite import CompositeHash
from repro.utils.validation import check_positive_int

__all__ = ["SimHashLSH"]


class SimHashLSH(LSHFamily):
    """Random-hyperplane hashing over ``R^dim`` under cosine distance.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    seed:
        Randomness for hyperplane sampling.

    Examples
    --------
    >>> fam = SimHashLSH(dim=16, seed=0)
    >>> g = fam.sample(k=6)
    >>> set(np.unique(g.hash_matrix(np.random.default_rng(0).normal(size=(10, 16))))) <= {0, 1}
    True
    """

    metric_name = "cosine"

    def sample(self, k: int) -> CompositeHash:
        """Draw ``k`` random hyperplanes; hash values are sign bits (0/1)."""
        k = check_positive_int(k, "k")
        planes = self._rng.standard_normal(size=(self.dim, k))

        def kernel(points: np.ndarray) -> np.ndarray:
            projections = np.asarray(points, dtype=np.float64) @ planes
            return (projections > 0.0).astype(np.int64)

        return CompositeHash(kernel, k=k, dim=self.dim)

    def sample_batch(self, k: int, num_tables: int):
        """Stacked hyperplanes for all ``L`` tables (one matmul per query)."""
        k = check_positive_int(k, "k")
        num_tables = check_positive_int(num_tables, "num_tables")
        planes = self._rng.standard_normal(size=(self.dim, k * num_tables))
        return self.batch_from_params({"planes": planes}, k, num_tables)

    def batch_from_params(self, params: dict, k: int, num_tables: int):
        """The fused kernel over drawn or stored :meth:`sample_batch` params."""
        from repro.hashing.batched import BatchedHash

        planes = params["planes"]

        def fused(points: np.ndarray) -> np.ndarray:
            projections = np.asarray(points, dtype=np.float64) @ planes
            return (projections > 0.0).astype(np.int64)

        return BatchedHash(
            fused, k=k, num_tables=num_tables, dim=self.dim, kind="simhash", params=params
        )

    def collision_probability(self, distance: float) -> float:
        """``1 - arccos(1 - r) / pi`` for cosine distance ``r`` in [0, 2]."""
        if not 0.0 <= distance <= 2.0:
            raise ValueError(f"cosine distance must be in [0, 2], got {distance}")
        theta = math.acos(max(-1.0, min(1.0, 1.0 - distance)))
        return 1.0 - theta / math.pi

    def collision_probability_batch(self, distances: np.ndarray) -> np.ndarray:
        """Vectorised angular collision probability."""
        distances = np.asarray(distances, dtype=np.float64)
        cos = np.clip(1.0 - distances, -1.0, 1.0)
        return 1.0 - np.arccos(cos) / math.pi
