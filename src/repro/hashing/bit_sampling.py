"""Bit-sampling LSH for Hamming distance (Indyk and Motwani, STOC 1998).

An atomic hash simply reads one uniformly random coordinate of the
binary vector; a point pair at Hamming distance ``h`` in ``{0, 1}^d``
collides with probability exactly ``1 - h / d``.  The paper uses this
family on MNIST after reducing images to 64-bit SimHash fingerprints,
so ``d = 64`` in that experiment.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.base import LSHFamily
from repro.hashing.composite import CompositeHash
from repro.utils.validation import check_positive_int

__all__ = ["BitSamplingLSH"]


class BitSamplingLSH(LSHFamily):
    """Bit sampling over ``{0, 1}^dim`` under Hamming distance.

    Parameters
    ----------
    dim:
        Number of bits per vector (e.g. 64 for SimHash fingerprints).
    seed:
        Randomness for coordinate sampling.

    Examples
    --------
    >>> fam = BitSamplingLSH(dim=8, seed=0)
    >>> g = fam.sample(k=4)
    >>> g.hash_one(np.array([0, 1, 0, 1, 1, 0, 0, 1])).shape
    (4,)
    """

    metric_name = "hamming"

    def sample(self, k: int) -> CompositeHash:
        """Draw ``k`` random coordinates (with replacement, as in the paper)."""
        k = check_positive_int(k, "k")
        coords = self._rng.integers(0, self.dim, size=k)

        def kernel(points: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(points[:, coords], dtype=np.int64)

        return CompositeHash(kernel, k=k, dim=self.dim)

    def sample_batch(self, k: int, num_tables: int):
        """Concatenated coordinate samples for all ``L`` tables."""
        k = check_positive_int(k, "k")
        num_tables = check_positive_int(num_tables, "num_tables")
        coords = self._rng.integers(0, self.dim, size=k * num_tables)
        return self.batch_from_params({"coords": coords}, k, num_tables)

    def batch_from_params(self, params: dict, k: int, num_tables: int):
        """The fused kernel over drawn or stored :meth:`sample_batch` params."""
        from repro.hashing.batched import BatchedHash

        coords = params["coords"]

        def fused(points: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(points[:, coords], dtype=np.int64)

        return BatchedHash(
            fused, k=k, num_tables=num_tables, dim=self.dim, kind="bit_sampling", params=params
        )

    def collision_probability(self, distance: float) -> float:
        """``1 - h/d`` for Hamming distance ``h``, clamped to [0, 1]."""
        if distance < 0:
            raise ValueError(f"distance must be non-negative, got {distance}")
        return max(0.0, 1.0 - distance / self.dim)

    def collision_probability_batch(self, distances: np.ndarray) -> np.ndarray:
        """Vectorised ``1 - h/d``."""
        distances = np.asarray(distances, dtype=np.float64)
        return np.clip(1.0 - distances / self.dim, 0.0, 1.0)
