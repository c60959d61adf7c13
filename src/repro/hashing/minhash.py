"""MinHash — min-wise independent permutations (Broder et al., STOC 1998).

An atomic hash assigns each universe position a random priority and
returns the minimum priority among the positions present in the set;
two sets collide with probability equal to their Jaccard *similarity*
``s``, i.e. ``p(r) = 1 - r`` for Jaccard distance ``r``.

Sets are represented as 0/1 indicator vectors over a universe of size
``dim`` (the same representation :mod:`repro.distances.jaccard` uses),
so hashing a batch is a masked column-min.  Not one of the paper's four
experiments, but listed among the supported families and used by the
near-duplicate-pages example.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.base import LSHFamily
from repro.hashing.composite import CompositeHash
from repro.utils.validation import check_positive_int

__all__ = ["MinHashLSH"]

# Priority assigned to positions absent from the set: larger than any
# real priority, so empty sets hash to a dedicated sentinel bucket.
_ABSENT = np.iinfo(np.int64).max


class MinHashLSH(LSHFamily):
    """Min-wise hashing over 0/1 indicator vectors under Jaccard distance.

    Parameters
    ----------
    dim:
        Universe size (number of indicator positions).
    seed:
        Randomness for priority sampling.

    Examples
    --------
    >>> fam = MinHashLSH(dim=8, seed=0)
    >>> g = fam.sample(k=2)
    >>> x = np.array([1, 0, 1, 0, 0, 0, 1, 0])
    >>> bool(np.all(g.hash_one(x) == g.hash_one(x)))
    True
    """

    metric_name = "jaccard"

    def sample(self, k: int) -> CompositeHash:
        """Draw ``k`` independent random priority assignments."""
        k = check_positive_int(k, "k")
        # priorities[j, i]: priority of universe position i under hash j.
        priorities = np.stack([self._rng.permutation(self.dim) for _ in range(k)]).astype(np.int64)

        def kernel(points: np.ndarray) -> np.ndarray:
            present = np.asarray(points).astype(bool)
            n = present.shape[0]
            values = np.empty((n, k), dtype=np.int64)
            for j in range(k):
                masked = np.where(present, priorities[j][None, :], _ABSENT)
                values[:, j] = masked.min(axis=1)
            return values

        return CompositeHash(kernel, k=k, dim=self.dim)

    def sample_batch(self, k: int, num_tables: int):
        """Stacked priority tables for all ``L`` tables.

        A query is hashed with one masked-min over the ``(L*k, d)``
        priority matrix; dataset hashing loops per atomic function to
        keep memory at ``O(n * d)``.
        """
        k = check_positive_int(k, "k")
        num_tables = check_positive_int(num_tables, "num_tables")
        priorities = np.stack(
            [self._rng.permutation(self.dim) for _ in range(k * num_tables)]
        ).astype(np.int64)
        return self.batch_from_params({"priorities": priorities}, k, num_tables)

    def batch_from_params(self, params: dict, k: int, num_tables: int):
        """The fused kernel over drawn or stored :meth:`sample_batch` params."""
        from repro.hashing.batched import BatchedHash

        priorities = params["priorities"]
        total = k * num_tables

        def fused(points: np.ndarray) -> np.ndarray:
            present = np.asarray(points).astype(bool)
            n = present.shape[0]
            if n == 1:
                masked = np.where(present[0][None, :], priorities, _ABSENT)
                return masked.min(axis=1)[None, :]
            values = np.empty((n, total), dtype=np.int64)
            for j in range(total):
                masked = np.where(present, priorities[j][None, :], _ABSENT)
                values[:, j] = masked.min(axis=1)
            return values

        return BatchedHash(
            fused, k=k, num_tables=num_tables, dim=self.dim, kind="minhash", params=params
        )

    def collision_probability(self, distance: float) -> float:
        """``1 - r`` for Jaccard distance ``r`` in [0, 1]."""
        if not 0.0 <= distance <= 1.0:
            raise ValueError(f"jaccard distance must be in [0, 1], got {distance}")
        return 1.0 - distance

    def collision_probability_batch(self, distances: np.ndarray) -> np.ndarray:
        """Vectorised ``1 - r``."""
        distances = np.asarray(distances, dtype=np.float64)
        return np.clip(1.0 - distances, 0.0, 1.0)
