"""The LSH family abstraction.

Definition 2 of the paper (after Indyk–Motwani): a family ``H`` is
``(r, cr, p1, p2)``-sensitive for a distance ``f`` when near points
(``f <= r``) collide with probability at least ``p1`` and far points
(``f >= cr``) with probability at most ``p2 < p1``.

Concrete families subclass :class:`LSHFamily` and provide

* :meth:`LSHFamily.sample` — draw a :class:`~repro.hashing.composite.CompositeHash`
  of ``k`` independent atomic functions (the per-table reference the
  fused kernels are checked against);
* :meth:`LSHFamily.sample_batch` — draw all ``L`` of an index's
  composite functions as one fused kernel (what the index hashes with);
* :meth:`LSHFamily.collision_probability` (and its vectorised
  ``_batch`` form) — the exact ``p(c)`` curve of one atomic function at
  distance ``c``, which both the parameter rule
  ``k = ceil(log(1 - delta^{1/L}) / log p1)`` and the recall analysis
  consume.

The package has one family per metric of the paper; which one a metric
gets is decided in one place, :func:`repro.core.presets.paper_parameters`.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.distances import Metric, get_metric
from repro.hashing.batched import BatchedHash
from repro.utils.rng import RandomState, ensure_rng

__all__ = ["LSHFamily"]


class LSHFamily(abc.ABC):
    """Abstract base class for locality-sensitive hash families.

    Parameters
    ----------
    dim:
        Dimensionality of the vectors to be hashed.
    seed:
        Master randomness; every :meth:`sample` call consumes from it,
        so two families constructed with the same seed draw identical
        hash functions in the same order.
    """

    #: canonical name of the metric this family is sensitive for
    metric_name: str = ""

    def __init__(self, dim: int, seed: RandomState = None) -> None:
        if dim < 1:
            from repro.exceptions import ConfigurationError

            raise ConfigurationError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self._rng = ensure_rng(seed)

    @property
    def metric(self) -> Metric:
        """The :class:`~repro.distances.base.Metric` this family targets."""
        return get_metric(self.metric_name)

    @abc.abstractmethod
    def sample(self, k: int) -> CompositeHashProtocol:
        """Draw a composite hash of ``k`` independent atomic functions."""

    @abc.abstractmethod
    def sample_batch(self, k: int, num_tables: int) -> BatchedHash:
        """Draw the ``L`` composite functions of an index, fused.

        The returned :class:`~repro.hashing.batched.BatchedHash` hashes
        a query into all ``L`` tables with one vectorised call (the
        Step-S1 fast path): one stacked kernel over all ``L * k``
        atomic functions.
        """

    @abc.abstractmethod
    def collision_probability(self, distance: float) -> float:
        """``Pr[h(x) = h(y)]`` for one atomic function at the given distance."""

    def p1(self, radius: float) -> float:
        """Collision probability at the query radius (the ``p1`` of Def. 2)."""
        return self.collision_probability(radius)

    @abc.abstractmethod
    def collision_probability_batch(self, distances: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`collision_probability`."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class CompositeHashProtocol:
    """Structural type for what :meth:`LSHFamily.sample` returns.

    Documented here for reference; the concrete implementation is
    :class:`repro.hashing.composite.CompositeHash`.
    """

    def hash_matrix(self, points: np.ndarray) -> np.ndarray:  # pragma: no cover
        """``(n, d) -> (n, k)`` integer hash values."""
        raise NotImplementedError

    def keys(self, points: np.ndarray) -> list[bytes]:  # pragma: no cover
        """``(n, d) -> n`` hashable bucket keys."""
        raise NotImplementedError
