"""The metric record and the paper's four metrics.

A :class:`Metric` bundles the scalar kernel, the batch kernel and a
human-readable name.  :func:`get_metric` resolves the canonical names
and aliases of the four metrics the paper evaluates (L2, L1, cosine,
Hamming); LSH families declare which metric they are sensitive for by
naming it, and the hybrid searcher looks the kernels up here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

import numpy as np

from repro.distances.cosine import cosine_distance, cosine_distance_batch
from repro.distances.euclidean import (
    euclidean_distance,
    euclidean_distance_batch,
    euclidean_distance_batch_prepared,
    euclidean_distance_rows_prepared,
    euclidean_prepare,
)
from repro.distances.hamming import hamming_distance, hamming_distance_batch
from repro.distances.manhattan import manhattan_distance, manhattan_distance_batch
from repro.exceptions import UnknownMetricError

__all__ = ["Metric", "get_metric", "available_metrics"]

ScalarKernel = Callable[[np.ndarray, np.ndarray], float]
BatchKernel = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Metric:
    """A distance measure with scalar and vectorised kernels.

    Attributes
    ----------
    name:
        Canonical lower-case name (``"l2"``, ``"cosine"``, ...).
    scalar:
        ``scalar(x, y)`` -> distance between two vectors.
    batch:
        ``batch(X, q)`` -> 1-d array of distances from each row of the
        ``(n, d)`` matrix ``X`` to the vector ``q``.
    description:
        One-line summary for reports and ``repr``.
    aliases:
        Alternative names :func:`get_metric` accepts (e.g.
        ``"euclidean"`` for ``"l2"``).
    """

    name: str
    scalar: ScalarKernel
    batch: BatchKernel
    description: str = ""
    aliases: tuple[str, ...] = field(default=())
    #: Optional serving-side fast path: ``prepare(points)`` computes a
    #: reusable per-point state (e.g. squared norms for L2) and
    #: ``batch_prepared(points, query, state)`` consumes it, returning
    #: **bit-identical** distances to ``batch(points, query)``.  Batch
    #: engines amortise ``prepare`` across many queries; metrics without
    #: a prepared kernel fall back to ``batch`` transparently.
    prepare: Callable[[np.ndarray], np.ndarray] | None = None
    batch_prepared: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    #: Optional many-query form of ``batch_prepared`` (needs ``prepare``):
    #: ``rows_prepared(points, queries, bounds, state)`` returns the
    #: distances of ``points[bounds[i]:bounds[i + 1]]`` to ``queries[i]``
    #: for every ``i``, back to back, each block's floats bit-identical to
    #: ``batch_prepared`` over that block alone.
    rows_prepared: Callable[..., np.ndarray] | None = None

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        """Scalar distance between ``x`` and ``y``."""
        return self.scalar(x, y)

    def distances_to(self, points: np.ndarray, query: np.ndarray) -> np.ndarray:
        """Distances from every row of ``points`` to ``query``."""
        return self.batch(points, query)

    def prepare_points(self, points: np.ndarray):
        """Per-point reusable state for :meth:`distances_to_prepared`.

        Returns ``None`` when the metric has no prepared kernel.
        """
        if self.prepare is None:
            return None
        return self.prepare(points)

    def distances_to_prepared(
        self, points: np.ndarray, query: np.ndarray, state
    ) -> np.ndarray:
        """Like :meth:`distances_to`, reusing prepared per-point state.

        Falls back to the plain batch kernel when ``state`` is ``None``;
        the returned distances are bit-identical either way.
        """
        if state is None or self.batch_prepared is None:
            return self.batch(points, query)
        return self.batch_prepared(points, query, state)

    def __repr__(self) -> str:
        return f"Metric({self.name!r})"


_METRICS = (
    Metric(
        name="l2",
        scalar=euclidean_distance,
        batch=euclidean_distance_batch,
        description="Euclidean distance (p-stable LSH with Gaussian projections)",
        aliases=("euclidean",),
        prepare=euclidean_prepare,
        batch_prepared=euclidean_distance_batch_prepared,
        rows_prepared=euclidean_distance_rows_prepared,
    ),
    Metric(
        name="l1",
        scalar=manhattan_distance,
        batch=manhattan_distance_batch,
        description="Manhattan distance (p-stable LSH with Cauchy projections)",
        aliases=("manhattan", "cityblock"),
    ),
    Metric(
        name="cosine",
        scalar=cosine_distance,
        batch=cosine_distance_batch,
        description="Cosine distance 1 - cos(x, y) in [0, 2] (SimHash LSH)",
        aliases=("angular",),
    ),
    Metric(
        name="hamming",
        scalar=hamming_distance,
        batch=hamming_distance_batch,
        description="Hamming distance on 0/1 vectors (bit-sampling LSH)",
    ),
)

#: Canonical names and aliases -> the four metrics.
_BY_NAME = {key: metric for metric in _METRICS for key in (metric.name, *metric.aliases)}


def get_metric(name: str | Metric) -> Metric:
    """Resolve a metric by name (case-insensitive) or pass one through.

    Raises
    ------
    UnknownMetricError
        If ``name`` is none of the four metrics or their aliases.
    """
    if isinstance(name, Metric):
        return name
    key = name.lower()
    if key not in _BY_NAME:
        known = ", ".join(available_metrics())
        raise UnknownMetricError(f"unknown metric {name!r}; known metrics: {known}")
    return _BY_NAME[key]


def available_metrics() -> list[str]:
    """Sorted list of canonical metric names (aliases excluded)."""
    return sorted(metric.name for metric in _METRICS)
