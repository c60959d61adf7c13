"""Metric abstraction and registry.

A :class:`Metric` bundles the scalar kernel, the batch kernel and a
human-readable name.  The registry maps canonical names and their
aliases to metric instances; LSH families declare which metric they are
sensitive for by naming it, and the hybrid searcher looks the kernels up
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

import numpy as np

from repro.exceptions import UnknownMetricError

__all__ = ["Metric", "register_metric", "get_metric", "available_metrics"]

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
        Alternative registry keys (e.g. ``"euclidean"`` for ``"l2"``).
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


_REGISTRY: dict[str, Metric] = {}


def register_metric(metric: Metric) -> Metric:
    """Add ``metric`` to the registry under its name and aliases.

    Re-registering an existing name replaces it, which keeps the module
    reload-friendly (useful in notebooks and in the test suite).
    """
    _REGISTRY[metric.name.lower()] = metric
    for alias in metric.aliases:
        _REGISTRY[alias.lower()] = metric
    return metric


def get_metric(name: str | Metric) -> Metric:
    """Resolve a metric by name (case-insensitive) or pass one through.

    Raises
    ------
    UnknownMetricError
        If ``name`` is not registered.
    """
    if isinstance(name, Metric):
        return name
    key = name.lower()
    if key not in _REGISTRY:
        known = ", ".join(sorted(available_metrics()))
        raise UnknownMetricError(f"unknown metric {name!r}; known metrics: {known}")
    return _REGISTRY[key]


def available_metrics() -> list[str]:
    """Sorted list of canonical metric names (aliases excluded)."""
    return sorted({m.name for m in _REGISTRY.values()})
