"""Manhattan (L1) distance, the metric of the CoverType experiment.

The paper indexes CoverType (``d = 54``) under L1 using p-stable LSH
with Cauchy projections (Datar et al.).
"""

from __future__ import annotations

import numpy as np

__all__ = ["manhattan_distance", "manhattan_distance_batch"]


def manhattan_distance(x: np.ndarray, y: np.ndarray) -> float:
    """L1 distance between two equal-length vectors.

    Examples
    --------
    >>> manhattan_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
    7.0
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(np.abs(x - y).sum())


def manhattan_distance_batch(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """L1 distances from every row of ``points`` to ``query``."""
    points = np.asarray(points, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    return np.abs(points - query).sum(axis=1)
