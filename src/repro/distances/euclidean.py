"""Euclidean (L2) distance, the metric of the Corel experiment.

The paper indexes Corel Images (``d = 32``) under L2 using the p-stable
LSH of Datar et al. with Gaussian projections; the verification step
(Step S3 of the cost model) computes these distances for every
candidate, which is why a fast batch kernel matters.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "euclidean_distance",
    "euclidean_distance_batch",
    "euclidean_prepare",
    "euclidean_distance_batch_prepared",
    "euclidean_distance_rows_prepared",
]


def euclidean_distance(x: np.ndarray, y: np.ndarray) -> float:
    """L2 distance between two equal-length vectors.

    Examples
    --------
    >>> euclidean_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
    5.0
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    diff = x - y
    return math.sqrt(float(np.dot(diff, diff)))


def euclidean_distance_batch(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """L2 distances from every row of ``points`` to ``query``.

    Uses the expansion ``|x - q|^2 = |x|^2 - 2 x.q + |q|^2`` which turns
    the scan into one matrix-vector product; negative round-off is
    clipped before the square root.
    """
    points = np.asarray(points, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    sq = np.einsum("ij,ij->i", points, points) - 2.0 * (points @ query) + np.dot(query, query)
    np.clip(sq, 0.0, None, out=sq)
    return np.sqrt(sq)


def euclidean_prepare(points: np.ndarray) -> np.ndarray:
    """Reusable squared row norms — the query-independent einsum term."""
    points = np.asarray(points, dtype=np.float64)
    return np.einsum("ij,ij->i", points, points)


def euclidean_distance_batch_prepared(
    points: np.ndarray, query: np.ndarray, norms: np.ndarray
) -> np.ndarray:
    """:func:`euclidean_distance_batch` with the row norms precomputed.

    Bit-identical: ``norms`` holds exactly the per-row einsum values the
    plain kernel recomputes (the reduction is per row, so a cached or
    gathered norm carries the same float), and the remaining ops match
    term for term.
    """
    points = np.asarray(points, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    sq = norms - 2.0 * (points @ query) + np.dot(query, query)
    np.clip(sq, 0.0, None, out=sq)
    return np.sqrt(sq)


def euclidean_distance_rows_prepared(
    points: np.ndarray, queries: np.ndarray, bounds: np.ndarray, norms: np.ndarray
) -> np.ndarray:
    """:func:`euclidean_distance_batch_prepared` of ``points[bounds[i]:
    bounds[i + 1]]`` and ``queries[i]`` for every ``i``, back to back —
    bit for bit: each block runs the same gemv into its slice of one
    buffer, and the elementwise tail runs once with each row's ``|q|^2``.
    """
    points = np.asarray(points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    dots = np.empty(points.shape[0])
    query_norms = np.empty(queries.shape[0])
    starts, stops = bounds[:-1].tolist(), bounds[1:].tolist()
    for i, (query, a, b) in enumerate(zip(queries, starts, stops)):
        np.matmul(points[a:b], query, out=dots[a:b])
        query_norms[i] = np.dot(query, query)
    sq = norms - 2.0 * dots + np.repeat(query_norms, np.diff(bounds))
    np.clip(sq, 0.0, None, out=sq)
    return np.sqrt(sq)
