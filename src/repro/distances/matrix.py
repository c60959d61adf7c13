"""All-pairs distance computation for calibration and dataset analysis.

The alpha/beta calibration of Section 4.2 and the distance-distribution
diagnostics used to pick experiment radii both need pairwise distances
between a query sample and a data sample; this module provides a single
entry point that reuses the metrics' batch kernels.
"""

from __future__ import annotations

import numpy as np

from repro.distances.base import Metric, get_metric

__all__ = ["pairwise_distances"]


def pairwise_distances(
    queries: np.ndarray, points: np.ndarray, metric: str | Metric
) -> np.ndarray:
    """Distance matrix ``D[i, j] = metric(queries[i], points[j])``.

    Parameters
    ----------
    queries:
        ``(q, d)`` array of query vectors.
    points:
        ``(n, d)`` array of data vectors.
    metric:
        Metric name or :class:`~repro.distances.base.Metric`.

    Returns
    -------
    numpy.ndarray
        ``(q, n)`` float matrix.

    Notes
    -----
    This loops over queries and calls the metric's batch kernel per row,
    which is O(q) kernel launches but keeps memory at ``O(n)`` per call;
    for the sample sizes used in calibration (100 x 10,000 in the paper)
    this is instantaneous.
    """
    metric = get_metric(metric)
    queries = np.asarray(queries)
    points = np.asarray(points)
    if queries.ndim == 1:
        queries = queries[None, :]
    out = np.empty((queries.shape[0], points.shape[0]), dtype=np.float64)
    for i, q in enumerate(queries):
        out[i] = metric.distances_to(points, q)
    return out
