"""Hamming distance on binary vectors, the metric of the MNIST experiment.

The paper converts MNIST images to 64-bit SimHash fingerprints and then
runs bit-sampling LSH under Hamming distance.  Vectors here are dense
``uint8``/bool arrays of 0/1 entries (one dimension per bit); the
fingerprint pipeline in :mod:`repro.datasets.fingerprints` produces this
representation.  Keeping bits as array entries (rather than packed
machine words) makes bit sampling a plain column lookup, matching the
formulation of Indyk–Motwani.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hamming_distance", "hamming_distance_batch"]


def hamming_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Number of positions where binary vectors ``x`` and ``y`` differ.

    Examples
    --------
    >>> hamming_distance(np.array([0, 1, 1, 0]), np.array([1, 1, 0, 0]))
    2.0
    """
    x = np.asarray(x)
    y = np.asarray(y)
    return float(np.count_nonzero(x != y))


def hamming_distance_batch(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Hamming distances from every row of ``points`` to ``query``.

    Operates on the raw integer/bool representation; no float conversion
    is needed, which keeps the "distance computation is very cheap for
    binary data" property the paper notes for MNIST.
    """
    points = np.asarray(points)
    query = np.asarray(query)
    return (points != query).sum(axis=1).astype(np.float64)
