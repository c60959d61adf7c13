"""Cosine distance, the metric of the Webspam experiment.

The paper indexes Webspam (``d = 254``) under cosine distance using
SimHash (Charikar's random-hyperplane LSH).  We define cosine distance
as ``1 - cos(x, y)`` so it lies in ``[0, 2]``; the paper's Webspam radii
``r in [0.05, 0.1]`` are on this scale.  SimHash is sensitive for the
*angular* distance ``theta / pi``; the conversion between the two lives
with the SimHash family (:mod:`repro.hashing.simhash`), not here.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["cosine_distance", "cosine_distance_batch"]


def cosine_distance(x: np.ndarray, y: np.ndarray) -> float:
    """``1 - cosine_similarity(x, y)``; zero vectors are at distance 1.

    Examples
    --------
    >>> cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    1.0
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    nx = math.sqrt(float(np.dot(x, x)))
    ny = math.sqrt(float(np.dot(y, y)))
    if nx == 0.0 or ny == 0.0:
        return 1.0
    sim = float(np.dot(x, y)) / (nx * ny)
    # Round-off can push |sim| a hair above 1; clamp so distances stay in [0, 2].
    sim = max(-1.0, min(1.0, sim))
    return 1.0 - sim


def cosine_distance_batch(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Cosine distances from every row of ``points`` to ``query``.

    Rows with zero norm (and the all-zero query) get distance 1, the
    same convention as the scalar kernel.
    """
    points = np.asarray(points, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    qnorm = math.sqrt(float(np.dot(query, query)))
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    if qnorm == 0.0:
        return np.ones(points.shape[0])
    dots = points @ query
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = dots / (norms * qnorm)
    sims = np.where(norms == 0.0, 0.0, sims)
    np.clip(sims, -1.0, 1.0, out=sims)
    return 1.0 - sims
