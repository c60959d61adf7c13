"""Generic synthetic generators used by the dataset stand-ins and tests.

The Figure 1 story of the paper is about *diverse local density*: LSH
shines on queries in sparse regions and collapses on queries in dense
ones.  :func:`gaussian_mixture` is the workhorse that produces exactly
such landscapes — clusters with individually-chosen sizes and spreads
on top of an optional uniform background.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.queries import split_queries
from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = ["gaussian_mixture", "uniform_hypercube", "binary_sets", "mixed_workload"]


def gaussian_mixture(
    n: int,
    dim: int,
    centers: np.ndarray,
    spreads: np.ndarray,
    weights: np.ndarray | None = None,
    background_fraction: float = 0.0,
    background_scale: float = 1.0,
    seed: RandomState = None,
    return_labels: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Sample from a Gaussian mixture with per-cluster spreads.

    Parameters
    ----------
    n:
        Total number of points.
    dim:
        Dimensionality; must match ``centers.shape[1]``.
    centers:
        ``(c, dim)`` cluster centers.
    spreads:
        Length-``c`` per-cluster standard deviations (isotropic).
    weights:
        Length-``c`` sampling weights (uniform when ``None``);
        normalised internally.
    background_fraction:
        Fraction of the ``n`` points drawn uniformly from
        ``[0, background_scale]^dim`` instead of a cluster (label -1).
    background_scale:
        Side length of the background hypercube.
    seed:
        Sampling randomness.
    return_labels:
        Also return the cluster label per point (-1 for background).

    Returns
    -------
    points or (points, labels)
    """
    n = check_positive_int(n, "n")
    dim = check_positive_int(dim, "dim")
    centers = np.asarray(centers, dtype=np.float64)
    spreads = np.asarray(spreads, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[1] != dim:
        raise ConfigurationError(
            f"centers must have shape (c, {dim}), got {centers.shape}"
        )
    num_clusters = centers.shape[0]
    if spreads.shape != (num_clusters,):
        raise ConfigurationError(
            f"spreads must have shape ({num_clusters},), got {spreads.shape}"
        )
    if np.any(spreads < 0):
        raise ConfigurationError("spreads must be non-negative")
    if not 0.0 <= background_fraction < 1.0:
        raise ConfigurationError(
            f"background_fraction must be in [0, 1), got {background_fraction}"
        )
    if weights is None:
        weights = np.full(num_clusters, 1.0 / num_clusters)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (num_clusters,) or np.any(weights < 0) or weights.sum() == 0:
            raise ConfigurationError("weights must be non-negative and sum to > 0")
        weights = weights / weights.sum()

    rng = ensure_rng(seed)
    num_background = int(round(n * background_fraction))
    num_clustered = n - num_background
    labels = np.concatenate(
        [
            rng.choice(num_clusters, size=num_clustered, p=weights),
            np.full(num_background, -1, dtype=np.int64),
        ]
    )
    points = np.empty((n, dim), dtype=np.float64)
    clustered = labels >= 0
    if num_clustered:
        idx = labels[clustered]
        noise = rng.standard_normal(size=(num_clustered, dim))
        points[clustered] = centers[idx] + noise * spreads[idx][:, None]
    if num_background:
        points[~clustered] = rng.uniform(0.0, background_scale, size=(num_background, dim))
    # Shuffle so cluster membership is not encoded in row order.
    order = rng.permutation(n)
    points = points[order]
    labels = labels[order]
    if return_labels:
        return points, labels
    return points


def uniform_hypercube(
    n: int, dim: int, scale: float = 1.0, seed: RandomState = None
) -> np.ndarray:
    """``n`` points uniform on ``[0, scale]^dim`` (a no-structure control)."""
    n = check_positive_int(n, "n")
    dim = check_positive_int(dim, "dim")
    if scale <= 0:
        raise ConfigurationError(f"scale must be > 0, got {scale}")
    rng = ensure_rng(seed)
    return rng.uniform(0.0, scale, size=(n, dim))


def binary_sets(
    n: int,
    universe: int,
    avg_set_size: float,
    num_templates: int = 10,
    mutation_rate: float = 0.1,
    seed: RandomState = None,
) -> np.ndarray:
    """0/1 indicator vectors clustered around random template sets.

    Generates data for the Jaccard/MinHash path: ``num_templates``
    random template sets of expected size ``avg_set_size``; each point
    copies a template and flips each universe position with probability
    ``mutation_rate * avg_set_size / universe`` (on→off and off→on
    balanced so sizes stay stable).

    Returns
    -------
    numpy.ndarray
        ``(n, universe)`` uint8 matrix.
    """
    n = check_positive_int(n, "n")
    universe = check_positive_int(universe, "universe")
    num_templates = check_positive_int(num_templates, "num_templates")
    if not 0.0 <= mutation_rate <= 1.0:
        raise ConfigurationError(f"mutation_rate must be in [0, 1], got {mutation_rate}")
    if not 0 < avg_set_size <= universe:
        raise ConfigurationError(
            f"avg_set_size must be in (0, {universe}], got {avg_set_size}"
        )
    rng = ensure_rng(seed)
    density = avg_set_size / universe
    templates = rng.random(size=(num_templates, universe)) < density
    assignment = rng.integers(0, num_templates, size=n)
    points = templates[assignment].copy()
    # Symmetric mutation keeps expected set size at avg_set_size.
    flip_on = (rng.random(size=(n, universe)) < mutation_rate * density) & ~points
    flip_off = (rng.random(size=(n, universe)) < mutation_rate * density) & points
    points ^= flip_on | flip_off
    return points.astype(np.uint8)


def mixed_workload(
    n: int,
    dim: int = 24,
    num_queries: int = 200,
    seed: RandomState = 0,
) -> tuple[np.ndarray, np.ndarray, float]:
    """A Figure 1-style landscape where neither pure strategy wins.

    Tight Gaussian clusters produce "hard" queries (dense buckets →
    Algorithm 2 picks linear search) while a uniform background
    produces "easy" ones (near-empty buckets → LSH search).  Returns
    ``(data, queries, radius)`` with the queries split off the data per
    the paper's protocol; the radius spans a cluster, so cluster
    queries report hundreds of neighbors and background queries few.
    """
    rng = ensure_rng(seed)
    num_clusters = 6
    centers = rng.uniform(0.0, 10.0, size=(num_clusters, dim))
    # One dominant, very tight cluster: its points co-collide in every
    # table, so its queries exceed the Algorithm 2 linear threshold
    # (a cluster of size s costs up to (L + ratio) * s, vs ratio * n
    # for the scan) and dispatch to linear search.  Five mid-size
    # clusters sit safely *under* that threshold — LSH-bound but
    # collision-heavy, the regime where Step-S2 dedup dominates — and
    # a uniform background supplies the easy, near-empty-bucket queries.
    spreads = np.array([0.08, 0.10, 0.10, 0.10, 0.10, 0.10])
    weights = np.array([0.40, 0.12, 0.12, 0.12, 0.12, 0.12])
    points = gaussian_mixture(
        n + num_queries,
        dim,
        centers,
        spreads,
        weights=weights,
        background_fraction=0.25,
        background_scale=10.0,
        seed=rng,
    )
    data, queries = split_queries(points, num_queries=num_queries, seed=rng)
    radius = 0.25 * np.sqrt(2.0 * dim) * 1.2
    return data, queries, float(radius)
