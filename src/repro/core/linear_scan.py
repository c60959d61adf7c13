"""Linear search — the exact baseline of Equation (2).

A linear scan computes the distance from the query to every one of the
``n`` points (cost ``beta * n``) and reports those within ``r``.  It is
exact (recall 1.0 by construction) and, as the paper's Figure 1 argues,
it *beats* LSH-based search on "hard" queries in dense regions — the
observation that motivates hybrid search.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.results import QueryResult, QueryStats, Strategy
from repro.distances import Metric, get_metric
from repro.utils.validation import check_matrix, check_positive, check_vector

__all__ = ["LinearScan", "exact_topk_results"]


def exact_topk_results(
    all_ids: np.ndarray, distance_blocks: list[np.ndarray], k: int, n: int
) -> list[QueryResult]:
    """Exact top-k selection with deterministic ``(distance, id)`` tie-breaking.

    ``distance_blocks`` holds one ``(q, n_b)`` distance block per data
    partition (a single block for an unpartitioned scan) and ``all_ids``
    the concatenated global ids those columns refer to.  Shared by the
    sharded index and the single-index facade so both layouts select —
    and tie-break — identically; results are ordered by ascending
    distance (ties by id) and ``result.radius`` reports the k-th distance.
    """
    num_queries = distance_blocks[0].shape[0]
    results = []
    for qi in range(num_queries):
        distances = np.concatenate([block[qi] for block in distance_blocks])
        order = np.lexsort((all_ids, distances))[:k]
        ids = all_ids[order]
        dists = distances[order]
        stats = QueryStats(strategy=Strategy.LINEAR, linear_cost=float(n), exact=True)
        results.append(
            QueryResult(ids=ids, distances=dists, radius=float(dists[-1]), stats=stats)
        )
    return results


class LinearScan:
    """Brute-force rNNR over a fixed point set.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix.
    metric:
        Metric name or :class:`~repro.distances.base.Metric`.
    prepared:
        The metric's prepared per-row state of ``points`` when the
        caller already holds it (an index's row norms,
        :meth:`~repro.index.frozen.FrozenLSHIndex.prepared_points`);
        ``None`` prepares it on the first batch.

    Examples
    --------
    >>> import numpy as np
    >>> scan = LinearScan(np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]]), "l2")
    >>> scan.query(np.array([0.0, 0.0]), radius=5.0).ids.tolist()
    [0, 1]
    """

    def __init__(self, points: np.ndarray, metric: str | Metric, prepared=None) -> None:
        self.metric = get_metric(metric)
        self.points = check_matrix(points, name="points")
        self.n = int(self.points.shape[0])
        self.dim = int(self.points.shape[1])
        # Metric state (e.g. squared norms for L2) shared by every batch
        # call: the caller's, or computed on first use.  The scan object
        # is rebuilt on insert, so the state can never go stale.
        # Callers on several threads (a partition helper beside
        # concurrent batches) share one scan, so the first computation
        # is made under a lock.
        self._prepared_lock = threading.Lock()
        self._prepared_state = prepared
        self._prepared_ready = prepared is not None

    def _prepared(self):
        if not self._prepared_ready:
            with self._prepared_lock:
                if not self._prepared_ready:
                    self._prepared_state = self.metric.prepare_points(self.points)
                    self._prepared_ready = True
        return self._prepared_state

    def query(self, query: np.ndarray, radius: float) -> QueryResult:
        """Report every point within ``radius`` of ``query`` (exact)."""
        query = check_vector(query, dim=self.dim, name="query")
        radius = check_positive(radius, "radius")
        distances = self.metric.distances_to(self.points, query)
        mask = distances <= radius
        ids = np.flatnonzero(mask)
        stats = QueryStats(
            strategy=Strategy.LINEAR, linear_cost=float(self.n), exact=True
        )
        return QueryResult(ids=ids, distances=distances[mask], radius=radius, stats=stats)

    def query_batch(self, queries: np.ndarray, radius: float) -> list[QueryResult]:
        """Answer a query set with one distance-matrix pass.

        Computes the full ``(q, n)`` distance matrix with one batch
        kernel call per row — bit-identical to looping :meth:`query`
        (the prepared kernel reuses the query-independent terms but
        reproduces the plain kernel's floats exactly) — and thresholds
        each row.
        """
        queries = check_matrix(queries, dim=self.dim, name="queries")
        radius = check_positive(radius, "radius")
        state = self._prepared()
        distance_matrix = np.empty((queries.shape[0], self.n), dtype=np.float64)
        for i, q in enumerate(queries):
            distance_matrix[i] = self.metric.distances_to_prepared(
                self.points, q, state
            )
        results = []
        for row in distance_matrix:
            mask = row <= radius
            stats = QueryStats(
                strategy=Strategy.LINEAR, linear_cost=float(self.n), exact=True
            )
            results.append(
                QueryResult(
                    ids=np.flatnonzero(mask),
                    distances=row[mask],
                    radius=radius,
                    stats=stats,
                )
            )
        return results

    def query_ids(self, query: np.ndarray, radius: float) -> np.ndarray:
        """Just the neighbor ids (used as ground truth by the evaluator)."""
        return self.query(query, radius).ids

    def __repr__(self) -> str:
        return f"LinearScan(n={self.n}, dim={self.dim}, metric={self.metric.name})"
