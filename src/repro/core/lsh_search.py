"""Classic LSH-based rNNR search — the Equation (1) strategy.

Runs the three steps of the paper's cost model:

* **S1** hash the query into its bucket in each of the ``L`` tables;
* **S2** union the buckets, removing duplicates (we use the paper's
  n-bit bitvector technique, cost ``alpha * #collisions``);
* **S3** compute the distance to every distinct candidate and report
  those within ``r`` (cost ``beta * candSize``).

Recall is probabilistic: a true ``r``-near neighbor is reported with
probability at least ``1 - delta`` when ``k`` was chosen by the
paper's parameter rule.
"""

from __future__ import annotations

import numpy as np

from repro.core.results import QueryResult, QueryStats, Strategy
from repro.index.lsh_index import LSHIndex, QueryLookup
from repro.utils.validation import check_positive, check_vector

__all__ = ["LSHSearch"]


class LSHSearch:
    """Classic multi-table LSH reporting over a built index.

    Parameters
    ----------
    index:
        A built :class:`~repro.index.lsh_index.LSHIndex` (sketches are
        not required; this searcher never touches them).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.hashing import SimHashLSH
    >>> from repro.index import LSHIndex
    >>> rng = np.random.default_rng(0)
    >>> points = rng.normal(size=(500, 16))
    >>> index = LSHIndex(SimHashLSH(16, seed=1), k=2, num_tables=20).build(points)
    >>> searcher = LSHSearch(index)
    >>> result = searcher.query(points[0], radius=0.05)
    >>> 0 in result.ids  # the point itself is at distance 0
    True
    """

    def __init__(self, index: LSHIndex) -> None:
        self.index = index
        # Metric state (e.g. squared norms for L2) over the full point
        # matrix, gathered per candidate set in Step S3; refreshed when
        # insert() replaces the points array.
        self._prepared_points: np.ndarray | None = None
        self._prepared_state = None
        # Last candidate gather, keyed by array identity: batched
        # serving hands queries with identical bucket sets the *same*
        # candidates object, and the (points, norms) gather is
        # query-independent, so it is reused verbatim.
        self._gather_key: np.ndarray | None = None
        self._gather_value = None

    def _prepared(self):
        points = self.index.points
        if self._prepared_points is not points:
            self._prepared_state = self.index.family.metric.prepare_points(points)
            self._prepared_points = points
        return self._prepared_state

    def query(self, query: np.ndarray, radius: float) -> QueryResult:
        """Report near neighbors via bucket lookup + candidate verification."""
        query = check_vector(query, dim=self.index.dim, name="query")
        radius = check_positive(radius, "radius")
        lookup = self.index.lookup(query)
        return self.query_from_lookup(query, radius, lookup)

    def query_batch(self, queries: np.ndarray, radius: float) -> list[QueryResult]:
        """Answer a query set; Step S1 is one fused hashing pass.

        Identical results to ``[self.query(q, radius) for q in queries]``.
        """
        radius = check_positive(radius, "radius")
        queries = np.asarray(queries)
        lookups = self.index.lookup_batch(queries)
        return [
            self.query_from_lookup(query, radius, lookup)
            for query, lookup in zip(queries, lookups)
        ]

    def query_from_lookup(
        self,
        query: np.ndarray,
        radius: float,
        lookup: QueryLookup,
        dedup: str | None = None,
        candidates: np.ndarray | None = None,
    ) -> QueryResult:
        """Steps S2+S3 given an existing lookup (hybrid search reuses S1).

        ``dedup`` is forwarded to
        :meth:`~repro.index.lsh_index.LSHIndex.candidate_ids`; both
        implementations yield the identical candidate array, so the
        answer never depends on it.  A precomputed ``candidates`` array
        (from a batched Step-S2 pass) skips the per-query dedup.
        """
        if candidates is None:
            candidates = self.index.candidate_ids(lookup, dedup=dedup)
        ids, dists = self.filter_candidates(query, radius, candidates)
        stats = QueryStats(
            strategy=Strategy.LSH,
            num_collisions=lookup.num_collisions,
            exact_candidates=int(candidates.size),
        )
        return QueryResult(ids=ids, distances=dists, radius=radius, stats=stats)

    def filter_candidates(
        self, query: np.ndarray, radius: float, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step S3 alone: ``(ids, distances)`` of the candidates within ``radius``.

        What the hybrid searcher calls on its LSH rows — it builds the
        row's result and decision stats itself, once.
        """
        if not candidates.size:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        if candidates is self._gather_key:
            gathered, state_sub = self._gather_value
        else:
            # ndarray.take: the same rows as fancy indexing (bit-identical
            # floats downstream) without its index-preparation pass.
            state = self._prepared()
            gathered = self.index.points.take(candidates, axis=0)
            state_sub = None if state is None else state.take(candidates, axis=0)
            self._gather_key = candidates
            self._gather_value = (gathered, state_sub)
        metric = self.index.family.metric
        distances = metric.distances_to_prepared(gathered, query, state_sub)
        within = distances <= radius
        return candidates[within], distances[within]

    def __repr__(self) -> str:
        return f"LSHSearch(index={self.index!r})"
