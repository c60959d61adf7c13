"""Classic LSH-based rNNR search — the Equation (1) strategy.

Runs the three steps of the paper's cost model:

* **S1** hash the query into its bucket in each of the ``L`` tables;
* **S2** union the buckets, removing duplicates (we use the paper's
  n-bit bitvector technique, cost ``alpha * #collisions``);
* **S3** compute the distance to every distinct candidate and report
  those within ``r`` (cost ``beta * candSize``; a batch in cache-sized
  blocks of rows, :meth:`LSHSearch.filter_candidates_batch`).

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

#: Step-S3 crossover (:meth:`LSHSearch.filter_candidates_batch`): candidate
#: bytes a block gathers (1 365 points at d = 24); larger ran slower (2-core Xeon).
FILTER_BLOCK_BYTES = 1 << 18


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
    >>> from repro.api import Index, IndexSpec
    >>> rng = np.random.default_rng(0)
    >>> points = rng.normal(size=(500, 16))
    >>> built = Index.build(points, IndexSpec(
    ...     metric="cosine", radius=0.05, k=2, num_tables=20, seed=1))
    >>> searcher = LSHSearch(built.engine.index)
    >>> result = searcher.query(points[0], radius=0.05)
    >>> 0 in result.ids  # the point itself is at distance 0
    True
    >>> built.close()
    """

    def __init__(self, index: LSHIndex) -> None:
        # Step S3 gathers each candidate set's rows and their prepared
        # metric state (e.g. squared norms for L2) from the index's own
        # ``prepared_points()``: one array, kept current across inserts.
        self.index = index

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
        # ndarray.take: the same rows as fancy indexing (bit-identical
        # floats downstream) without its index-preparation pass.
        points, state = self.index.prepared_points()
        gathered = points.take(candidates, axis=0)
        state_sub = None if state is None else state.take(candidates, axis=0)
        metric = self.index.family.metric
        distances = metric.distances_to_prepared(gathered, query, state_sub)
        within = distances <= radius
        return candidates[within], distances[within]

    def filter_candidates_batch(
        self, queries: np.ndarray, radius: float, candidate_sets: list[np.ndarray]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Step S3 of a batch: :meth:`filter_candidates` of every row, bit for bit.

        Non-empty rows are packed in order into blocks of at most
        :data:`FILTER_BLOCK_BYTES` of candidate points; a block gathers
        once, runs :attr:`~repro.distances.base.Metric.rows_prepared`
        into one buffer, thresholds once and splits by row.  A row alone
        in its block (a single query, an empty or a large row, any row
        of a metric without that kernel) is :meth:`filter_candidates` —
        except that rows alone with *equal* candidate arrays (queries
        into one cluster) gather the points and their prepared state
        once, then each runs the same per-row kernel on that block.
        """
        if len(candidate_sets) == 1:
            return [self.filter_candidates(queries[0], radius, candidate_sets[0])]
        points, state = self.index.prepared_points()
        metric = self.index.family.metric
        kernel = None if state is None else metric.rows_prepared
        cap = -1 if kernel is None else FILTER_BLOCK_BYTES // points[0].nbytes
        blocks: list[list[int]] = []
        filled = 0
        for i, candidates in enumerate(candidate_sets):
            if not candidates.size:
                continue
            if blocks and filled + candidates.size <= cap:
                blocks[-1].append(i)
                filled += candidates.size
            else:
                blocks.append([i])
                filled = candidates.size
        out: list = [
            None if c.size else (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
            for c in candidate_sets
        ]
        for rows in _equal_rows(candidate_sets, [b[0] for b in blocks if len(b) == 1]):
            # Back to back: one gathered block alive at a time.
            candidates = candidate_sets[rows[0]]
            gathered = points.take(candidates, axis=0)
            state_sub = None if state is None else state.take(candidates, axis=0)
            for i in rows:
                distances = metric.distances_to_prepared(gathered, queries[i], state_sub)
                within = distances <= radius
                out[i] = (candidate_sets[i][within], distances[within])
        for rows in blocks:
            if len(rows) == 1:
                continue
            flat = np.concatenate([candidate_sets[i] for i in rows])
            bounds = np.cumsum([0, *(candidate_sets[i].size for i in rows)])
            distances = kernel(
                points.take(flat, axis=0), queries[rows], bounds, state.take(flat, axis=0)
            )
            within = distances <= radius
            ids, distances = flat[within], distances[within]
            ends = np.cumsum(within)[bounds[1:] - 1].tolist()  # rows are non-empty
            for i, a, b in zip(rows, [0, *ends], ends):
                out[i] = (ids[a:b], distances[a:b])
        return out

    def __repr__(self) -> str:
        return f"LSHSearch(index={self.index!r})"


def _equal_rows(candidate_sets: list[np.ndarray], rows: list[int]) -> list[list[int]]:
    """``rows`` grouped by equal candidate arrays, in first-seen order.

    Rows are keyed by ``(size, first, last, dtype)`` and confirmed equal
    by :func:`numpy.array_equal`, so unequal arrays that share the key
    stay apart.
    """
    groups: list[list[int]] = []
    by_key: dict[tuple, list[list[int]]] = {}
    for i in rows:
        candidates = candidate_sets[i]
        key = (candidates.size, int(candidates[0]), int(candidates[-1]), candidates.dtype)
        same_key = by_key.setdefault(key, [])
        for group in same_key:
            if np.array_equal(candidate_sets[group[0]], candidates):
                group.append(i)
                break
        else:
            same_key.append([i])
            groups.append(same_key[-1])
    return groups
