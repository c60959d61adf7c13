"""The two pure strategies the hybrid answer is compared against."""

from __future__ import annotations

import numpy as np

from repro.core.linear_scan import LinearScan
from repro.core.lsh_search import LSHSearch


class PureStrategies:
    """The two pure strategies of Eq. 1/2 on one in-process index.

    Pure LSH is the hybrid searcher's own LSH branch forced on every
    row (batched lookup, the engine's vectorised dedup, distance
    filter); pure linear is ``LinearScan.query_batch``.  Both run on the
    index the hybrid answer came from, or its unsharded twin.
    """

    def __init__(self, index, dedup: str) -> None:
        self.index = index
        self.dedup = dedup
        self.lsh = LSHSearch(index)
        self._scan: LinearScan | None = None

    def scan(self) -> LinearScan:
        # insert() replaces the points array; a cached scan would be stale.
        if self._scan is None or self._scan.points is not self.index.points:
            self._scan = LinearScan(self.index.points, self.index.family.metric)
        return self._scan

    def gather(self, lookups: list) -> list[np.ndarray]:
        batched = getattr(self.index, "candidate_ids_batch", None)
        if batched is not None:
            return batched(lookups, dedup=self.dedup)
        return [self.index.candidate_ids(lk, dedup=self.dedup) for lk in lookups]

    def filter(self, queries: np.ndarray, radius: float, lookups: list, candidates: list) -> list:
        return [
            self.lsh.query_from_lookup(q, radius, lk, dedup=self.dedup, candidates=c)
            for q, lk, c in zip(queries, lookups, candidates)
        ]

    def lsh_batch(self, queries: np.ndarray, radius: float) -> list:
        lookups = self.index.lookup_batch(queries)
        return self.filter(queries, radius, lookups, self.gather(lookups))

    def linear_batch(self, queries: np.ndarray, radius: float) -> list:
        return self.scan().query_batch(queries, radius)
