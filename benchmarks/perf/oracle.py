"""The harness's own brute force: ground truth and the timing yardstick.

Nothing here imports ``repro`` — the oracle must not share a kernel, a
bug or a speed-up with the program it judges.  It does two jobs with the
same pass over the data:

* **ground truth** — the squared distance from every query of a slice
  to every current point, from which a :class:`Truth` decides whether a
  reported id is allowed (true distance within ``r``) and how many of
  the true neighbours an answer found;
* **the yardstick** — the wall time of one complete brute-force rNNR
  answer for the slice (distances, threshold, id and distance arrays),
  computed a second time by a plain per-query numpy loop.
  One *scan* is that time divided by the slice's query count; every
  timing metric of the benchmark is reported as a multiple of the scan
  measured in the same cycle, so host drift and CPU steal cancel.
"""

from __future__ import annotations

import time

import numpy as np

#: Relative half-width (of r²) of the band around the radius in which a
#: point counts neither as a required neighbour nor as a wrong answer:
#: the program's distance kernel and this one may round differently.
BOUNDARY = 1e-9

#: Points per block of the scan.  The yardstick is deliberately a
#: per-query, per-block numpy loop and not one big GEMM: its mix of
#: interpreter steps, numpy dispatch on L2-sized arrays and streaming
#: reads is the program's own mix, so the host's slow phases hit both
#: alike.  Measured over 6 minutes of natural drift on the 2-core
#: reference host, the 30-second medians of ``Index.query`` time over
#: scan time varied by 1.4-1.8 % with this scan and by 3.0-3.5 % with a
#: single-GEMM scan of the same slice.
_BLOCK = 2048


class Oracle:
    """Brute-force L2 rNNR over a point set that grows with inserts."""

    def __init__(self, points: np.ndarray, radius: float, capacity: int) -> None:
        n, dim = points.shape
        self._points = np.empty((max(capacity, n), dim), dtype=np.float64)
        self._norms = np.empty(self._points.shape[0], dtype=np.float64)
        self.n = 0
        self.radius = float(radius)
        self.r2 = self.radius * self.radius
        self.extend(points)

    @property
    def points(self) -> np.ndarray:
        return self._points[: self.n]

    def extend(self, new_points: np.ndarray) -> None:
        """Append inserted points (ids continue at the current ``n``)."""
        m = new_points.shape[0]
        if self.n + m > self._points.shape[0]:
            raise ValueError("oracle capacity exceeded; size it for the schedule")
        self._points[self.n : self.n + m] = new_points
        self._norms[self.n : self.n + m] = np.einsum("ij,ij->i", new_points, new_points)
        self.n += m

    def squared_distances(self, queries: np.ndarray) -> np.ndarray:
        """``(q, n)`` squared distances (one GEMM; the ground-truth pass)."""
        q_norms = np.einsum("ij,ij->i", queries, queries)
        d2 = queries @ self.points.T
        d2 *= -2.0
        d2 += self._norms[: self.n]
        d2 += q_norms[:, None]
        return d2

    def scan(self, queries: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """One complete brute-force answer ``[(ids, distances), ...]``: the yardstick."""
        points, norms, r2 = self.points, self._norms, self.r2
        answers = []
        for query in queries:
            q_norm = query @ query
            ids, distances = [], []
            for start in range(0, self.n, _BLOCK):
                stop = min(start + _BLOCK, self.n)
                d2 = norms[start:stop] - 2.0 * (points[start:stop] @ query) + q_norm
                hits = np.flatnonzero(d2 <= r2)
                if hits.size:
                    ids.append(hits + start)
                    distances.append(np.sqrt(np.maximum(d2[hits], 0.0)))
            answers.append((
                np.concatenate(ids) if ids else np.empty(0, dtype=np.intp),
                np.concatenate(distances) if distances else np.empty(0),
            ))
        return answers

    def timed_scan(self, queries: np.ndarray) -> tuple[float, Truth]:
        """Yardstick: seconds *per query* of one scan, plus the slice's truth.

        The ground-truth pass runs first: it evicts what the program
        left in cache and pages the point set in, so the timed scan
        starts from the same state in every cycle.  The scan's own
        answers are then held against that truth — a yardstick that
        stopped doing the work would stop being a unit.
        """
        truth = self.truth(queries)
        started = time.perf_counter()
        answers = self.scan(queries)
        elapsed = time.perf_counter() - started
        for row, (ids, _distances) in enumerate(answers):
            valid, found, expected = truth.judge(row, ids)
            if not valid or found != expected:
                raise AssertionError(f"oracle scan and truth disagree on row {row}")
        return elapsed / queries.shape[0], truth

    def truth(self, queries: np.ndarray) -> Truth:
        """Ground truth of a slice against the current point set."""
        return Truth(self.squared_distances(queries), self.r2)


class Truth:
    """Ground truth of one query slice against one point-set snapshot."""

    def __init__(self, d2: np.ndarray, r2: float) -> None:
        self.n = d2.shape[1]
        #: true neighbours an answer is expected to find (recall base).
        self.inside = d2 <= r2 * (1.0 - BOUNDARY)
        #: ids an answer may report without being wrong.
        self.allowed = d2 <= r2 * (1.0 + BOUNDARY)

    def judge(self, row: int, ids: np.ndarray) -> tuple[bool, int, int]:
        """``(valid, found, expected)`` for the answer to query ``row``.

        An answer is invalid when it names an id that does not exist,
        names one twice or out of order (the result contract is ids
        sorted ascending), or names a point whose true distance exceeds
        the radius.  Missing neighbours are not invalid — they lower
        ``found / expected``, the recall.
        """
        ids = np.asarray(ids)
        expected = int(np.count_nonzero(self.inside[row]))
        if ids.size == 0:
            return True, 0, expected
        if ids.dtype.kind not in "iu" or not bool(np.all(ids[1:] > ids[:-1])):
            return False, 0, expected
        if ids[0] < 0 or ids[-1] >= self.n:  # sorted, so the ends bound the rest
            return False, 0, expected
        if not bool(self.allowed[row, ids].all()):
            return False, 0, expected
        return True, int(np.count_nonzero(self.inside[row, ids])), expected
