"""A mergeable fixed-log-bucket latency histogram.

Serving latency spans decades — a cache hit answers in microseconds, a
linear-scan batch over a cold mmap in hundreds of milliseconds — so the
histogram buckets are *fixed* powers of ten subdivided logarithmically
(:data:`BUCKETS_PER_DECADE` buckets per decade from
``10**MIN_EXPONENT`` to ``10**MAX_EXPONENT`` seconds, plus an overflow
bucket).  Fixed edges are the whole design: every
:class:`LatencyHistogram` in the system — per worker process, per
shard, per serving front-end — shares the identical bucket boundaries,
so :meth:`merge` is integer addition of the count vectors and is
**exact**: merging per-worker histograms yields bit-for-bit the counts
of a single histogram fed the concatenated samples (the property the
observability tests pin with Hypothesis).

Quantiles are resolved to a bucket upper edge (a conservative bound, in
the Prometheus ``le`` style), which makes :meth:`quantile` deterministic
under merging and JSON round-trips.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any

import numpy as np
import numpy.typing as npt

__all__ = ["LatencyHistogram", "BUCKETS_PER_DECADE", "MIN_EXPONENT", "MAX_EXPONENT"]

#: Log-bucket resolution: 5 buckets per decade => edges grow by 10**0.2
#: (~1.58x), i.e. quantiles are resolved to within ~58% relative error —
#: plenty for p50/p95/p99 reporting, cheap enough to ship over a pipe.
BUCKETS_PER_DECADE = 5
#: Smallest finite bucket edge is ``10**MIN_EXPONENT`` seconds (1 µs).
MIN_EXPONENT = -6
#: Largest finite bucket edge is ``10**MAX_EXPONENT`` seconds (100 s);
#: anything slower lands in the +Inf overflow bucket.
MAX_EXPONENT = 2

#: The shared, immutable bucket upper edges (seconds).  Computed once
#: from the exponent grid so every histogram everywhere — across
#: processes and JSON round-trips — agrees on the boundaries exactly.
_EDGES: npt.NDArray[np.float64] = np.power(
    10.0,
    np.arange(
        MIN_EXPONENT * BUCKETS_PER_DECADE,
        MAX_EXPONENT * BUCKETS_PER_DECADE + 1,
    )
    / BUCKETS_PER_DECADE,
)
_EDGES.setflags(write=False)
#: The same edges as Python floats, for :meth:`LatencyHistogram.record`'s
#: scalar bisect.
_EDGE_VALUES = tuple(_EDGES.tolist())

#: A scheme tag persisted with every snapshot; merging or loading counts
#: recorded under a different bucket layout would silently corrupt the
#: distribution, so mismatches are rejected loudly.
_SCHEME = f"log10[{MIN_EXPONENT}..{MAX_EXPONENT}]x{BUCKETS_PER_DECADE}"


class LatencyHistogram:
    """Counts of observed durations in fixed logarithmic buckets.

    Bucket ``i`` counts samples ``v`` with ``edges[i-1] < v <= edges[i]``
    (bucket 0 additionally absorbs everything below the smallest edge);
    the final bucket is the ``+Inf`` overflow.  All histograms share one
    edge vector, so :meth:`merge` is exact.

    Examples
    --------
    >>> h = LatencyHistogram()
    >>> for v in (0.001, 0.002, 0.2):
    ...     h.record(v)
    >>> h.count
    3
    >>> h.quantile(0.5) <= h.quantile(0.99)
    True
    >>> LatencyHistogram.from_dict(h.to_dict()).counts.tolist() == h.counts.tolist()
    True
    """

    __slots__ = ("counts", "total_seconds")

    counts: npt.NDArray[np.int64]
    total_seconds: float

    def __init__(self) -> None:
        self.counts = np.zeros(_EDGES.size + 1, dtype=np.int64)
        self.total_seconds = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, seconds: float, count: int = 1) -> None:
        """Record ``count`` samples of duration ``seconds``.

        ``count > 1`` attributes one measured wall time to several
        units of work — e.g. every query in a batch experienced the
        batch's latency — without ``count`` searchsorted calls.
        """
        # ``np.searchsorted(_EDGES, seconds, side="left")`` without its
        # scalar-to-array round trip; a NaN sorts last there, so here too.
        idx = bisect_left(_EDGE_VALUES, seconds) if seconds == seconds else len(_EDGE_VALUES)
        self.counts[idx] += count
        self.total_seconds += float(seconds) * count

    def record_many(self, values: npt.ArrayLike) -> None:
        """Record an array of durations in one vectorised pass."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        idx = np.searchsorted(_EDGES, values, side="left")
        np.add.at(self.counts, idx, 1)
        self.total_seconds += float(values.sum())

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merge(self, other: LatencyHistogram) -> LatencyHistogram:
        """Fold ``other`` into this histogram (exact; returns self)."""
        self.counts += other.counts
        self.total_seconds += other.total_seconds
        return self

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total number of recorded samples."""
        return int(self.counts.sum())

    @property
    def mean(self) -> float:
        """Mean recorded duration (0.0 when empty)."""
        total = self.count
        return self.total_seconds / total if total else 0.0

    @staticmethod
    def bucket_edges() -> npt.NDArray[np.float64]:
        """The shared finite bucket upper edges, in seconds (read-only)."""
        return _EDGES

    def quantile(self, p: float) -> float:
        """Upper bound on the ``p``-quantile (a bucket edge; NaN when empty).

        Resolved as the smallest bucket edge whose cumulative count
        reaches ``ceil(p * count)`` — deterministic, monotone in ``p``,
        and stable under :meth:`merge` regrouping.  Samples in the
        overflow bucket resolve to ``inf``.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile p must be in [0, 1], got {p}")
        total = self.count
        if total == 0:
            return float("nan")
        target = max(1, math.ceil(p * total))
        cumulative = np.cumsum(self.counts)
        idx = int(np.searchsorted(cumulative, target, side="left"))
        return float(_EDGES[idx]) if idx < _EDGES.size else float("inf")

    def quantiles(self) -> dict[str, float]:
        """The standard reporting trio: p50 / p95 / p99 (seconds)."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot (counts + sum; edges are implied by scheme)."""
        return {
            "scheme": _SCHEME,
            "counts": self.counts.tolist(),
            "total_seconds": self.total_seconds,
            "count": self.count,
            **self.quantiles(),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> LatencyHistogram:
        """Rebuild from :meth:`to_dict` output (exact counts)."""
        scheme = doc.get("scheme", _SCHEME)
        if scheme != _SCHEME:
            raise ValueError(
                f"histogram bucket scheme mismatch: got {scheme!r}, "
                f"expected {_SCHEME!r}"
            )
        counts = np.asarray(doc.get("counts", ()), dtype=np.int64)
        if counts.size != _EDGES.size + 1:
            raise ValueError(
                f"histogram has {counts.size} buckets; expected {_EDGES.size + 1}"
            )
        self = cls()
        self.counts = counts.copy()
        self.total_seconds = float(doc.get("total_seconds", 0.0))
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return (
            bool(np.array_equal(self.counts, other.counts))
            and self.total_seconds == other.total_seconds
        )

    def __repr__(self) -> str:
        q = self.quantiles()
        return (
            f"LatencyHistogram(count={self.count}, "
            f"p50={q['p50']:.4g}, p99={q['p99']:.4g})"
        )
