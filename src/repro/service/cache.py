"""LRU result cache keyed on quantised query vectors.

Real query streams repeat: the same user re-issues a search, popular
items are probed by many users, near-duplicate feature vectors abound.
:class:`QueryResultCache` exploits that with a bounded LRU map from
``(quantised query, radius)`` to the stored :class:`~repro.core.results.QueryResult`.

Quantisation rounds each coordinate to a multiple of ``quantum`` before
hashing, so queries within ``quantum / 2`` per coordinate share an
entry.  With the default tiny quantum this only canonicalises float
noise (and ``-0.0`` vs ``0.0``); pass a coarser quantum to trade exact
answers for hit rate, or ``quantum=0`` to key on raw bytes.

An entry is a query's whole answer — on a sharded index, the merged
one — so any insert makes every entry stale: :meth:`repro.api.Index.insert`
drops them all (:meth:`QueryResultCache.clear`).  Hits and misses are
counted by the serving layer (``ServiceStats.cache_hits`` /
``cache_misses``), not here.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.core.results import QueryResult
from repro.exceptions import ConfigurationError
from repro.utils.validation import check_positive_int

__all__ = ["QueryResultCache"]


class QueryResultCache:
    """Bounded LRU cache of query results.

    Parameters
    ----------
    maxsize:
        Maximum number of cached results; the least-recently-used entry
        is evicted past it.
    quantum:
        Coordinate quantisation step for key construction (``0`` keys
        on the exact float bytes).

    Notes
    -----
    Cached :class:`~repro.core.results.QueryResult` objects are returned
    by reference; they and their stats are frozen, so no caller can
    alter what a later hit reads.

    Examples
    --------
    >>> cache = QueryResultCache(maxsize=2)
    >>> import numpy as np
    >>> (key,) = cache.make_keys(np.array([[1.0, 2.0]]), radius=0.5)
    >>> cache.get(key) is None
    True
    """

    def __init__(self, maxsize: int = 1024, quantum: float = 1e-9) -> None:
        self.maxsize = check_positive_int(maxsize, "maxsize")
        if quantum < 0:
            raise ConfigurationError(f"quantum must be >= 0, got {quantum}")
        self.quantum = float(quantum)
        self._store: OrderedDict[bytes, QueryResult] = OrderedDict()
        # Store mutations are locked so the concurrent serving loop
        # (overlapped in-flight batches) can share one cache; the
        # OrderedDict relink in get()/put() is not atomic under threads.
        self._lock = threading.RLock()

    def make_keys(self, queries: np.ndarray, radius: float) -> list[bytes]:
        """The cache key of every row of a ``(q, d)`` query matrix at ``radius``.

        One pass over the whole matrix (divide, round, cast), then one
        bytes slice per row: the radius's float64 bytes, then ``b"q"``
        and the row's quantised coordinates as int64, or ``b"r"`` and
        its raw float64 bytes.
        """
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        prefix = np.float64(radius).tobytes()
        width = queries.shape[1] * 8
        raw = queries.tobytes()
        if not self.quantum:
            return [prefix + b"r" + raw[i * width : (i + 1) * width] for i in range(len(queries))]
        # + 0.0 canonicalises -0.0 so symmetric queries share a key.  A
        # huge coordinate overflows the divide to inf: no warning, since
        # such a row keys on its raw bytes below.
        with np.errstate(over="ignore"):
            scaled = np.round(queries / self.quantum) + 0.0
        # A row with a quantised coordinate beyond int64 range (huge
        # values, or non-finite ones) would wrap/saturate in the cast and
        # collide with another; such rows key on their raw bytes.
        fits = (np.abs(scaled) < 2**62).all(axis=1)
        quantised = np.where(fits[:, None], scaled, 0.0).astype(np.int64).tobytes()
        return [
            prefix + b"q" + quantised[i * width : (i + 1) * width]
            if fit
            else prefix + b"r" + raw[i * width : (i + 1) * width]
            for i, fit in enumerate(fits.tolist())
        ]

    def get(self, key: bytes) -> QueryResult | None:
        """Look up a key, refreshing its recency (None on a miss)."""
        with self._lock:
            result = self._store.get(key)
            if result is not None:
                self._store.move_to_end(key)
            return result

    def put(self, key: bytes, result: QueryResult) -> None:
        """Store a result, evicting the LRU entry when full."""
        with self._lock:
            self._store[key] = result
            self._store.move_to_end(key)
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._store.clear()

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:
        return (
            f"QueryResultCache(size={len(self)}/{self.maxsize}, "
            f"quantum={self.quantum:g})"
        )
