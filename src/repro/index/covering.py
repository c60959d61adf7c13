"""Covering LSH — rNNR reporting with *no false negatives* (paper §5).

The paper's conclusion names "the covering LSH [14]" (Pagh, SODA 2016)
alongside multi-probe LSH as schemes the hybrid strategy fits well,
"which typically require a large number of probes".  This module
implements a covering scheme for Hamming space and wires it into the
same bucket/sketch machinery so :class:`~repro.core.hybrid.HybridSearcher`
runs on it unchanged.

Construction (block pigeonhole covering)
----------------------------------------
For radius ``r``, split the ``d`` bit positions into ``r + 1``
near-equal blocks and build one table per block, hashing each point by
its bits in that block.  Two points at Hamming distance ``<= r`` have
at most ``r`` differing positions, which cannot touch all ``r + 1``
blocks — so they agree on *some* whole block and collide in that
table.  This yields the covering guarantee deterministically:

    every point within radius ``r`` appears in the candidate set,
    i.e. the "exact" rNNR variant with ``delta = 0``.

The price is selectivity: blocks of width ``d / (r + 1)`` are short
composite hashes, so buckets are large — precisely the "large number
of probes/collisions" regime where the paper expects cost estimation
to pay off most.  A random bit permutation (seeded) decorrelates the
blocks from any structure in the input coordinates.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, EmptyIndexError
from repro.hashing.composite import encode_rows
from repro.index.bucket import Bucket
from repro.index.lsh_index import LSHIndex, QueryLookup
from repro.index.table import HashTable
from repro.sketches.hyperloglog import PrecomputedHllHashes
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_matrix, check_positive_int, check_vector

__all__ = ["CoveringLSHIndex", "hamming_family_facade"]


def hamming_family_facade(dim: int):
    """Minimal Hamming family facade for the covering indexes.

    The covering construction has no sampled hash family, but the
    searchers read ``index.family.metric`` (and the persistence layer
    ``family.dim``); this builds the one stand-in both the dict and
    frozen covering layouts share, so the exposed surface cannot drift
    between them.
    """
    from repro.hashing.bit_sampling import BitSamplingLSH

    facade = BitSamplingLSH.__new__(BitSamplingLSH)
    facade.dim = int(dim)
    return facade


class CoveringLSHIndex:
    """Hamming-space rNNR index with a no-false-negative guarantee.

    Parameters
    ----------
    dim:
        Number of bits per vector.
    radius:
        The Hamming radius the covering guarantee is constructed for.
        Queries at larger radii lose the guarantee (they degrade to
        ordinary LSH behaviour).
    hll_precision / hll_seed / lazy_threshold / with_sketches / dedup:
        Bucket-sketch and Step-S2 configuration, exactly as in
        :class:`~repro.index.lsh_index.LSHIndex`.
    seed:
        Randomness for the bit permutation.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> points = (rng.random((300, 32)) < 0.5).astype(np.uint8)
    >>> index = CoveringLSHIndex(dim=32, radius=4, seed=1).build(points)
    >>> lookup = index.lookup(points[0])
    >>> 0 in index.candidate_ids(lookup)   # the point itself always collides
    True
    """

    #: Storage layout / variant tags (the frozen counterpart overrides).
    layout = "dict"
    variant = "covering"

    def __init__(
        self,
        dim: int,
        radius: int,
        hll_precision: int = 7,
        hll_seed: int = 0,
        lazy_threshold: int | None = None,
        with_sketches: bool = True,
        dedup: str = "scalar",
        seed: RandomState = None,
    ) -> None:
        self.dim = check_positive_int(dim, "dim")
        self.radius = check_positive_int(radius, "radius")
        if self.radius >= self.dim:
            raise ConfigurationError(
                f"radius ({radius}) must be smaller than dim ({dim}) for a "
                f"covering construction"
            )
        self.num_tables = self.radius + 1
        self.hll_precision = int(hll_precision)
        self.hll_seed = int(hll_seed)
        self.lazy_threshold = lazy_threshold
        self.with_sketches = bool(with_sketches)
        if dedup not in ("scalar", "vectorized"):
            raise ConfigurationError(
                f'dedup must be "scalar" or "vectorized", got {dedup!r}'
            )
        self.dedup = dedup
        rng = ensure_rng(seed)
        permutation = rng.permutation(self.dim)
        # Near-equal consecutive slices of the permuted positions.
        self._blocks = [
            np.sort(block) for block in np.array_split(permutation, self.num_tables)
        ]
        self.tables: list[HashTable] = []
        self.points: np.ndarray | None = None
        self._hll_hashes: PrecomputedHllHashes | None = None
        self._batched = None  # no fused kernel: blocks have per-table widths
        # One facade for the index's lifetime: the searchers read
        # .family.metric once per answered query.
        self._family_facade = hamming_family_facade(self.dim)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self, points: np.ndarray) -> CoveringLSHIndex:
        """Hash every point's block projections into the r+1 tables."""
        points = check_matrix(points, dim=self.dim, name="points")
        n = points.shape[0]
        if n == 0:
            raise ConfigurationError("cannot build an index over zero points")
        self.points = points
        self._hll_hashes = (
            PrecomputedHllHashes(n, p=self.hll_precision, seed=self.hll_seed)
            if self.with_sketches
            else None
        )
        self.tables = []
        for block in self._blocks:
            table = HashTable(
                hll_precision=self.hll_precision,
                hll_seed=self.hll_seed,
                lazy_threshold=self.lazy_threshold,
                with_sketches=self.with_sketches,
            )
            table.insert_hashed(
                np.ascontiguousarray(points[:, block], dtype=np.int64),
                self._hll_hashes,
            )
            self.tables.append(table)
        return self

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has been called."""
        return self.points is not None

    @property
    def n(self) -> int:
        """Number of indexed points."""
        self._require_built()
        return int(self.points.shape[0])

    def _require_built(self) -> None:
        if self.points is None:
            raise EmptyIndexError("index has not been built; call build(points) first")

    # ------------------------------------------------------------------
    # Query primitives (same surface as LSHIndex, so HybridSearcher works)
    # ------------------------------------------------------------------
    def lookup(self, query: np.ndarray) -> QueryLookup:
        """Locate the query's bucket in each of the r+1 block tables."""
        self._require_built()
        query = check_vector(query, dim=self.dim, name="query")
        keys: list[bytes] = []
        buckets: list[Bucket | None] = []
        hash_rows: list[np.ndarray] = []
        for table, block in zip(self.tables, self._blocks):
            row = np.ascontiguousarray(query[block], dtype=np.int64)
            hash_rows.append(row)
            key = encode_rows(row[None, :])[0]
            keys.append(key)
            buckets.append(table.get(key))
        return QueryLookup(keys=keys, buckets=buckets, hash_rows=hash_rows)

    def lookup_batch(self, queries: np.ndarray) -> list[QueryLookup]:
        """Batched block lookups: one encode pass per table.

        Equivalent to ``[self.lookup(q) for q in queries]``; this is
        what lets the batched serving engines (and the hybrid batch
        dispatch) run on a covering index.
        """
        self._require_built()
        queries = check_matrix(queries, dim=self.dim, name="queries")
        per_table_rows = [
            np.ascontiguousarray(queries[:, block], dtype=np.int64)
            for block in self._blocks
        ]
        per_table_keys = [encode_rows(rows) for rows in per_table_rows]
        lookups = []
        for qi in range(queries.shape[0]):
            keys = [per_table_keys[t][qi] for t in range(self.num_tables)]
            buckets = [table.get(key) for table, key in zip(self.tables, keys)]
            hash_rows = [per_table_rows[t][qi] for t in range(self.num_tables)]
            lookups.append(QueryLookup(keys=keys, buckets=buckets, hash_rows=hash_rows))
        return lookups

    def insert(self, new_points: np.ndarray) -> np.ndarray:
        """Insert points into the block tables (incremental construction).

        Returns the ids assigned to the new points (``n .. n + m - 1``).
        The covering guarantee extends to the inserted points: they are
        hashed by the same block projections, so any point within the
        construction radius of a later query still shares a whole block
        with it.
        """
        self._require_built()
        new_points = check_matrix(new_points, dim=self.dim, name="new_points")
        m = new_points.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.int64)
        old_n = int(self.points.shape[0])
        new_ids = np.arange(old_n, old_n + m, dtype=np.int64)
        self.points = np.concatenate([self.points, new_points])
        if self._hll_hashes is not None:
            self._hll_hashes.extend(old_n + m)
        for table, block in zip(self.tables, self._blocks):
            keys = encode_rows(np.ascontiguousarray(new_points[:, block], dtype=np.int64))
            for point_id, key in zip(new_ids.tolist(), keys):
                bucket = table.buckets.get(key)
                if bucket is None:
                    bucket = Bucket(
                        hll_precision=self.hll_precision,
                        hll_seed=self.hll_seed,
                        lazy_threshold=table.lazy_threshold,
                    )
                    table.buckets[key] = bucket
                bucket.append(int(point_id), self._hll_hashes)
        return new_ids

    def freeze(self, refreeze_threshold: int | None = None):
        """Compact into the frozen CSR layout (covering fast path).

        Returns a
        :class:`~repro.index.frozen_probing.FrozenCoveringLSHIndex`
        sharing this index's points and block permutation —
        bit-identical answers, vectorised batch primitives, mmap-able
        persistence.  The source index is left untouched.
        """
        from repro.index.frozen_probing import FrozenCoveringLSHIndex

        self._require_built()
        return FrozenCoveringLSHIndex.from_covering_index(
            self, refreeze_threshold=refreeze_threshold
        )

    # The remaining primitives are identical to LSHIndex; reuse them.
    _require_sketches = LSHIndex._require_sketches
    merged_sketch = LSHIndex.merged_sketch
    _merged_registers_batch = LSHIndex._merged_registers_batch
    merged_sketches_batch = LSHIndex.merged_sketches_batch
    merged_estimates_batch = LSHIndex.merged_estimates_batch
    estimate_candidates = LSHIndex.estimate_candidates
    candidate_ids = LSHIndex.candidate_ids
    num_collisions = LSHIndex.num_collisions
    sketch_memory_bytes = LSHIndex.sketch_memory_bytes
    bucket_statistics = LSHIndex.bucket_statistics

    @property
    def family(self):
        """Minimal family facade (metric access for the searchers)."""
        return self._family_facade

    def __repr__(self) -> str:
        built = f"n={self.n}" if self.is_built else "unbuilt"
        return (
            f"CoveringLSHIndex(dim={self.dim}, radius={self.radius}, "
            f"tables={self.num_tables}, {built})"
        )
