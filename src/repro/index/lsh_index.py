"""The ``L``-table LSH index with per-bucket HyperLogLog sketches.

This is the data structure of Algorithm 1 plus the query-side
primitives Algorithm 2 consumes:

* ``#collisions`` — the exact total bucket occupancy of the query's
  ``L`` buckets (bucket sizes are stored, so this is ``O(L)``);
* ``candSize`` estimate — the merged sketch of those buckets,
  ``O(mL)`` plus the ids of lazy small buckets;
* the candidate set itself — the deduplicated union of the buckets,
  which is what classic LSH search pays ``alpha * #collisions`` for.

The index stores the data matrix so the search layers
(:mod:`repro.core`) can verify candidates without re-threading it.

It is also multi-probe LSH (Lv et al., VLDB 2007), the extension the
paper's conclusion names: with ``num_probes = P > 0`` each table
contributes its home bucket plus up to ``P`` perturbed buckets (bit
flips for binary hash values, ±1 offsets for p-stable quantisers,
:func:`~repro.hashing.probing.probe_deltas`).  Every sketch and
collision primitive covers the probed buckets, so the hybrid searcher
runs on it unchanged; ``P = 0`` (the default) is the classic index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, EmptyIndexError
from repro.hashing.base import LSHFamily
from repro.hashing.composite import encode_rows
from repro.hashing.probing import probe_deltas
from repro.index.bucket import Bucket
from repro.index.table import HashTable
from repro.sketches.hyperloglog import (
    HyperLogLog,
    PrecomputedHllHashes,
    estimates_from_registers,
)
from repro.utils.validation import check_matrix, check_positive_int

__all__ = ["LSHIndex", "QueryLookup"]


@dataclass
class QueryLookup:
    """The query's view of the index: its bucket in each of the L tables.

    Produced once per query by :meth:`LSHIndex.lookup` so the hybrid
    search pipeline (collision count -> sketch merge -> possibly
    candidate retrieval) hashes the query exactly once.

    Attributes
    ----------
    keys:
        The query's bucket key per table.
    buckets:
        The matching bucket per table; ``None`` where the query fell
        into an empty (absent) bucket.
    hash_rows:
        The raw ``(L, k)`` composite hash values (multi-probe needs
        them to generate neighbouring keys).

    With ``P`` probes, ``keys`` and ``buckets`` hold ``1 + P`` entries
    per table: the home bucket, then the probes in enumeration order.
    """

    keys: list[bytes]
    buckets: list[Bucket | None]
    hash_rows: list[np.ndarray]

    def _occupancy(self) -> tuple[int, int]:
        """``(total, largest)`` occupancy of the query's buckets: one
        pass, cached (the hybrid pipeline reads both, the total twice)."""
        cached = getattr(self, "_occupancy_cache", None)
        if cached is None:
            sizes = [b.size for b in self.nonempty_buckets()]
            cached = (sum(sizes), max(sizes, default=0))
            self._occupancy_cache = cached
        return cached

    @property
    def num_collisions(self) -> int:
        """Step-S2 cost driver: total occupancy of the query's buckets
        (so also an exact *upper* bound on ``candSize``)."""
        return self._occupancy()[0]

    @property
    def largest_bucket(self) -> int:
        """Occupancy of the fullest probed bucket: an exact *lower*
        bound on ``candSize`` (a bucket holds distinct points)."""
        return self._occupancy()[1]

    def nonempty_buckets(self) -> list[Bucket]:
        """The buckets that actually exist, in table order.

        Computed once and cached: the hybrid pipeline walks the same
        non-empty set for the collision count, the sketch merge, *and*
        the candidate union, so each lookup filters its ``L`` bucket
        slots exactly once instead of once per step.
        """
        cached = getattr(self, "_nonempty", None)
        if cached is None:
            cached = [b for b in self.buckets if b is not None]
            self._nonempty = cached
        return cached


class LSHIndex:
    """Multi-table (multi-probe) LSH index with per-bucket cardinality sketches.

    Parameters
    ----------
    family:
        The LSH family (fixes the metric and the atomic hash).
    k:
        Concatenation width of each composite function.
    num_tables:
        ``L``, the number of hash tables.
    hll_precision:
        Sketch precision ``p`` (``m = 2**p`` registers; paper default
        ``m = 128`` i.e. ``p = 7``).
    hll_seed:
        Salt shared by all bucket sketches (mergeability requirement).
    lazy_threshold:
        Small-bucket trick cutoff; ``None`` means ``m`` (paper's
        suggestion), ``0`` disables the trick.
    with_sketches:
        ``False`` yields a plain LSH index (baseline; sketch queries
        then raise).
    dedup:
        Step-S2 duplicate-removal implementation: ``"scalar"``
        (default) probes the n-bit seen-vector once per collision,
        matching the per-collision cost ``alpha * #collisions`` of
        Equation (1); ``"vectorized"`` scatters whole buckets at once
        (tiny alpha — used by the dedup ablation to show how the
        implementation shifts the beta/alpha ratio).

    Examples
    --------
    >>> from repro.hashing import SimHashLSH
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> points = rng.normal(size=(200, 16))
    >>> index = LSHIndex(SimHashLSH(16, seed=1), k=4, num_tables=8, seed=2)
    >>> index = index.build(points)
    >>> lookup = index.lookup(points[0])
    >>> lookup.num_collisions >= 8  # the point collides with itself everywhere
    True
    """

    #: Storage layout tag; the CSR-compacted subclass overrides this.
    layout = "dict"
    #: Index-variant tag (the covering index has its own).
    variant = "multiprobe"

    def __init__(
        self,
        family: LSHFamily,
        k: int,
        num_tables: int,
        hll_precision: int = 7,
        hll_seed: int = 0,
        lazy_threshold: int | None = None,
        with_sketches: bool = True,
        dedup: str = "scalar",
        seed: int | None = None,
        num_probes: int = 0,
    ) -> None:
        self.family = family
        self.k = check_positive_int(k, "k")
        self.num_tables = check_positive_int(num_tables, "num_tables")
        self.hll_precision = int(hll_precision)
        self.hll_seed = int(hll_seed)
        self.lazy_threshold = lazy_threshold
        self.with_sketches = bool(with_sketches)
        if dedup not in ("scalar", "vectorized"):
            raise ConfigurationError(
                f'dedup must be "scalar" or "vectorized", got {dedup!r}'
            )
        self.dedup = dedup
        if seed is not None:
            # Re-seed the family so index construction is reproducible
            # regardless of what was drawn from the family before.
            from repro.utils.rng import ensure_rng

            family._rng = ensure_rng(seed)
        self._init_probing(num_probes)
        self.tables: list[HashTable] = []
        self.points: np.ndarray | None = None
        self._prepared: tuple[np.ndarray, np.ndarray | None] | None = None
        self._hll_hashes: PrecomputedHllHashes | None = None
        self._batched = None

    def _init_probing(self, num_probes: int) -> None:
        """The probe deltas as one ``(P, k)`` matrix: XOR bit-flip masks
        for binary hash values, additive offsets for p-stable quantisers
        (one enumeration for both layouts, so they probe the same
        buckets in the same order)."""
        if num_probes < 0:
            raise ConfigurationError(f"num_probes must be >= 0, got {num_probes}")
        self.num_probes = int(num_probes)
        self._binary_values, self._probe_deltas = probe_deltas(
            self.family, self.k, self.num_probes
        )

    @property
    def probe_count(self) -> int:
        """Effective probes per table (the enumeration may run dry below
        ``num_probes``): what a full fan-out reports as ``probes_used``."""
        return int(self._probe_deltas.shape[0])

    # ------------------------------------------------------------------
    # Build (Algorithm 1)
    # ------------------------------------------------------------------
    def build(self, points: np.ndarray) -> LSHIndex:
        """Hash every point into every table and attach bucket sketches.

        All ``L * k`` atomic hash functions are drawn as one fused
        :class:`~repro.hashing.batched.BatchedHash`, so the dataset is
        hashed in one vectorised pass and queries pay a single kernel
        call for Step S1.
        """
        points = check_matrix(points, dim=self.family.dim, name="points")
        n = points.shape[0]
        if n == 0:
            raise ConfigurationError("cannot build an index over zero points")
        self.points = points
        self._hll_hashes = (
            PrecomputedHllHashes(n, p=self.hll_precision, seed=self.hll_seed)
            if self.with_sketches
            else None
        )
        self._batched = self.family.sample_batch(self.k, self.num_tables)
        all_hashes = self._batched.hash_points(points)  # (n, L, k)
        self.tables = []
        for t in range(self.num_tables):
            table = HashTable(
                hll_precision=self.hll_precision,
                hll_seed=self.hll_seed,
                lazy_threshold=self.lazy_threshold,
                with_sketches=self.with_sketches,
            )
            table.insert_hashed(all_hashes[:, t, :], self._hll_hashes)
            self.tables.append(table)
        return self

    def insert(self, new_points: np.ndarray) -> np.ndarray:
        """Insert additional points into a built index (incremental Algorithm 1).

        The classic construction is inherently incremental: each new
        point is hashed into its bucket per table and the bucket's
        sketch absorbs its precomputed HLL pair (materialising the
        sketch if the bucket crosses the lazy threshold).

        Parameters
        ----------
        new_points:
            ``(m, d)`` matrix of points to add.

        Returns
        -------
        numpy.ndarray
            The ids assigned to the new points (``n .. n + m - 1``).
        """
        self._require_built()
        new_points = check_matrix(new_points, dim=self.dim, name="new_points")
        m = new_points.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.int64)
        old_n = self.n
        new_ids = np.arange(old_n, old_n + m, dtype=np.int64)
        self.points = np.concatenate([self.points, new_points])
        if self._hll_hashes is not None:
            self._hll_hashes.extend(old_n + m)
        hashes = self._batched.hash_points(new_points)  # (m, L, k)
        for t, table in enumerate(self.tables):
            keys = encode_rows(np.ascontiguousarray(hashes[:, t, :]))
            for point_id, key in zip(new_ids, keys):
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
        """Compact the index into the frozen CSR layout (serving fast path).

        Returns a :class:`~repro.index.frozen.FrozenLSHIndex` sharing
        this index's points and hash kernel: contiguous bucket arrays,
        one stacked HLL register matrix, vectorised batch primitives —
        bit-identical answers, no per-bucket Python objects.  The source
        index is left untouched.  ``refreeze_threshold`` bounds how many
        overflow inserts the frozen index absorbs before re-compacting.
        """
        from repro.index.frozen import FrozenLSHIndex

        if type(self) is not LSHIndex:
            # A custom subclass: its query surface cannot be assumed.
            raise ConfigurationError(
                f"freeze() has no frozen layout for {type(self).__name__}"
            )
        return FrozenLSHIndex.from_dict_index(
            self, refreeze_threshold=refreeze_threshold
        )

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has been called."""
        return self.points is not None

    @property
    def n(self) -> int:
        """Number of indexed points."""
        self._require_built()
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed points."""
        return self.family.dim

    def prepared_points(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The points and the metric's prepared state of those rows.

        What the searchers' distance kernels read (``None`` for a
        metric without a prepared kernel).  This reference layout
        prepares the whole matrix again whenever :meth:`insert` replaced
        it; the frozen layout appends the new rows' state instead.
        """
        points = self.points
        cached = self._prepared
        if cached is None or cached[0] is not points:
            cached = self._prepared = (points, self.family.metric.prepare_points(points))
        return cached

    def _require_built(self) -> None:
        if self.points is None:
            raise EmptyIndexError("index has not been built; call build(points) first")

    def _require_sketches(self) -> None:
        self._require_built()
        if not self.with_sketches or self._hll_hashes is None:
            raise ConfigurationError("index was built with with_sketches=False")

    # ------------------------------------------------------------------
    # Query-side primitives (Algorithm 2 inputs)
    # ------------------------------------------------------------------
    def _lookup_from_rows(self, rows: np.ndarray, home_keys: list[bytes]) -> QueryLookup:
        """One query's home + probe buckets from its ``(L, k)`` hash rows.

        Shared by :meth:`lookup` and :meth:`lookup_batch`, so the probed
        bucket set and its order (per table: home, then the probes in
        enumeration order) cannot diverge between them.
        """
        keys: list[bytes] = []
        for row, home_key in zip(rows, home_keys):
            keys.append(home_key)
            if self._probe_deltas.shape[0]:
                row = np.asarray(row, dtype=np.int64)[None, :]
                keys += encode_rows(
                    row ^ self._probe_deltas if self._binary_values else row + self._probe_deltas
                )
        slots = 1 + self._probe_deltas.shape[0]
        buckets = [self.tables[s // slots].get(key) for s, key in enumerate(keys)]
        return QueryLookup(keys=keys, buckets=buckets, hash_rows=list(rows))

    def lookup(self, query: np.ndarray) -> QueryLookup:
        """Locate the query's probed buckets in every table (Step S1).

        One fused kernel call hashes the query into all ``L`` tables,
        then each probed bucket is one dict lookup.
        """
        self._require_built()
        rows = self._batched.query_rows(query)  # validates dim; (L, k)
        return self._lookup_from_rows(rows, encode_rows(rows))

    def lookup_batch(self, queries: np.ndarray) -> list[QueryLookup]:
        """Locate many queries' buckets with one fused hashing pass.

        Equivalent to ``[self.lookup(q) for q in queries]`` but the
        Step-S1 hashing of the whole query set is a single vectorised
        kernel call.
        """
        self._require_built()
        queries = check_matrix(queries, dim=self.dim, name="queries")
        all_rows = self._batched.hash_points(queries)  # (q, L, k)
        num_queries = all_rows.shape[0]
        # One encode call for all q * L home rows (row qi*L + t is query
        # qi, table t) instead of one per query.
        flat_keys = encode_rows(all_rows.reshape(num_queries * self.num_tables, self.k))
        return [
            self._lookup_from_rows(
                rows, flat_keys[qi * self.num_tables : (qi + 1) * self.num_tables]
            )
            for qi, rows in enumerate(all_rows)
        ]

    def lookup_batch_adaptive(
        self,
        queries: np.ndarray,
        target_candidates: int,
        min_probes: int = 0,
    ) -> tuple[list[QueryLookup], np.ndarray, np.ndarray]:
        """Per-query probe budgets on the dict layout (reference path).

        The rule of
        :meth:`~repro.index.frozen.FrozenLSHIndex.lookup_batch_adaptive`,
        written plainly: each query's bucket sketches are merged ring by
        ring (ring ``j`` holds probe ``j`` of every table; ring 0 the home
        buckets), and probing stops at the first ring ``j >= min_probes``
        whose prefix *certifies* ``target_candidates`` — its merged HLL
        estimate, clamped to the prefix's exact bounds ``[largest bucket,
        min(#collisions, n)]``, reaches the target.  Here every ring is
        merged and clamped; the frozen layout merges only the prefixes
        the bounds leave open, which cannot change a stop ring.

        Returns ``(lookups, probes_used, certified)`` with the same
        contract as the frozen layout's implementation.
        """
        self._require_sketches()
        full = self.lookup_batch(queries)
        q = len(full)
        rings = 1 + self.probe_count
        min_ring = min(max(int(min_probes), 0), rings - 1)
        target = float(target_candidates)
        probes = np.full(q, rings - 1, dtype=np.int64)
        certified = np.zeros(q, dtype=bool)
        lookups = []
        for i, lk in enumerate(full):
            merged = HyperLogLog(p=self.hll_precision, seed=self.hll_seed)
            collisions = largest = 0
            for j in range(rings):
                for t in range(self.num_tables):
                    bucket = lk.buckets[t * rings + j]
                    if bucket is not None and len(bucket):
                        bucket.contribute_to(merged, self._hll_hashes)
                        collisions += len(bucket)
                        largest = max(largest, len(bucket))
                clamped = min(max(merged.estimate(), largest), min(collisions, self.n))
                if j >= min_ring and clamped >= target:
                    probes[i], certified[i] = j, True
                    break
            stop = int(probes[i])
            if stop == rings - 1:
                lookups.append(lk)
                continue
            keep = [t * rings + j for t in range(self.num_tables) for j in range(stop + 1)]
            lookups.append(
                QueryLookup(
                    keys=[lk.keys[s] for s in keep],
                    buckets=[lk.buckets[s] for s in keep],
                    hash_rows=lk.hash_rows,
                )
            )
        return lookups, probes, certified

    def num_collisions(self, query: np.ndarray) -> int:
        """Exact ``#collisions`` of Equation (1) for this query."""
        return self.lookup(query).num_collisions

    def merged_sketch(self, lookup: QueryLookup) -> HyperLogLog:
        """Merge the L bucket sketches into one (Algorithm 2, line 2).

        Sketched buckets merge register-wise; lazy small buckets feed
        their raw ids into the output sketch (the paper's on-demand
        update trick).
        """
        self._require_sketches()
        merged = HyperLogLog(p=self.hll_precision, seed=self.hll_seed)
        for bucket in lookup.nonempty_buckets():
            bucket.contribute_to(merged, self._hll_hashes)
        return merged

    def _merged_registers_batch(self, lookups: list[QueryLookup]) -> np.ndarray:
        """The ``(q, m)`` merged-register matrix of a lookup batch.

        Row ``i`` is exactly ``self.merged_sketch(lookups[i]).registers``:
        HLL merging and lazy-bucket contribution are elementwise integer
        maxima, which are associative and commutative, so computing all
        sketched-bucket maxima with one ``np.maximum.reduceat`` over the
        stacked register matrix and all lazy-bucket contributions with
        one scatter-max yields bit-identical registers — the per-query
        Python merge loop of the single-query path is what disappears.
        """
        m = 1 << self.hll_precision
        registers = np.zeros((len(lookups), m), dtype=np.uint8)
        sketched_regs: list[np.ndarray] = []
        segment_starts: list[int] = []
        segment_rows: list[int] = []
        lazy_rows: list[int] = []
        lazy_ids: list[np.ndarray] = []
        for i, lookup in enumerate(lookups):
            new_segment = True
            for bucket in lookup.nonempty_buckets():
                if bucket.sketch is not None:
                    if new_segment:
                        segment_starts.append(len(sketched_regs))
                        segment_rows.append(i)
                        new_segment = False
                    sketched_regs.append(bucket.sketch.registers)
                elif len(bucket):
                    lazy_rows.append(i)
                    lazy_ids.append(bucket.ids)
        if sketched_regs:
            stacked = np.stack(sketched_regs)
            segment_max = np.maximum.reduceat(stacked, np.asarray(segment_starts), axis=0)
            # Each query owns at most one segment and its row is still
            # all-zero here, so plain assignment is the max.
            registers[np.asarray(segment_rows)] = segment_max
        if lazy_ids:
            rows = np.repeat(
                np.asarray(lazy_rows), [ids.size for ids in lazy_ids]
            )
            ids = np.concatenate(lazy_ids)
            np.maximum.at(
                registers,
                (rows, self._hll_hashes.registers[ids]),
                self._hll_hashes.ranks[ids],
            )
        return registers

    def merged_sketches_batch(self, lookups: list[QueryLookup]) -> list[HyperLogLog]:
        """One merged sketch per lookup, register maxima vectorised:
        exactly ``[self.merged_sketch(lk) for lk in lookups]``."""
        self._require_sketches()
        registers = self._merged_registers_batch(lookups)
        sketches = []
        for i in range(len(lookups)):
            sketch = HyperLogLog(p=self.hll_precision, seed=self.hll_seed)
            sketch.registers = registers[i]
            sketches.append(sketch)
        return sketches

    def merged_estimates_batch(self, lookups: list[QueryLookup]) -> np.ndarray:
        """``candSize`` estimate per lookup (batch counterpart of
        ``merged_sketch(lookup).estimate()``), without sketch objects.

        One vectorised finish over the batch-merged register matrix —
        the same one for every layout, so the floats are identical to
        each other's and to ``merged_sketch(lookup).estimate()``.
        """
        self._require_sketches()
        return estimates_from_registers(self._merged_registers_batch(lookups))

    def candidate_ids(self, lookup: QueryLookup, dedup: str | None = None) -> np.ndarray:
        """The deduplicated candidate set (exact; this is what LSH search pays for).

        Step S2 as the paper models it: an n-bit bitvector probed once
        per collision, so the cost is ``alpha * #collisions`` with a
        *per-element* constant.  This is deliberately not vectorised —
        the cost structure of Equation (1) is the system under study,
        and collapsing alpha by orders of magnitude (see the
        ``dedup="vectorized"`` option and the dedup ablation benchmark)
        shrinks the very bottleneck the paper's Figure 1 is about.

        ``dedup`` overrides the index-level setting for this one call;
        both implementations return the identical sorted id array, so
        serving layers (:mod:`repro.service`) may pass
        ``dedup="vectorized"`` for speed without changing any answer.
        """
        self._require_built()
        if dedup is None:
            dedup = self.dedup
        elif dedup not in ("scalar", "vectorized"):
            raise ConfigurationError(
                f'dedup must be "scalar" or "vectorized", got {dedup!r}'
            )
        if dedup == "vectorized":
            seen_arr = np.zeros(self.n, dtype=bool)
            buckets = lookup.nonempty_buckets()
            if buckets:
                if len(buckets) == 1:
                    seen_arr[buckets[0].ids] = True
                else:
                    seen_arr[np.concatenate([b.ids for b in buckets])] = True
            return np.flatnonzero(seen_arr)
        seen = np.zeros(self.n, dtype=bool)
        out: list[int] = []
        for bucket in lookup.nonempty_buckets():
            for point_id in bucket.ids.tolist():
                if not seen[point_id]:
                    seen[point_id] = True
                    out.append(point_id)
        return np.sort(np.asarray(out, dtype=np.int64))

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    @property
    def sketch_memory_bytes(self) -> int:
        """Total memory held by materialised bucket sketches."""
        return sum(t.sketch_memory_bytes for t in self.tables)

    def memory_report(self) -> dict[str, int]:
        """Byte-level accounting of the index, for the §3.2 space claims.

        The paper argues the HLL overhead "is usually smaller than
        large buckets": with the default lazy threshold ``m``, a
        materialised sketch costs ``m`` bytes but sits on a bucket
        whose ids alone occupy ``> 8 m`` bytes.  This report exposes
        the terms so the space-overhead benchmark can check the claim.

        Keys: ``points`` (data matrix), ``bucket_ids`` (stored point
        ids across all tables), ``bucket_keys`` (hash-key bytes),
        ``sketches`` (register arrays), ``total``.
        """
        self._require_built()
        ids_bytes = 0
        keys_bytes = 0
        for table in self.tables:
            for key, bucket in table.buckets.items():
                ids_bytes += 8 * bucket.size
                keys_bytes += len(key)
        report = {
            "points": int(self.points.nbytes),
            "bucket_ids": ids_bytes,
            "bucket_keys": keys_bytes,
            "sketches": self.sketch_memory_bytes,
            "total": int(self.points.nbytes) + ids_bytes + keys_bytes + self.sketch_memory_bytes,
        }
        return report

    def bucket_statistics(self) -> dict[str, float]:
        """Occupancy summary across all tables (for diagnostics and docs)."""
        self._require_built()
        sizes = np.concatenate([t.bucket_sizes() for t in self.tables])
        return {
            "tables": float(self.num_tables),
            "buckets": float(sizes.size),
            "mean_size": float(sizes.mean()),
            "max_size": float(sizes.max()),
            "sketched_fraction": float(
                np.mean(
                    [b.has_sketch for t in self.tables for b in t.buckets.values()]
                )
            ),
        }

    def __repr__(self) -> str:
        built = f"n={self.n}" if self.is_built else "unbuilt"
        return (
            f"{type(self).__name__}(family={type(self.family).__name__}, "
            f"k={self.k}, L={self.num_tables}, probes={self.num_probes}, {built})"
        )
