"""Steps S1 and S2 on the frozen arrays: lookups, sketch merges, unions.

On the fused CSR arrays (:mod:`repro.index.frozen.tables`)
``lookup_batch`` is a fused hash pass plus one binary search per batch,
merged-sketch estimation is one gather of the register matrix's rows
and one contiguous ``np.maximum`` reduce per query, and candidate
deduplication is one sort of a batch's small rows' tagged member ids
(a boolean scatter over ``n`` for a large row) — all vectorised across
tables with zero per-bucket Python objects, and all **bit-identical**
to the dict layout (register maxima and id unions are associative, so
regrouping cannot change a single byte).  There is one lookup path:
:meth:`FrozenReads.lookup` is :meth:`~FrozenReads.lookup_batch` of one
row, so sequential and batched lookups agree by construction.

Points inserted since the last re-freeze live in sorted overflow runs
(:mod:`repro.index.overflow`): a lookup probes each live run with the
needles it already mixed and sorted for ``key64`` and keeps a ``(lo,
hi)`` entry range per slot.  Collision counts add ``hi - lo``, sketch
merges and candidate unions gather the ranges into the scatters the
frozen side already runs, so reads beside writes never leave numpy;
a logical bucket split into a frozen and an overflow part gives the
same answers, since id unions and register maxima are associative.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.index.frozen.tables import FrozenTables
from repro.index.overflow import OverflowRun, _csr_gather
from repro.sketches.hyperloglog import HyperLogLog, estimates_from_registers
from repro.utils.validation import check_matrix, check_vector

#: Step-S2 crossover (:meth:`FrozenReads.candidate_ids_batch`): rows of
#: at most ``n // 8`` collisions share one sort, larger ones use a bitmap.
SORTED_UNION_RATIO = 8


def _slot_sizes(
    frozen: FrozenTables, positions: np.ndarray, overflow: np.ndarray | None
) -> np.ndarray:
    """Exact occupancy of every slot of a ``(q, S)`` slot matrix (int64).

    A probed *logical* bucket is one slot's frozen part plus its part in
    every overflow generation (the dict layout holds them as one
    bucket), so the sizes equal the dict layout's across inserts and
    re-freezes.  ``overflow`` is the batch's ``(G, 2, q, S)`` tensor of
    entry ranges (``None`` when the snapshot had no live run); -1 slots
    — empty buckets, or probes an adaptive budget trimmed — count zero.
    """
    sizes = frozen.spans(positions)[1]
    if overflow is not None:
        sizes += (overflow[:, 1] - overflow[:, 0]).sum(axis=0)
    return sizes


def _slot_occupancy(
    frozen: FrozenTables, positions: np.ndarray, overflow: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(#collisions, largest bucket)`` per row of a ``(q, S)`` slot
    matrix: Equation (1)'s bounds on ``candSize`` (:func:`_slot_sizes`)."""
    sizes = _slot_sizes(frozen, positions, overflow)
    return sizes.sum(axis=1), sizes.max(axis=1)


def _run_members(
    runs: tuple[OverflowRun, ...], ranges: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per live run, ``(ids, ids per row)`` of a ``(G, 2, rows, S)`` tensor
    of entry ranges: one CSR gather per run covers every range of every
    row, and ``ids`` lists them row by row."""
    gathered = []
    for run, (lo, hi) in zip(runs, ranges):
        lens = hi - lo
        ids = _csr_gather(run.members, lo.ravel(), lens.ravel())
        gathered.append((ids, lens.sum(axis=1)))
    return gathered


def _overflow_members_by_row(
    lookups: list[FrozenQueryLookup],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per live generation, ``(ids, ids per lookup)`` of one snapshot's lookups."""
    ranges = np.stack([lk.overflow for lk in lookups], axis=2)  # (G, 2, rows, S)
    return _run_members(lookups[0]._runs, ranges)


def _blank_ranges(overflow: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``overflow`` (``(G, 2, rows, S)``) with every range outside the
    ``(rows, S)`` mask ``keep`` emptied (``hi = lo``)."""
    return np.where(keep, overflow, overflow[:, :1])


def _overflow_ids(lookups: list[FrozenQueryLookup]) -> list[list[np.ndarray]]:
    """Per lookup, its ids in each live run (one gather per run for all)."""
    if not lookups or lookups[0].overflow is None:
        return [[] for _ in lookups]
    per_run = [
        np.split(ids, np.cumsum(counts)[:-1])
        for ids, counts in _overflow_members_by_row(lookups)
    ]
    return [list(parts) for parts in zip(*per_run)]


def _row_tagged_members(
    frozen: FrozenTables,
    row_of: np.ndarray,
    buckets: np.ndarray,
    overflow: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, ids)``: the members of ``buckets`` (one CSR gather), each
    tagged with its ``row_of`` entry, then the rows' live-run ids; the
    ids come back as ``intp``, ready to index by."""
    starts, sizes = frozen.spans(buckets)
    ids = [_csr_gather(frozen.members, starts, sizes)]
    ids += [run_ids for run_ids, _ in overflow]
    rows = [np.repeat(row_of, sizes)]
    rows += [np.repeat(np.arange(counts.size), counts) for _, counts in overflow]
    return np.concatenate(rows), np.concatenate(ids, dtype=np.intp)


def _batch_slots(
    lookups: list[FrozenQueryLookup],
) -> tuple[FrozenTables, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """``(frozen arrays, bucket matrix, live-run ids by row)`` of one snapshot."""
    live = lookups[0].overflow is not None
    overflow = _overflow_members_by_row(lookups) if live else []
    return lookups[0]._frozen, np.stack([lk.bucket_ids for lk in lookups]), overflow


def _assemble_lookups(
    hash_rows,
    positions: np.ndarray,
    frozen: FrozenTables,
    runs: tuple[OverflowRun, ...],
    overflow: np.ndarray | None,
    collisions: np.ndarray,
    largest: np.ndarray,
) -> list[FrozenQueryLookup]:
    """One :class:`FrozenQueryLookup` per row of a located ``(q, S)`` slot
    matrix, given its live-run ranges and exact occupancy bounds."""
    collisions, largest = collisions.tolist(), largest.tolist()
    return [
        FrozenQueryLookup(
            bucket_ids=positions[qi],
            hash_rows=hash_rows[qi],
            frozen=frozen,
            runs=runs,
            overflow=None if overflow is None else overflow[:, :, qi],
            num_collisions=collisions[qi],
            largest_bucket=largest[qi],
        )
        for qi in range(positions.shape[0])
    ]


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``values`` sorted in place, each repeat of its predecessor dropped."""
    values.sort()
    first = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _sorted_union(lookups: list[FrozenQueryLookup], n: int) -> list[np.ndarray]:
    """Step S2 of many rows in one pass: each row's sorted distinct ids.

    The members of every row, tagged ``row * n + id`` (int32 wherever
    that fits: it sorts twice as fast), are sorted and deduplicated
    once; a binary search splits the rows.
    """
    frozen, bucket_mat, overflow = _batch_slots(lookups)
    found = bucket_mat >= 0
    rows, ids = _row_tagged_members(
        frozen, np.nonzero(found)[0], bucket_mat[found], overflow
    )
    tagged = (rows * n + ids).astype(np.int32 if len(lookups) * n < 2**31 else np.int64)
    rows, ids = np.divmod(_sorted_distinct(tagged).astype(np.intp), n)  # the bitmap's dtype
    bounds = rows.searchsorted(np.arange(len(lookups) + 1)).tolist()
    return [ids[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _row_union(lookup: FrozenQueryLookup) -> np.ndarray:
    """:func:`_sorted_union` of one row, which needs no tags: one CSR
    gather of its slots (a -1 slot gathers nothing) and live-run ids."""
    ids = lookup._frozen.gather_members(lookup.bucket_ids)
    if lookup.overflow is not None:
        ids = np.concatenate([ids, *_overflow_ids([lookup])[0]])
    return _sorted_distinct(ids).astype(np.intp)  # the bitmap's dtype


class FrozenQueryLookup:
    """A query's bucket addresses in the frozen arrays (Step S1 output).

    The frozen counterpart of
    :class:`~repro.index.lsh_index.QueryLookup`: instead of one Python
    ``Bucket`` per table it carries one int64 per slot — the global
    bucket index, or -1 where the query fell into an empty bucket —
    plus, when the index has absorbed inserts since it was frozen, the
    entry range each slot hit in every live overflow run.

    Attributes
    ----------
    overflow:
        ``(G, 2, S)`` int64: slot ``s`` matches entries
        ``overflow[g, 0, s] : overflow[g, 1, s]`` of live run ``g``
        (oldest first; ``(0, 0)`` = none).  ``None`` when the lookup's
        snapshot had no live run.
    num_collisions:
        Total occupancy of the query's buckets (frozen + overflow); an
        exact upper bound on ``candSize``.
    largest_bucket:
        Occupancy of the fullest probed bucket (frozen + overflow parts
        of one slot together); an exact lower bound on ``candSize``.
    """

    __slots__ = (
        "bucket_ids",
        "hash_rows",
        "overflow",
        "num_collisions",
        "largest_bucket",
        "_frozen",
        "_runs",
        "_found",
    )

    def __init__(
        self,
        bucket_ids: np.ndarray,
        hash_rows: np.ndarray,
        frozen: FrozenTables,
        runs: tuple[OverflowRun, ...],
        overflow: np.ndarray | None,
        num_collisions: int,
        largest_bucket: int,
    ) -> None:
        self.bucket_ids = bucket_ids
        self.hash_rows = hash_rows
        self.overflow = overflow
        self.num_collisions = num_collisions
        self.largest_bucket = largest_bucket
        self._frozen = frozen
        self._runs = runs
        self._found = None

    def found_buckets(self) -> np.ndarray:
        """Global indexes of the query's non-empty frozen buckets (cached)."""
        if self._found is None:
            self._found = self.bucket_ids[self.bucket_ids >= 0]
        return self._found


class FrozenReads:
    """The Step S1/S2 read methods of a frozen index: a base class of
    :class:`~repro.index.frozen.index.FrozenLSHIndex`, which supplies the
    hash kernel, the HLL hashes, the slot hooks (``num_slots``,
    ``_slot_table_ids``, ``_slot_rows``: ``1 + P`` probed addresses per
    table) and ``_snapshot()``, the consistent ``(arrays, live runs)``
    pair every read works on."""

    # ------------------------------------------------------------------
    # Step S1: lookups
    # ------------------------------------------------------------------
    def lookup(self, query: np.ndarray) -> FrozenQueryLookup:
        """Locate the query's probed buckets: :meth:`lookup_batch` of one row."""
        self._require_built()
        query = check_vector(query, dim=self.dim, name="query")
        return self.lookup_batch(query[None, :])[0]

    def lookup_batch(self, queries: np.ndarray) -> list[FrozenQueryLookup]:
        """Locate many queries' probed buckets: fused hash pass + searchsorted.

        One binary search covers every probe slot of every query in the
        batch (``1 + P`` slots per table).
        """
        self._require_built()
        queries = check_matrix(queries, dim=self.dim, name="queries")
        all_rows = self._batched.hash_rows(queries)  # (q, L, k)
        frozen, runs = self._snapshot()
        slot_rows = self._slot_rows(all_rows)  # (q, S, k)
        positions = frozen.locate(slot_rows, self._slot_table_ids)  # (q, S)
        return self._finish_lookup_batch(all_rows, slot_rows, positions, frozen, runs)

    def _finish_lookup_batch(
        self,
        hash_rows,
        slot_rows: np.ndarray,
        positions: np.ndarray,
        frozen: FrozenTables,
        runs: tuple[OverflowRun, ...],
    ) -> list[FrozenQueryLookup]:
        """Assemble :class:`FrozenQueryLookup` objects from located slots.

        Every live run is probed with the needles :meth:`~FrozenTables.
        locate` mixed for ``slot_rows`` (:meth:`_run_ranges`); the
        vectorised occupancy pass — ``#collisions`` and the largest
        probed bucket, Equation (1)'s exact bounds on ``candSize`` —
        skips -1 slots (empty buckets).
        """
        overflow = self._run_ranges(frozen, runs, slot_rows)
        collisions, largest = _slot_occupancy(frozen, positions, overflow)
        return _assemble_lookups(
            hash_rows, positions, frozen, runs, overflow, collisions, largest
        )

    def _run_ranges(
        self, frozen: FrozenTables, runs: tuple[OverflowRun, ...], slot_rows: np.ndarray
    ) -> np.ndarray | None:
        """The ``(G, 2, q, S)`` entry ranges every slot hits in the live runs
        (one binary search per run, a second over its hits); ``None``
        without a live run."""
        if not runs:
            return None
        order, needles = frozen.needles(slot_rows, self._slot_table_ids)
        return np.stack([run.probe(order, needles) for run in runs]).reshape(
            len(runs), 2, *slot_rows.shape[:2]
        )

    def lookup_batch_adaptive(
        self,
        queries: np.ndarray,
        target_candidates: int,
        min_probes: int = 0,
    ) -> tuple[list[FrozenQueryLookup], np.ndarray, np.ndarray]:
        """Per-query probe budgets: stop probing once the target is certified.

        Ring ``j`` holds probe ``j`` of every table (ring 0: the home
        buckets).  A row stops at the first ring ``j >= min_probes``
        whose prefix — rings ``0..j`` — *certifies* ``target_candidates``:
        its merged-HLL ``candSize`` estimate, clamped to the prefix's
        exact bounds ``[largest bucket, min(#collisions, n)]`` as every
        estimate Equation (1) reads is, reaches the target.  The bounds
        are prefix sums and maxima of the slot sizes the one
        :meth:`FrozenTables.locate` resolved (live-run parts included),
        and decide most prefixes alone: a largest bucket at the target
        certifies, fewer collisions than the target cannot.  Only the
        ``(row, ring)`` pairs they leave open merge sketches: one
        register row per pair, all in one vectorised pass.  A row no
        ring certifies keeps the full fan-out: its lookup is
        bit-identical to :meth:`lookup_batch`'s.

        Returns ``(lookups, probes_used, certified)``: the (possibly
        trimmed, -1 beyond the stop ring) lookups, the stop ring per
        query (int64) and whether its prefix certified the target (bool).
        """
        self._require_sketches()
        queries = check_matrix(queries, dim=self.dim, name="queries")
        all_rows = self._batched.hash_rows(queries)  # (q, L, k)
        q = all_rows.shape[0]
        rings = self.num_slots // self.num_tables
        frozen, runs = self._snapshot()
        slot_rows = self._slot_rows(all_rows)  # (q, S, k)
        positions = frozen.locate(slot_rows, self._slot_table_ids)  # (q, S)
        overflow = self._run_ranges(frozen, runs, slot_rows)
        # Slot s probes ring s % rings of table s // rings.
        sizes = _slot_sizes(frozen, positions, overflow).reshape(q, self.num_tables, rings)
        collisions = np.cumsum(sizes.sum(axis=1), axis=1)  # (q, rings) prefixes
        largest = np.maximum.accumulate(sizes.max(axis=1), axis=1)
        target = int(target_candidates)
        eligible = np.arange(rings) >= min(max(int(min_probes), 0), rings - 1)
        reached = eligible & (largest >= target)
        rows, at = np.nonzero(
            eligible & ~reached & (np.minimum(collisions, self.n) >= target)
        )
        slot_rings = np.tile(np.arange(rings), self.num_tables)
        if rows.size:
            # One register row per open prefix, bit-identical to the
            # trimmed lookup's merge (register maxima are associative).
            # Inside the bounds the clamp is the identity at the target:
            # the clamped estimate reaches it iff the raw one does.
            prefix = slot_rings <= at[:, None]
            members = []
            if overflow is not None:
                members = _run_members(runs, _blank_ranges(overflow[:, :, rows], prefix))
            registers = self._registers_for_bucket_matrix(
                frozen, np.where(prefix, positions[rows], -1), members
            )
            reached[rows, at] = estimates_from_registers(registers) >= float(target)
        certified = reached.any(axis=1)
        stop = np.where(certified, reached.argmax(axis=1), rings - 1)
        keep = slot_rings <= stop[:, None]
        if not keep.all():
            positions = np.where(keep, positions, -1)
            if overflow is not None:
                overflow = _blank_ranges(overflow, keep)
        every = np.arange(q)
        lookups = _assemble_lookups(
            all_rows, positions, frozen, runs, overflow,
            collisions[every, stop], largest[every, stop],
        )
        return lookups, stop, certified

    # ------------------------------------------------------------------
    # Sketch merging (Algorithm 2, line 2)
    # ------------------------------------------------------------------
    def merged_sketch(self, lookup: FrozenQueryLookup) -> HyperLogLog:
        """Merge the query's bucket sketches: row maxima over the register matrix."""
        self._require_sketches()
        # Read through the lookup's snapshot: a background re-freeze may
        # swap self.frozen between lookup and merge, but the lookup's
        # bucket indexes address the arrays it was taken against.
        frozen = lookup._frozen
        found = lookup.found_buckets()
        has_sketch, rows = frozen.register_rows(found)
        # One contiguous reduce; ``initial`` is the all-zero sketch of a
        # lookup without sketched buckets.
        regs = frozen.registers.take(rows[has_sketch], axis=0).max(axis=0, initial=0)
        # Lazy small buckets and overflow entries alike feed their raw
        # ids into the merged registers (maxima over per-id hash pairs).
        lazy = found[~has_sketch]
        ids = np.concatenate(
            [frozen.gather_members(lazy), *_overflow_ids([lookup])[0]], dtype=np.intp
        )
        if ids.size:
            np.maximum.at(
                regs, self._hll_hashes.registers[ids], self._hll_hashes.ranks[ids]
            )
        merged = HyperLogLog(p=self.hll_precision, seed=self.hll_seed)
        merged.registers = regs
        return merged

    def _registers_for_bucket_matrix(
        self,
        frozen: FrozenTables,
        bucket_mat: np.ndarray,
        overflow: list[tuple[np.ndarray, np.ndarray]] = (),
    ) -> np.ndarray:
        """Merged registers per row of a bucket-index matrix.

        ``bucket_mat`` is any ``(rows, cols)`` matrix of global bucket
        indexes (-1 = no bucket); the result is the ``(rows, m)`` uint8
        register matrix of each row's merged sketch.  Rows need not map
        one-to-one onto queries — :meth:`lookup_batch_adaptive` feeds it
        one row per open ``(query, probe ring)`` prefix.  ``overflow``
        lists, per live run, the ids each row hit there
        (:func:`_run_members`): they fold in exactly like
        the members of lazy small buckets — registers are maxima over
        per-id hash pairs — in the same single scatter-max.
        """
        m = 1 << self.hll_precision
        num_rows = bucket_mat.shape[0]
        registers = np.zeros((num_rows, m), dtype=np.uint8)
        if num_rows == 0:
            return registers
        found = bucket_mat >= 0
        qi, _ = np.nonzero(found)  # row-major -> qi ascending
        buckets = bucket_mat[found]
        has_sketch, srows = frozen.register_rows(buckets)
        if has_sketch.any():
            rows = qi[has_sketch]
            stacked = frozen.registers.take(srows[has_sketch], axis=0)
            # Row-major np.nonzero keeps `rows` sorted, so segments of
            # equal query index are contiguous: one contiguous reduce per
            # row merges its sketched buckets (about twice as fast as one
            # reduceat over axis 0, whose inner loop strides across the
            # register columns).
            seg_starts = np.flatnonzero(np.diff(rows, prepend=-1))
            stops = [*seg_starts[1:].tolist(), rows.size]
            for row, start, stop in zip(rows[seg_starts].tolist(), seg_starts.tolist(), stops):
                np.maximum.reduce(stacked[start:stop], axis=0, out=registers[row])
        lazy = ~has_sketch
        rows, ids = _row_tagged_members(frozen, qi[lazy], buckets[lazy], overflow)
        if ids.size:
            # A flat 1-d scatter: numpy's indexed fast path is ~10x the
            # speed of the 2-d ``(rows, registers)`` form.
            np.maximum.at(
                registers.reshape(-1),
                rows * m + self._hll_hashes.registers[ids],
                self._hll_hashes.ranks[ids],
            )
        return registers

    def _merged_registers_batch(self, lookups: list[FrozenQueryLookup]) -> np.ndarray:
        """The ``(q, m)`` merged-register matrix of a lookup batch."""
        if not lookups:
            return np.zeros((0, 1 << self.hll_precision), dtype=np.uint8)
        return self._registers_for_bucket_matrix(*_batch_slots(lookups))

    # ------------------------------------------------------------------
    # Step S2: candidate union
    # ------------------------------------------------------------------
    def candidate_ids(
        self, lookup: FrozenQueryLookup, dedup: str | None = None
    ) -> np.ndarray:
        """Step S2 of one row: its buckets' zero-copy member slices and
        live-run ranges, deduplicated by a boolean scatter over ``n``."""
        self._require_built()
        return self._bitmap_union(
            lookup, _overflow_ids([lookup])[0], self._dedup_mode(dedup)
        )

    def _dedup_mode(self, dedup: str | None) -> str:
        """``dedup``, validated; ``None`` is the index's own mode."""
        if dedup is None:
            return self.dedup
        if dedup not in ("scalar", "vectorized"):
            raise ConfigurationError(
                f'dedup must be "scalar" or "vectorized", got {dedup!r}'
            )
        return dedup

    def _bitmap_union(
        self, lookup: FrozenQueryLookup, run_ids: list[np.ndarray], dedup: str
    ) -> np.ndarray:
        """:meth:`candidate_ids` given the row's ids in each live run."""
        frozen, found = lookup._frozen, lookup.found_buckets()
        starts = frozen.offsets.take(found).tolist()
        stops = frozen.offsets.take(found + 1).tolist()
        parts = [frozen.members[a:b] for a, b in zip(starts, stops)]
        parts += run_ids
        seen = np.zeros(self.n, dtype=bool)
        if dedup == "vectorized":
            # One boolean scatter over the concatenated zero-copy member
            # slices, widened to intp by the concatenate itself: a scatter
            # by uint32 indices pays numpy's index conversion (2x slower).
            if parts:
                seen[np.concatenate(parts, dtype=np.intp)] = True
            return np.flatnonzero(seen)
        # Scalar mode preserves Equation (1)'s per-collision cost
        # structure, exactly like the dict layout's implementation.
        out: list[int] = []
        for part in parts:
            for point_id in part.tolist():
                if not seen[point_id]:
                    seen[point_id] = True
                    out.append(point_id)
        return np.sort(np.asarray(out, dtype=np.int64))

    def candidate_ids_batch(
        self, lookups: list[FrozenQueryLookup], dedup: str | None = None
    ) -> list[np.ndarray]:
        """Step S2 of a lookup batch, the one batched entry point.

        Equivalent to ``[self.candidate_ids(lk, dedup) for lk in
        lookups]``, array for array.  Queries from the same dense region
        collide into the *same* bucket in every table — their rows of
        the ``(q, S)`` bucket-index matrix are identical, and so are the
        overflow ranges they hit — so each distinct row is unioned once
        and the resulting array shared (Step S3 reads it only).

        Distinct rows of at most ``n //`` :data:`SORTED_UNION_RATIO`
        collisions share one :func:`_sorted_union` (a single such row,
        the untagged :func:`_row_union`) instead of ~``L`` slices and an
        ``n``-bitmap each; larger rows keep the bitmap, which wins past
        that crossover.
        """
        self._require_built()
        dedup = self._dedup_mode(dedup)
        if dedup == "scalar" or not lookups:
            return [self.candidate_ids(lk, dedup=dedup) for lk in lookups]
        live = lookups[0].overflow is not None
        groups: dict[bytes, int] = {}
        distinct, inverse = [], []
        for lookup in lookups:
            key = lookup.bucket_ids.tobytes()
            if live:
                # A range's end names its entry group (0 = no hit), so the
                # ends alone key the overflow part of a candidate set.
                key += lookup.overflow[:, 1].tobytes()
            group = groups.setdefault(key, len(distinct))
            if group == len(distinct):
                distinct.append(lookup)
            inverse.append(group)
        limit = self.n // SORTED_UNION_RATIO
        small = [g for g, lk in enumerate(distinct) if lk.num_collisions <= limit]
        unions = {}
        if len(small) > 1:
            unions = dict(zip(small, _sorted_union([distinct[g] for g in small], self.n)))
        elif small:  # a lone query's row, or a batch's one small row
            unions = {small[0]: _row_union(distinct[small[0]])}
        alone = [g for g in range(len(distinct)) if g not in unions]
        for g, run_ids in zip(alone, _overflow_ids([distinct[g] for g in alone])):
            unions[g] = self._bitmap_union(distinct[g], run_ids, dedup)
        return [unions[group] for group in inverse]
