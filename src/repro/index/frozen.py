"""Frozen CSR index layout — contiguous bucket arrays for serving.

The dict layout of :class:`~repro.index.lsh_index.LSHIndex` stores one
Python :class:`~repro.index.bucket.Bucket` object per bucket, so every
query-side primitive (collision counting, sketch merging, candidate
union) walks Python objects.  This module keeps an index as CSR-style
contiguous arrays instead, fused across all ``L`` tables:

* ``key64`` — every bucket's 64-bit *address*: the owning table's id in
  the top ``ceil(log2 L)`` bits, a salted multilinear mix of the
  bucket's hash row in the rest, one globally sorted ``uint64`` array
  (sorted by table first, because the tag is the high bits) so a lookup
  is one typed binary search for all tables at once;
* ``keys`` — the buckets' full hash rows, in the narrowest integer
  dtype that holds every stored value, kept only to *verify* a
  ``key64`` hit exactly (a mix can collide; the row cannot);
* ``offsets`` / ``members`` — int64 CSR offsets into one flat member
  array holding all bucket ids back to back (stored in the platform
  index dtype so the per-query gathers and scatters skip numpy's
  index-conversion pass);
* ``sizes`` — per-bucket occupancy (``#collisions`` is a gather + sum);
* ``registers`` — the HLL registers of every *materialised* bucket
  sketch stacked into a single ``(S, m)`` uint8 matrix, with
  ``sketch_rows`` mapping buckets to rows (-1 = lazy small bucket).

On this layout ``lookup_batch`` is a fused hash pass plus one binary
search per batch, merged-sketch estimation is a row-gathered
``np.maximum.reduceat`` over the register matrix, and candidate
deduplication is one sort of a batch's small rows' tagged member ids (a
boolean scatter over ``n`` for a large row) — all vectorised across
queries *and* tables with zero per-bucket Python objects, and all
**bit-identical** to the dict layout (register maxima and id unions are
associative, so regrouping cannot change a single byte).

:meth:`FrozenLSHIndex.build` is Algorithm 1 written straight into these
arrays: a chunked hash pass into one narrow table-major row matrix,
then :meth:`FrozenTables.assemble` over one-member sources — the
stable sort a re-freeze runs groups them into buckets.  No
:class:`~repro.index.bucket.Bucket` is made, and the arrays are byte
for byte those :meth:`~repro.index.lsh_index.LSHIndex.freeze` makes of
the dict-layout build of the same draws (the bit-identity reference).

What Step S1 costs (:meth:`FrozenTables.locate`): one mix of the
``(q, S, k)`` probed hash rows into ``q * S`` needles, *one*
``uint64`` ``searchsorted`` over the whole of ``key64`` — every table,
probe and query of the batch in the single call, the needles sorted
first so the search walks the array front to back — and one vectorised
verify (stored ``key64`` equal, then stored row equal, else -1).
Nothing runs per table.  A probe is a hit iff ``key64`` *and* the full
row match, and assembly re-salts the mix until no two buckets of a
table share a ``key64``, so answers are exactly the dict layout's.
There is one lookup path: :meth:`FrozenLSHIndex.lookup` is
:meth:`~FrozenLSHIndex.lookup_batch` of one row, so sequential and
batched lookups agree by construction.

:meth:`FrozenLSHIndex.insert` keeps working: the points inserted since
the last re-freeze live in an immutable *sorted run*
(:mod:`repro.index.overflow`) — one entry per (point, table), addressed
exactly like a frozen bucket — which a lookup probes with the needles
it already mixed and sorted for ``key64``: one more binary search per
live run, hits verified against the stored row like frozen ones, and a
``(lo, hi)`` entry range per slot in place of any per-bucket object.
Collision counts add ``hi - lo``, sketch merges and candidate unions
gather the ranges into the scatters the frozen side already runs, so
reads beside writes never leave numpy.  An insert costs one hash pass,
a sort of its ``m * L`` addresses and a copy-on-write merge into the
run; the index re-freezes itself once a run outgrows
``refreeze_threshold``.  Splitting a logical bucket into a frozen part
and an overflow part changes no answer, by the same associativity.

Re-freezing is **double-buffered**: the insert that crosses the
threshold does not pay the compaction — it sets the run aside as the
*compacting* generation, lets subsequent inserts open a fresh one, and
hands the merge of ``frozen ⊕ compacting`` to a background thread.
The point matrix, the arrays and both runs change only under one lock
(``_refreeze_lock``, never held with another): an insert publishes
``points`` and its new run in one swap and a query takes ``(arrays,
live runs)`` in one snapshot, so it sees whole inserts, never the *new*
arrays beside the generation they absorbed, and only runs keyed under
the arrays' salt (a fold that re-salted re-keys the still-live run from
its stored rows as it swaps in).  Answers are bit-identical throughout.
:meth:`FrozenLSHIndex.refreeze` remains synchronous — it waits for any
in-flight background compaction and folds whatever is left.

The frozen arrays persist as a directory of plain ``.npy`` files
(:func:`save_frozen_index` / :func:`load_frozen_index`; format v2 =
``key64.npy`` + ``keys.npy`` + the mix salt in ``config.json``), so
reopening a saved index is ``np.load(..., mmap_mode="r")`` per array —
zero-copy, no bucket reconstruction, first query pages in only what it
touches.  A format-v1 directory (``keys_raw.npy``) still opens: its
tables are re-assembled in memory and the next save writes v2.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import shutil
import threading
import time

import numpy as np

from repro.exceptions import ConfigurationError, CorruptArtifactError
from repro.hashing.batched import BatchedHash
from repro.hashing.bit_sampling import BitSamplingLSH
from repro.hashing.minhash import MinHashLSH, _ABSENT
from repro.hashing.pstable import PStableLSH
from repro.hashing.simhash import SimHashLSH
from repro.utils.fsio import commit_dir, staging_path, write_json_atomic
from repro.utils.validation import check_matrix, check_vector
from repro.index.lsh_index import LSHIndex
from repro.index.overflow import OverflowRun, _csr_gather, _narrowest_int_dtype
from repro.index.table import HashTable
from repro.sketches.hyperloglog import (
    HyperLogLog,
    PrecomputedHllHashes,
    estimates_from_registers,
)

__all__ = [
    "FrozenLSHIndex",
    "FrozenTables",
    "FrozenQueryLookup",
    "save_frozen_index",
    "load_frozen_index",
]

#: Overflow points tolerated before :meth:`FrozenLSHIndex.insert`
#: triggers an automatic re-freeze.
DEFAULT_REFREEZE_THRESHOLD = 1024

_FROZEN_FORMAT_VERSION = 2
_CONFIG_FILE = "config.json"

#: Points hashed per chunk by :meth:`FrozenLSHIndex.build`: bounds the
#: int64 hash tensor a chunk holds before it is narrowed into the rows.
BUILD_CHUNK_ROWS = 4096

#: Step-S2 crossover (:meth:`FrozenLSHIndex.candidate_ids_batch`): rows of
#: at most ``n // 8`` collisions share one sort, larger ones use a bitmap.
SORTED_UNION_RATIO = 8

#: Salts tried (``salt``, ``salt + 1``, ...) before
#: :meth:`FrozenTables.assemble` gives up on a collision-free ``key64``.
MAX_SALT_ATTEMPTS = 8

_U64_MASK = (1 << 64) - 1


@functools.lru_cache(maxsize=64)
def _mix_constants(salt: int, width: int) -> np.ndarray:
    """The mix's ``1 + width`` odd 64-bit constants for ``salt``.

    A splitmix64 stream written out in Python integers rather than
    drawn from a numpy ``Generator``: the constants are part of the
    persisted format (a reopened artifact recomputes them from the salt
    in ``config.json``), so they must not depend on the numpy version.
    """
    constants, state = [], salt & _U64_MASK
    for _ in range(1 + width):
        state = (state + 0x9E3779B97F4A7C15) & _U64_MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64_MASK
        constants.append((z ^ (z >> 31)) | 1)
    out = np.array(constants, dtype=np.uint64)
    out.setflags(write=False)
    return out


def _mix_rows(rows: np.ndarray, salt: int) -> np.ndarray:
    """Salted multilinear mix of integer hash rows: ``(..., w)`` -> ``(...)`` uint64.

    ``c0 + sum_i c_i * row_i  (mod 2**64)``; the *high* bits of a
    multilinear hash are the universal ones, which is why
    :func:`_tagged_key64` keeps them and drops the low ones.  Values
    are taken two's-complement, so a row mixes the same whatever
    integer dtype carries it.
    """
    constants = _mix_constants(salt, rows.shape[-1])
    if rows.dtype == np.int64:  # hashed rows (the query path)
        return rows.view(np.uint64) @ constants[1:] + constants[0]
    # Narrow stored rows (assembly, run re-keying): widened a column at
    # a time, never as a whole 8-byte copy of the matrix.
    mixed = np.full(rows.shape[:-1], constants[0])
    for column, constant in enumerate(constants[1:]):
        mixed += rows[..., column].astype(np.uint64) * constant
    return mixed


def _tagged_key64(
    rows: np.ndarray, table_ids: np.ndarray, num_tables: int, salt: int
) -> np.ndarray:
    """64-bit bucket addresses: table id in the top bits, row mix below.

    ``rows`` is ``(..., w)`` and ``table_ids`` broadcasts against its
    leading axes.  The tag takes ``ceil(log2 num_tables)`` bits, so
    addresses of different tables never compare equal and sort by table
    first.
    """
    tag_bits = (num_tables - 1).bit_length()
    key64 = _mix_rows(rows, salt) >> np.uint64(tag_bits)
    if tag_bits:
        key64 |= table_ids.astype(np.uint64) << np.uint64(64 - tag_bits)
    return key64


def _sorted_addresses(
    rows: np.ndarray, table_ids: np.ndarray, num_tables: int, salt: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """``(salt, stable order, sorted key64)`` under the first usable salt.

    A salt is usable when no two *different* rows of one table share an
    address (equal addresses share the tag, hence the table; equal rows
    there are one bucket, to be merged).  Salts are tried upwards from
    ``salt`` — deterministic, so a rebuild of the same buckets lands on
    the same one.
    """
    for trial in range(salt, salt + MAX_SALT_ATTEMPTS):
        key64 = _tagged_key64(rows, table_ids, num_tables, trial)
        order = np.argsort(key64, kind="stable")
        key64 = key64[order]  # rebound: the unsorted copy is freed
        twins = np.flatnonzero(key64[1:] == key64[:-1])
        if (rows[order[twins]] == rows[order[twins + 1]]).all():
            return trial, order, key64
    raise ConfigurationError(
        f"no collision-free 64-bit bucket addressing in {MAX_SALT_ATTEMPTS} "
        f"salts from {salt}; the key mix is degenerate"
    )


def _merge_sources(
    per_table: list[tuple[np.ndarray, np.ndarray, np.ndarray]], salt: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(salt, key64, keys, table_slices, sizes, members)`` of
    :meth:`FrozenTables.assemble`; the concatenated sources and the sort
    order die with this frame, before the registers are built."""
    num_tables = len(per_table)
    rows = np.concatenate([r for r, _, _ in per_table])
    src_sizes = np.concatenate([s for _, s, _ in per_table]).astype(np.int64, copy=False)
    src_members = np.concatenate([m for _, _, m in per_table])
    table_ids = np.repeat(np.arange(num_tables), [r.shape[0] for r, _, _ in per_table])
    salt, order, sorted_key64 = _sorted_addresses(rows, table_ids, num_tables, salt)
    new_bucket = np.ones(order.size, dtype=bool)
    new_bucket[1:] = sorted_key64[1:] != sorted_key64[:-1]
    first = np.flatnonzero(new_bucket)  # each merged bucket's first source
    key64 = sorted_key64[first]
    keys = rows[order[first]]
    keys = keys.astype(_narrowest_int_dtype(keys))
    table_slices = np.zeros(num_tables + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(table_ids[order[first]], minlength=num_tables),
        out=table_slices[1:],
    )
    if (src_sizes == 1).all():
        # One-member sources (a build): the sort order *is* the member order.
        sizes = np.diff(first, append=order.size)
        members = src_members[order]
    else:
        ordered_sizes = src_sizes[order]
        sizes = np.add.reduceat(ordered_sizes, first) if first.size else ordered_sizes
        src_starts = np.cumsum(src_sizes) - src_sizes
        members = _csr_gather(src_members, src_starts[order], ordered_sizes)
    return salt, key64, keys, table_slices, sizes, members


def _slot_occupancy(
    frozen: FrozenTables, positions: np.ndarray, overflow: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(#collisions, largest bucket)`` per row of a ``(q, S)`` slot matrix.

    A probed *logical* bucket is one slot's frozen part plus its part in
    every overflow generation (the dict layout holds them as one
    bucket), so both numbers equal the dict layout's across inserts and
    re-freezes.  ``overflow`` is the batch's ``(G, 2, q, S)`` tensor of
    entry ranges (``None`` when the snapshot had no live run); -1 slots
    — empty buckets, or probes an adaptive budget trimmed — count zero.
    """
    sizes = frozen.sizes.take(positions, mode="clip")
    sizes[positions < 0] = 0
    if overflow is not None:
        sizes += (overflow[:, 1] - overflow[:, 0]).sum(axis=0)
    return sizes.sum(axis=1), sizes.max(axis=1)


def _overflow_members_by_row(
    lookups: list[FrozenQueryLookup],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per live generation, ``(ids, ids per lookup)`` of one snapshot's lookups.

    One CSR gather per generation covers every probed range of every
    lookup; ``ids`` lists them lookup by lookup.
    """
    ranges = np.stack([lk.overflow for lk in lookups])  # (rows, G, 2, S)
    gathered = []
    for g, run in enumerate(lookups[0]._runs):
        lo = ranges[:, g, 0]
        lens = ranges[:, g, 1] - lo
        ids = _csr_gather(run.members, lo.ravel(), lens.ravel())
        gathered.append((ids, lens.sum(axis=1)))
    return gathered


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
    tagged with its ``row_of`` entry, then the rows' live-run ids."""
    sizes = frozen.sizes[buckets]
    ids = [_csr_gather(frozen.members, frozen.offsets[buckets], sizes)]
    ids += [run_ids for run_ids, _ in overflow]
    rows = [np.repeat(row_of, sizes)]
    rows += [np.repeat(np.arange(counts.size), counts) for _, counts in overflow]
    return np.concatenate(rows), np.concatenate(ids)


def _batch_slots(
    lookups: list[FrozenQueryLookup],
) -> tuple[FrozenTables, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """``(frozen arrays, bucket matrix, live-run ids by row)`` of one snapshot."""
    live = lookups[0].overflow is not None
    overflow = _overflow_members_by_row(lookups) if live else []
    return lookups[0]._frozen, np.stack([lk.bucket_ids for lk in lookups]), overflow


def _sorted_union(lookups: list[FrozenQueryLookup], n: int) -> list[np.ndarray]:
    """Step S2 of many rows in one pass: each row's sorted distinct ids.

    The members of every row, tagged ``row * n + id`` (int32 wherever
    that fits: it sorts twice as fast), are sorted once; dropping each
    repeat of its predecessor dedups all rows, a binary search splits them.
    """
    frozen, bucket_mat, overflow = _batch_slots(lookups)
    found = bucket_mat >= 0
    rows, ids = _row_tagged_members(
        frozen, np.nonzero(found)[0], bucket_mat[found], overflow
    )
    tagged = (rows * n + ids).astype(np.int32 if len(lookups) * n < 2**31 else np.int64)
    tagged.sort()
    first = np.ones(tagged.size, dtype=bool)
    np.not_equal(tagged[1:], tagged[:-1], out=first[1:])
    rows, ids = np.divmod(tagged[first].astype(np.intp), n)  # the bitmap's dtype
    bounds = rows.searchsorted(np.arange(len(lookups) + 1)).tolist()
    return [ids[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


@dataclasses.dataclass(slots=True, eq=False, repr=False)
class FrozenTables:
    """All ``L`` tables of a frozen index as one fused CSR structure.

    Bucket ``b`` (a *global* index across tables) owns members
    ``members[offsets[b] : offsets[b + 1]]``, has the 64-bit address
    ``key64[b]`` and the full hash row ``keys[b]``; ``key64`` is
    strictly increasing, and table ``t`` owns the bucket range
    ``table_slices[t] : table_slices[t + 1]`` (the table id is the
    address's high bits).  ``salt`` selects the mix the addresses were
    computed with; :meth:`locate` must — and does — use the same one.
    """

    num_tables: int
    salt: int
    key64: np.ndarray
    keys: np.ndarray
    table_slices: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray
    members: np.ndarray
    sketch_rows: np.ndarray
    registers: np.ndarray
    #: ``(slot_rows, order, sorted addresses)`` of the latest :meth:`needles` call.
    _needles: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def assemble(
        cls,
        per_table: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
        hll_hashes: PrecomputedHllHashes | None,
        lazy_threshold: int,
        hll_precision: int,
        salt: int = 0,
    ) -> FrozenTables:
        """Fuse per-table ``(hash rows, sizes, members)`` source triples.

        Table ``t``'s triple lists source buckets in any order: an
        ``(B, w)`` integer matrix of hash rows, each bucket's size, and
        the member ids back to back.  Equal rows of one table merge into
        one bucket whose members keep source order — which is how a
        re-freeze folds an overflow generation in
        (:meth:`table_source` lists the frozen buckets first), and how
        :meth:`FrozenLSHIndex.build` groups its one-member sources.

        One stable ``uint64`` argsort over all tables orders the
        buckets by ``key64``.  Two *different* rows of a table sharing a
        ``key64`` would make :meth:`locate` ambiguous, so the mix is
        re-salted (``salt``, ``salt + 1``, ... — deterministic, and
        persisted) until there is no such pair;
        :data:`MAX_SALT_ATTEMPTS` failures raise.

        Sketch materialisation follows the dict layout's invariant —
        a bucket is sketched iff its size exceeds the lazy threshold —
        and registers are rebuilt from the member ids in one vectorised
        scatter-max (bit-identical to incrementally maintained sketches,
        because registers are maxima over per-id hash pairs).
        """
        num_tables = len(per_table)
        salt, key64, keys, table_slices, sizes, members = _merge_sources(
            per_table, salt
        )
        total_buckets = sizes.size
        offsets = np.zeros(total_buckets + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])

        m = 1 << hll_precision
        sketch_rows = np.full(total_buckets, -1, dtype=np.int64)
        if hll_hashes is not None:
            sketched = np.flatnonzero(sizes > lazy_threshold)
            sketch_rows[sketched] = np.arange(sketched.size)
            registers = np.zeros((sketched.size, m), dtype=np.uint8)
            if sketched.size:
                ids = _csr_gather(members, offsets[sketched], sizes[sketched])
                sketch_of = np.repeat(np.arange(sketched.size), sizes[sketched])
                np.maximum.at(
                    registers,
                    (sketch_of, hll_hashes.registers[ids]),
                    hll_hashes.ranks[ids],
                )
        else:
            registers = np.zeros((0, m), dtype=np.uint8)
        return cls(
            num_tables=num_tables,
            salt=salt,
            key64=key64,
            keys=keys,
            table_slices=table_slices,
            offsets=offsets,
            sizes=sizes,
            members=members,
            sketch_rows=sketch_rows,
            registers=registers,
        )

    @staticmethod
    def table_arrays(
        table: HashTable, row_width: int, pad_to: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One dict-layout table -> its ``(hash rows, sizes, members)`` triple.

        ``row_width`` is the number of hash values in the table's dict
        keys; ``pad_to`` (>= ``row_width``) zero-pads every row on the
        right so tables with different widths — the covering index's
        variable blocks — can share one fused key matrix.  Padding
        cannot make two distinct rows of one table equal (same true
        width), so the buckets are the dict layout's either way.
        """
        width = row_width if pad_to is None else int(pad_to)
        num = len(table.buckets)
        if num == 0:
            return (
                np.empty((0, width), dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.intp),
            )
        rows = np.frombuffer(b"".join(table.buckets.keys()), dtype="<i8").reshape(
            num, row_width
        )
        if width != row_width:
            padded = np.zeros((num, width), dtype=np.int64)
            padded[:, :row_width] = rows
            rows = padded
        buckets = list(table.buckets.values())
        sizes = np.asarray([bucket.size for bucket in buckets], dtype=np.int64)
        members = np.concatenate([bucket.ids for bucket in buckets]).astype(
            np.intp, copy=False
        )
        return rows, sizes, members

    def table_source(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Table ``t``'s buckets as an :meth:`assemble` source triple (a
        re-freeze puts the overflow run's behind it; :meth:`assemble`
        picks the merged rows' narrowest dtype afresh)."""
        lo, hi = int(self.table_slices[t]), int(self.table_slices[t + 1])
        seg_start, seg_stop = int(self.offsets[lo]), int(self.offsets[hi])
        return self.keys[lo:hi], self.sizes[lo:hi], self.members[seg_start:seg_stop]

    # ------------------------------------------------------------------
    # Query-side primitives
    # ------------------------------------------------------------------
    def addresses(
        self, rows: np.ndarray, slot_tables: np.ndarray | None = None
    ) -> np.ndarray:
        """The ``(..., S)`` bucket addresses of a ``(..., S, w)`` row tensor.

        Column ``s`` is addressed in table ``slot_tables[s]`` (default:
        table ``s``) under this structure's salt — what ``key64`` holds
        for the frozen buckets and what an overflow run beside these
        arrays is keyed by.
        """
        if slot_tables is None:
            slot_tables = np.arange(self.num_tables)
        if slot_tables.shape != (rows.shape[-2],):
            raise ValueError(
                f"hash-row tensor has {rows.shape[-2]} slot columns; "
                f"{slot_tables.shape[0]} slot table ids given"
            )
        return _tagged_key64(rows, slot_tables, self.num_tables, self.salt)

    def needles(
        self, slot_rows: np.ndarray, slot_tables: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """A lookup's probes as search needles: ``(order, sorted addresses)``.

        ``order[i]`` is the flat ``(query, slot)`` index of the ``i``-th
        smallest address.  Sorted needles let a binary search walk its
        array front to back (3x faster than unsorted ones).  The latest
        result is kept, keyed by the identity of ``slot_rows``, so the
        overflow probes of a lookup reuse what its :meth:`locate` mixed
        and sorted; a racing lookup on another thread only re-mixes.
        """
        latest = self._needles
        if latest is not None and latest[0] is slot_rows:
            return latest[1], latest[2]
        flat = self.addresses(slot_rows, slot_tables).ravel()
        order = np.argsort(flat)
        needles = flat.take(order)
        self._needles = (slot_rows, order, needles)
        return order, needles

    def locate(
        self, slot_rows: np.ndarray, slot_tables: np.ndarray | None = None
    ) -> np.ndarray:
        """Global bucket index per ``(query, slot)``; -1 for empty buckets.

        ``slot_rows`` is the ``(q, S, w)`` integer tensor of a query
        batch's probed hash rows and ``slot_tables`` names the table
        each of the ``S`` slots probes (default: slot ``s`` probes table
        ``s``, the plain and covering layouts; the multi-probe layout
        passes ``1 + P`` consecutive slots per table).

        One binary search resolves every slot of every query: the rows
        are mixed into tagged 64-bit needles, sorted (:meth:`needles`)
        and searched in a single typed ``searchsorted``.  A slot is a
        hit iff the address found equals the needle *and* the full row
        stored there equals the probed row — a needle of another table
        can never match (different tag), and a value the narrow ``keys``
        dtype cannot hold compares unequal rather than wrapping, because
        the comparison promotes.
        """
        q, num_slots, width = slot_rows.shape
        order, needles = self.needles(slot_rows, slot_tables)
        positions = np.empty(q * num_slots, dtype=np.int64)
        positions.fill(-1)
        if self.key64.size and q:
            pos = self.key64.searchsorted(needles)
            hit = np.flatnonzero(self.key64.take(pos, mode="clip") == needles)
            pos, slots = pos.take(hit), order.take(hit)
            wrong = self.keys.take(pos, axis=0) != slot_rows.reshape(-1, width).take(
                slots, axis=0
            )
            if wrong.any():  # same address, different row: a key64 collision
                same = ~wrong.any(axis=1)
                pos, slots = pos[same], slots[same]
            positions[slots] = pos
        return positions.reshape(q, num_slots)

    def gather_members(self, bucket_idx: np.ndarray) -> np.ndarray:
        """Concatenated member ids of the given global buckets."""
        return _csr_gather(
            self.members, self.offsets[bucket_idx], self.sizes[bucket_idx]
        )

    @property
    def num_buckets(self) -> int:
        return int(self.table_slices[-1])

    @property
    def memory_bytes(self) -> dict[str, int]:
        return {
            "bucket_ids": int(self.members.nbytes),
            "bucket_keys": int(self.key64.nbytes) + int(self.keys.nbytes),
            "sketches": int(self.registers.nbytes),
        }

    def __repr__(self) -> str:
        return (
            f"FrozenTables(L={self.num_tables}, buckets={self.num_buckets}, "
            f"members={self.members.size}, sketched={self.registers.shape[0]})"
        )


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


class FrozenLSHIndex(LSHIndex):
    """An LSH index held in contiguous CSR arrays.

    Constructed like :class:`~repro.index.lsh_index.LSHIndex` and filled
    by :meth:`build` (no bucket objects on the way), or compacted from
    a built dict-layout index by
    :meth:`~repro.index.lsh_index.LSHIndex.freeze`; either way it
    answers every query-side primitive bit-identically to the
    dict-layout index of the same draws, while the batched serving path
    runs entirely in numpy.  Supports :meth:`insert` through a sorted
    overflow run (:mod:`repro.index.overflow`) that is automatically
    re-frozen once it exceeds ``refreeze_threshold`` points.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.hashing import SimHashLSH
    >>> from repro.index import LSHIndex
    >>> rng = np.random.default_rng(0)
    >>> points = rng.normal(size=(300, 16))
    >>> frozen = FrozenLSHIndex(SimHashLSH(16), k=4, num_tables=8, seed=2)
    >>> frozen = frozen.build(points)
    >>> index = LSHIndex(SimHashLSH(16), k=4, num_tables=8, seed=2).build(points)
    >>> frozen.num_collisions(points[0]) == index.num_collisions(points[0])
    True
    >>> lookup = frozen.lookup(points[0])
    >>> bool(np.array_equal(frozen.candidate_ids(lookup),
    ...                     index.candidate_ids(index.lookup(points[0]))))
    True
    """

    layout = "frozen"
    #: Index-variant tag; the probing subclasses override this.
    variant = "plain"

    # ------------------------------------------------------------------
    # Slot model
    #
    # A *slot* is one probed bucket address per query: the plain layout
    # has one slot per table (S == L), the multi-probe layout has
    # ``1 + P`` consecutive slots per table.  Everything downstream of
    # the lookup — collision counts, sketch merges, candidate unions,
    # overflow probing — is written against slots, so the probing
    # subclasses only override the three hooks below.
    # ------------------------------------------------------------------
    @property
    def row_width(self) -> int:
        """Hash values per stored key row (covering: its widest block)."""
        return self.k

    @property
    def num_slots(self) -> int:
        """Probed bucket addresses per query (``L`` for the plain layout)."""
        return self.num_tables

    @property
    def _slot_table_ids(self) -> np.ndarray:
        """Table owning each slot (identity for the plain layout)."""
        return np.arange(self.num_tables)

    def _slot_rows(self, all_rows: np.ndarray) -> np.ndarray:
        """``(q, L, k)`` hash tensor -> ``(q, S, k)`` probed hash rows."""
        return all_rows

    def _insert_rows(self, new_points: np.ndarray) -> np.ndarray:
        """``(m, L, w)`` stored hash rows of points being inserted (the
        covering layout pads its block rows to the widest block)."""
        return self._batched.hash_points(new_points)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def __init__(self, *args, **kwargs) -> None:
        """An unbuilt index, hash functions drawn (arguments as
        :class:`~repro.index.lsh_index.LSHIndex`); :meth:`build` fills it."""
        super().__init__(*args, **kwargs)
        del self.tables  # the CSR arrays stand in for the dict tables
        self._batched = self.family.sample_batch(self.k, self.num_tables)
        self.frozen = None
        self._init_overflow(None)

    def build(self, points: np.ndarray) -> FrozenLSHIndex:
        """Hash every point into every table, straight into the CSR arrays.

        :data:`BUILD_CHUNK_ROWS` points at a time go through
        :meth:`_insert_rows` (what an insert hashes with, for every
        variant) into one ``(L, n, w)`` row matrix of the narrowest
        dtype, widened when a chunk needs it.  Each row is then a
        one-member :meth:`FrozenTables.assemble` source: its stable sort
        groups equal rows into buckets, members in id order, and one
        scatter-max fills the registers.  An index is built once.
        """
        if self.is_built:
            raise ConfigurationError(
                "a frozen index is built once; insert() adds points to a built one"
            )
        points = check_matrix(points, dim=self.dim, name="points")
        n = points.shape[0]
        if n == 0:
            raise ConfigurationError("cannot build an index over zero points")
        self._hll_hashes = (
            PrecomputedHllHashes(n, p=self.hll_precision, seed=self.hll_seed)
            if self.with_sketches
            else None
        )
        rows = np.empty((self.num_tables, n, self.row_width), dtype=np.int8)
        for start in range(0, n, BUILD_CHUNK_ROWS):
            chunk = self._insert_rows(points[start : start + BUILD_CHUNK_ROWS])
            dtype = np.promote_types(rows.dtype, _narrowest_int_dtype(chunk))
            if dtype != rows.dtype:
                rows = rows.astype(dtype)
            rows[:, start : start + chunk.shape[0]] = chunk.transpose(1, 0, 2)
        ones, ids = np.ones(n, dtype=np.int64), np.arange(n, dtype=np.intp)
        frozen = FrozenTables.assemble(
            [(table_rows, ones, ids) for table_rows in rows],
            self._hll_hashes,
            self._effective_lazy_threshold,
            self.hll_precision,
        )
        with self._refreeze_lock:  # published like an insert's swap
            self.frozen, self.points = frozen, points
        return self

    @classmethod
    def from_dict_index(
        cls, index: LSHIndex, refreeze_threshold: int | None = None
    ) -> FrozenLSHIndex:
        """Compact a built dict-layout index (shares points and kernel):
        the reference's path, to the arrays :meth:`build` makes."""
        index._require_built()
        self = cls.__new__(cls)
        self._adopt(index)
        self.points = index.points
        # Members live in the platform index dtype (intp): every hot-path
        # consumer is a fancy index (candidate scatter, HLL pair gather,
        # point gather), and numpy converts any other integer dtype to
        # intp per call — a measurable per-query tax at serving rates.
        per_table = [
            FrozenTables.table_arrays(table, self.k) for table in index.tables
        ]
        self.frozen = FrozenTables.assemble(
            per_table,
            self._hll_hashes,
            self._effective_lazy_threshold,
            self.hll_precision,
        )
        self._init_overflow(refreeze_threshold)
        return self

    @classmethod
    def from_state(
        cls,
        family,
        batched,
        points: np.ndarray,
        frozen: FrozenTables,
        k: int,
        num_tables: int,
        hll_precision: int,
        hll_seed: int,
        lazy_threshold: int | None,
        with_sketches: bool,
        dedup: str,
        refreeze_threshold: int | None = None,
    ) -> FrozenLSHIndex:
        """Reassemble from persisted arrays (no bucket reconstruction)."""
        self = cls.__new__(cls)
        self.family = family
        self.k = int(k)
        self.num_tables = int(num_tables)
        self.hll_precision = int(hll_precision)
        self.hll_seed = int(hll_seed)
        self.lazy_threshold = lazy_threshold
        self.with_sketches = bool(with_sketches)
        self.dedup = dedup
        self.points = points
        self._batched = batched
        self._hll_hashes = (
            PrecomputedHllHashes(
                points.shape[0], p=self.hll_precision, seed=self.hll_seed
            )
            if self.with_sketches
            else None
        )
        self.frozen = frozen
        self._init_overflow(refreeze_threshold)
        return self

    def _adopt(self, index: LSHIndex) -> None:
        """Share the immutable pieces of the source index (``points`` is
        the caller's to set: it is swapped under the re-freeze lock)."""
        self.family = index.family
        self.k = index.k
        self.num_tables = index.num_tables
        self.hll_precision = index.hll_precision
        self.hll_seed = index.hll_seed
        self.lazy_threshold = index.lazy_threshold
        self.with_sketches = index.with_sketches
        self.dedup = index.dedup
        self._hll_hashes = index._hll_hashes
        self._batched = index._batched

    def _init_overflow(self, refreeze_threshold: int | None) -> None:
        self.refreeze_threshold = (
            DEFAULT_REFREEZE_THRESHOLD
            if refreeze_threshold is None
            else int(refreeze_threshold)
        )
        #: When True (default) the insert crossing ``refreeze_threshold``
        #: hands compaction to a background thread instead of running it
        #: inline; answers are bit-identical either way.
        self.background_refreeze = getattr(self, "background_refreeze", True)
        #: The live overflow generations (:mod:`repro.index.overflow`):
        #: the run inserts extend, and the one a background fold is
        #: merging into the arrays.  ``None`` = holds no point.
        self._run: OverflowRun | None = None
        self._compacting: OverflowRun | None = None
        self._refreeze_lock = threading.Lock()
        self._refreeze_thread: threading.Thread | None = None
        self._refreeze_error: BaseException | None = None
        #: re-freeze telemetry (read by the observability gauges):
        #: completed folds, their summed duration, and the last one's.
        self.refreeze_count = 0
        self.refreeze_seconds_total = 0.0
        self.last_refreeze_seconds = 0.0

    @property
    def _effective_lazy_threshold(self) -> int:
        return (
            (1 << self.hll_precision)
            if self.lazy_threshold is None
            else int(self.lazy_threshold)
        )

    @property
    def live_runs(self) -> tuple[OverflowRun, ...]:
        """The overflow generations a lookup probes, oldest first."""
        return self._snapshot()[1]

    @property
    def overflow_count(self) -> int:
        """Points inserted since the last completed (re-)freeze.

        Includes the generation an in-flight background compaction is
        currently folding in; drops to zero once the swap lands.
        """
        return sum(run.count for run in self.live_runs)

    # ------------------------------------------------------------------
    # Mutation: overflow inserts + re-freeze
    # ------------------------------------------------------------------
    def insert(self, new_points: np.ndarray) -> np.ndarray:
        """Insert points into the live overflow run; re-freeze past the threshold.

        The new entries are merged into a *copy* of the run, and the
        grown point matrix and the new run are published in one swap
        under the re-freeze lock (the HLL pairs are extended first): a
        concurrent lookup sees the whole insert or none of it, and every
        id it finds is below ``points.shape[0]``.  With
        :attr:`background_refreeze` (the default) the insert crossing
        the threshold only *starts* the compaction; queries keep probing
        both generations until the background swap lands.
        """
        self._require_built()
        new_points = check_matrix(new_points, dim=self.dim, name="new_points")
        m = new_points.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.int64)
        rows = self._insert_rows(new_points)
        old_n = self.n
        points = np.concatenate([self.points, new_points])
        if self._hll_hashes is not None:
            self._hll_hashes.extend(old_n + m)
        while True:
            with self._refreeze_lock:
                frozen, base = self.frozen, self._run
            run = base or OverflowRun.empty(
                frozen.salt, old_n, self.num_tables, rows.shape[2]
            )
            run, clean = run.extended(frozen.addresses(rows), rows)
            if not clean:
                self.wait_for_refreeze()
            with self._refreeze_lock:
                if self.frozen is not frozen or self._run is not base:
                    continue  # a fold landed in between: re-address
                self.points, self._run = points, run
                if not clean:
                    # Two rows of a table share an address inside the
                    # run: fold it before any lookup can probe it.
                    self._fold_all_locked()
                trigger = clean and run.count > self.refreeze_threshold
            break
        if trigger:
            if self.background_refreeze:
                self._start_background_refreeze()
            else:
                self.refreeze()
        return np.arange(old_n, old_n + m, dtype=np.int64)

    def _start_background_refreeze(self) -> None:
        """Rotate the overflow generation and compact it off-thread."""
        with self._refreeze_lock:
            if self._refreeze_thread is not None:
                # One compaction at a time; the overflow keeps growing in
                # the current generation and the next insert re-triggers.
                return
            if self._compacting is None:
                self._compacting, self._run = self._run, None
            # else: a previous background fold failed — retry the stuck
            # generation (queries kept probing it, nothing was lost).
            thread = threading.Thread(
                target=self._background_refreeze_run,
                args=(self.frozen, self._compacting),
                name="repro-refreeze",
                daemon=True,
            )
            self._refreeze_thread = thread
            # Start while holding the lock so a concurrent
            # wait_for_refreeze() can never join() an unstarted thread;
            # the new thread only needs the lock when its fold is done.
            thread.start()

    def _background_refreeze_run(
        self, snapshot: FrozenTables, compacting: OverflowRun
    ) -> None:
        started = time.perf_counter()
        try:
            merged = self._fold_generation(snapshot, compacting)
        except BaseException as exc:  # leave both generations queryable
            with self._refreeze_lock:
                self._refreeze_error = exc
                self._refreeze_thread = None
            return
        elapsed = time.perf_counter() - started
        with self._refreeze_lock:
            self._refreeze_thread = None
            if self._compacting is not compacting:
                # A synchronous refreeze() superseded this run while the
                # fold was in flight; its arrays already contain every
                # generation — swapping in ours would drop newer points.
                return
            folds, run = 1, self._run
            if run is not None and run.salt != merged.salt:
                # The fold re-salted: the still-live run is re-keyed from
                # its stored rows (and folded too should the new mix
                # break its collision rule).
                rekeyed = OverflowRun.empty(
                    merged.salt, run.first_id, self.num_tables, run.rows.shape[2]
                )
                run, clean = rekeyed.extended(merged.addresses(run.rows), run.rows)
                if not clean:
                    merged, run, folds = self._fold_generation(merged, run), None, 2
            self.frozen, self._run, self._compacting = merged, run, None
            self._refreeze_error = None
            self._record_refreeze_locked(folds, elapsed)

    def _fold_generation(self, frozen: FrozenTables, run: OverflowRun) -> FrozenTables:
        """Merge one overflow generation into ``frozen`` (pure function).

        Per table the frozen buckets come first and the run's entries
        follow in insertion order, so a bucket present on both sides
        keeps the id order the dict layout's append path produces.
        """
        per_table = [
            tuple(
                np.concatenate(pair)
                for pair in zip(frozen.table_source(t), run.table_source(t))
            )
            for t in range(self.num_tables)
        ]
        return FrozenTables.assemble(
            per_table,
            self._hll_hashes,
            self._effective_lazy_threshold,
            self.hll_precision,
            salt=frozen.salt,
        )

    def _record_refreeze_locked(self, folds: int, elapsed: float) -> None:
        """Update the re-freeze gauges (``_refreeze_lock`` held)."""
        self.refreeze_count += folds
        self.refreeze_seconds_total += elapsed
        self.last_refreeze_seconds = elapsed

    @property
    def last_refreeze_error(self) -> BaseException | None:
        """The most recent background compaction failure, if any.

        A failed fold never loses data — queries keep probing the stuck
        overflow generation — and the next threshold crossing (or an
        explicit :meth:`refreeze`) retries it; this surfaces the cause.
        """
        return self._refreeze_error

    def wait_for_refreeze(self) -> FrozenLSHIndex:
        """Block until any in-flight background compaction has landed."""
        with self._refreeze_lock:
            # Assignment and start() both happen under this lock, so a
            # thread observed here can never be assigned-but-unstarted
            # (joining one raises RuntimeError).
            thread = self._refreeze_thread
        if thread is not None:
            thread.join()
        return self

    def refreeze(self) -> FrozenLSHIndex:
        """Fold all overflow back into the CSR arrays, synchronously.

        Waits for an in-flight background compaction first, then folds
        whatever generations remain — oldest first, so duplicate keys
        keep their members in insertion order (bit-identical to the
        dict layout's append path).
        """
        self.wait_for_refreeze()
        with self._refreeze_lock:
            self._fold_all_locked()
        return self

    def _fold_all_locked(self) -> None:
        self._refreeze_error = None
        runs = [run for run in (self._compacting, self._run) if run is not None]
        frozen = self.frozen
        started = time.perf_counter()
        for run in runs:
            frozen = self._fold_generation(frozen, run)
        self.frozen, self._run, self._compacting = frozen, None, None
        if runs:
            self._record_refreeze_locked(len(runs), time.perf_counter() - started)

    def freeze(self, refreeze_threshold: int | None = None) -> FrozenLSHIndex:
        """Re-freezing a frozen index compacts its overflow (idempotent)."""
        if refreeze_threshold is not None:
            self.refreeze_threshold = int(refreeze_threshold)
        return self.refreeze()

    # ------------------------------------------------------------------
    # Step S1: lookups
    # ------------------------------------------------------------------
    def _snapshot(self) -> tuple[FrozenTables, tuple[OverflowRun, ...]]:
        """A consistent ``(frozen arrays, live overflow runs)`` view.

        Taken under the re-freeze lock so a concurrent background swap
        can never hand a lookup the *new* arrays together with the
        compacting generation (double counting), the *old* arrays
        without it (missed points), or a run keyed under another salt
        than the arrays'.  Runs are ordered oldest first.
        """
        with self._refreeze_lock:
            runs = tuple(
                run for run in (self._compacting, self._run) if run is not None
            )
            return self.frozen, runs

    def lookup(self, query: np.ndarray) -> FrozenQueryLookup:
        """Locate the query's probed buckets: :meth:`lookup_batch` of one row."""
        self._require_built()
        query = check_vector(query, dim=self.dim, name="query")
        return self.lookup_batch(query[None, :])[0]

    def lookup_batch(self, queries: np.ndarray) -> list[FrozenQueryLookup]:
        """Locate many queries' probed buckets: fused hash pass + searchsorted.

        One binary search covers every probe slot of every query in the
        batch (the multi-probe layout's ``1 + P`` slots per table
        included).
        """
        self._require_built()
        queries = check_matrix(queries, dim=self.dim, name="queries")
        all_rows = self._batched.hash_points(queries)  # (q, L, k)
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
        locate` mixed for ``slot_rows`` — one binary search per run, a
        second over its verified hits.  ``positions`` may hold -1 in
        place of slots an adaptive probe budget trimmed away
        (:meth:`lookup_batch_adaptive`, never beside a live run); the
        vectorised occupancy pass — ``#collisions`` and the largest
        probed bucket, Equation (1)'s exact bounds on ``candSize`` —
        simply skips them, exactly like empty buckets.
        """
        overflow = None
        if runs:
            slot_tables = self._slot_table_ids
            order, needles = frozen.needles(slot_rows, slot_tables)
            overflow = np.stack(  # (G, 2, q, S)
                [run.probe(order, needles, slot_rows, slot_tables) for run in runs]
            )
        collisions, largest = _slot_occupancy(frozen, positions, overflow)
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

    def lookup_batch_adaptive(
        self,
        queries: np.ndarray,
        target_candidates: int,
        min_probes: int = 0,
    ) -> tuple[list[FrozenQueryLookup], np.ndarray, np.ndarray]:
        """Per-query probe budgets: stop probing once the estimate suffices.

        Resolves the full probe fan-out (the slot resolution is one
        binary search regardless), then merges each query's
        bucket sketches *ring by ring* — ring ``j`` holds probe ``j`` of
        every table; ring 0 is the home buckets — and keeps, per query,
        only the rings up to the first prefix whose merged HLL estimate
        reaches ``target_candidates``.  Register maxima are associative,
        so the ring-``j`` prefix registers are bit-identical to merging
        the first ``1 + j`` probes outright; with ``min_probes`` covering
        every ring the result is bit-identical to :meth:`lookup_batch`.

        Returns ``(lookups, probes_used, estimates)``: the (possibly
        trimmed) lookups, the stopping ring per query (int64), and the
        merged estimate of each query's kept candidate set (float64, the
        exact value :meth:`merged_estimates_batch` would report for the
        returned lookups).
        """
        self._require_sketches()
        queries = check_matrix(queries, dim=self.dim, name="queries")
        all_rows = self._batched.hash_points(queries)  # (q, L, k)
        q = all_rows.shape[0]
        rings = self.num_slots // self.num_tables
        frozen, runs = self._snapshot()
        slot_rows = self._slot_rows(all_rows)  # (q, S, k)
        positions = frozen.locate(slot_rows, self._slot_table_ids)  # (q, S)
        if q == 0 or rings == 1 or runs:
            # The ring walk below merges frozen sketches only, so beside
            # a live overflow run probe the full fan-out (bit-identical
            # to the fixed path) until the next re-freeze folds it.
            # Single-ring layouts (plain, covering) have nothing to trim.
            lookups = self._finish_lookup_batch(
                all_rows, slot_rows, positions, frozen, runs
            )
            probes = np.full(q, rings - 1, dtype=np.int64)
            return lookups, probes, self.merged_estimates_batch(lookups)
        num_tables = self.num_tables
        # Pseudo-query trick: ring j of query i becomes row
        # ``i * rings + j`` of a ``(q * rings, L)`` bucket matrix, so one
        # vectorised register merge yields every ring's registers at
        # once; a cumulative max over the ring axis then gives every
        # probe-prefix's merged registers.
        ring_mat = (
            positions.reshape(q, num_tables, rings)
            .transpose(0, 2, 1)
            .reshape(q * rings, num_tables)
        )
        ring_regs = self._registers_for_bucket_matrix(frozen, ring_mat)
        prefix = np.maximum.accumulate(ring_regs.reshape(q, rings, -1), axis=1)
        estimates = estimates_from_registers(
            prefix.reshape(q * rings, -1)
        ).reshape(q, rings)
        reached = estimates >= float(target_candidates)
        min_ring = min(max(int(min_probes), 0), rings - 1)
        if min_ring:
            reached[:, :min_ring] = False
        stop = np.where(
            reached.any(axis=1), reached.argmax(axis=1), rings - 1
        ).astype(np.int64)
        slot_rings = np.tile(np.arange(rings), num_tables)  # ring of each slot
        trimmed = np.where(slot_rings[None, :] <= stop[:, None], positions, -1)
        lookups = self._finish_lookup_batch(all_rows, slot_rows, trimmed, frozen, ())
        return lookups, stop, estimates[np.arange(q), stop]

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
        m = 1 << self.hll_precision
        regs = np.zeros(m, dtype=np.uint8)
        found = lookup.found_buckets()
        srows = frozen.sketch_rows[found]
        sketched = srows[srows >= 0]
        if sketched.size:
            np.maximum.reduce(frozen.registers[sketched], axis=0, out=regs)
        # Lazy small buckets and overflow entries alike feed their raw
        # ids into the merged registers (maxima over per-id hash pairs).
        lazy = found[srows < 0]
        ids = frozen.gather_members(lazy) if lazy.size else lazy
        if lookup.overflow is not None:
            ids = np.concatenate([ids, *_overflow_ids([lookup])[0]])
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
        one row per ``(query, probe ring)`` pair.  ``overflow`` lists,
        per live run, the ids each row hit there
        (:func:`_overflow_members_by_row`): they fold in exactly like
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
        srows = frozen.sketch_rows[buckets]
        sketched = srows >= 0
        if sketched.any():
            rows = qi[sketched]
            stacked = frozen.registers[srows[sketched]]
            # Row-major np.nonzero keeps `rows` sorted, so segments of
            # equal query index are contiguous: one reduceat merges each
            # query's sketched buckets.
            seg_starts = np.flatnonzero(np.diff(rows, prepend=-1))
            seg_max = np.maximum.reduceat(stacked, seg_starts, axis=0)
            registers[rows[seg_starts]] = seg_max
        lazy = ~sketched
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
        if dedup is None:
            dedup = self.dedup
        elif dedup not in ("scalar", "vectorized"):
            raise ConfigurationError(
                f'dedup must be "scalar" or "vectorized", got {dedup!r}'
            )
        return self._bitmap_union(lookup, _overflow_ids([lookup])[0], dedup)

    def _bitmap_union(
        self, lookup: FrozenQueryLookup, run_ids: list[np.ndarray], dedup: str
    ) -> np.ndarray:
        """:meth:`candidate_ids` given the row's ids in each live run."""
        frozen, found = lookup._frozen, lookup.found_buckets()
        starts = frozen.offsets[found]
        stops = (starts + frozen.sizes[found]).tolist()
        parts = [frozen.members[a:b] for a, b in zip(starts.tolist(), stops)]
        parts += run_ids
        seen = np.zeros(self.n, dtype=bool)
        if dedup == "vectorized":
            # One boolean scatter over the concatenated zero-copy member
            # slices; members are stored in native index dtype (intp) so
            # the scatter pays no per-query index conversion.
            if parts:
                seen[np.concatenate(parts)] = True
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
        collisions share one :func:`_sorted_union` instead of ~``L``
        slices and an ``n``-bitmap each; larger rows (and a lone small
        one) keep the bitmap, which wins past that crossover.
        """
        self._require_built()
        if dedup is None:
            dedup = self.dedup
        if dedup == "scalar" or len(lookups) <= 1:
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
        alone = [g for g in range(len(distinct)) if g not in unions]
        for g, run_ids in zip(alone, _overflow_ids([distinct[g] for g in alone])):
            unions[g] = self._bitmap_union(distinct[g], run_ids, dedup)
        return [unions[group] for group in inverse]

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    @property
    def sketch_memory_bytes(self) -> int:
        """Register bytes (overflow runs hold ids only, no sketches)."""
        return int(self.frozen.registers.nbytes)

    def memory_report(self) -> dict[str, int]:
        self._require_built()
        frozen, runs = self._snapshot()
        report = frozen.memory_bytes
        for run in runs:
            report["bucket_ids"] += int(run.members.nbytes)
            report["bucket_keys"] += int(run.key64.nbytes) + int(run.rows.nbytes)
        report["points"] = int(self.points.nbytes)
        report["total"] = sum(
            report[k] for k in ("points", "bucket_ids", "bucket_keys", "sketches")
        )
        return report

    def bucket_statistics(self) -> dict[str, float]:
        self._require_built()
        frozen, runs = self._snapshot()
        # A run's logical buckets are its distinct addresses.
        all_sizes = np.concatenate(
            [frozen.sizes, *(np.unique(run.key64, return_counts=True)[1] for run in runs)]
        )
        sketched = int(np.count_nonzero(frozen.sketch_rows >= 0))
        return {
            "tables": float(self.num_tables),
            "buckets": float(all_sizes.size),
            "mean_size": float(all_sizes.mean()),
            "max_size": float(all_sizes.max()),
            "sketched_fraction": sketched / all_sizes.size,
        }

    def __repr__(self) -> str:
        built = f"n={self.n}" if self.is_built else "unbuilt"
        return (
            f"{type(self).__name__}(family={type(self.family).__name__}, "
            f"k={self.k}, L={self.num_tables}, {built}, "
            f"overflow={self.overflow_count})"
        )


# ----------------------------------------------------------------------
# Persistence: a directory of plain .npy files, mmap-loadable
# ----------------------------------------------------------------------

#: The bucket arrays of a saved index, per format version ("points"
#: rides along in both).
_TABLE_FILES = {
    1: ("keys_raw", "table_slices", "offsets", "sizes", "members"),
    2: (
        "key64",
        "keys",
        "table_slices",
        "offsets",
        "sizes",
        "members",
        "sketch_rows",
        "registers",
    ),
}


def save_frozen_index(index: FrozenLSHIndex, path: str) -> None:
    """Persist a frozen index under directory ``path`` (plain ``.npy`` files).

    Any live overflow run is compacted first (:meth:`refreeze`), so
    the artifact is pure CSR arrays.  Every array lands in its own
    uncompressed ``.npy`` file — unlike ``.npz`` members these can be
    reopened with ``np.load(..., mmap_mode="r")``, which is what makes
    :func:`load_frozen_index` zero-copy.
    """
    if not isinstance(index, FrozenLSHIndex):
        raise ConfigurationError(
            f"save_frozen_index persists FrozenLSHIndex objects, "
            f"got {type(index).__name__}"
        )
    index._require_built()
    config = {
        "format_version": _FROZEN_FORMAT_VERSION,
        "layout": "frozen",
        "variant": index.variant,
        "num_tables": index.num_tables,
        "hll_precision": index.hll_precision,
        "hll_seed": index.hll_seed,
        "lazy_threshold": index.lazy_threshold,
        "with_sketches": index.with_sketches,
        "dedup": index.dedup,
        "dim": index.dim,
        "refreeze_threshold": index.refreeze_threshold,
    }
    if index.variant == "covering":
        # No hash kernel to persist: the block permutation *is* the
        # hash, and it is plain JSON.
        batched = None
        config["radius"] = index.radius
        config["blocks"] = [block.tolist() for block in index._blocks]
    else:
        batched = index._batched
        if batched.params is None or batched.kind == "generic":
            raise ConfigurationError(
                "index family does not expose serialisable kernel parameters "
                f"(kind={batched.kind!r}); only built-in families are supported"
            )
        config["k"] = index.k
        config["family"] = batched.kind
        config["kernel_params"] = sorted(batched.params)
        if batched.kind == "pstable":
            config["p"] = index.family.p
            config["w"] = index.family.w
        if index.variant == "multiprobe":
            config["num_probes"] = index.num_probes
    index.refreeze()
    frozen = index.frozen
    config["key_salt"] = frozen.salt
    arrays = {"points": index.points}
    arrays.update((name, getattr(frozen, name)) for name in _TABLE_FILES[2])
    if batched is not None:
        for name, array in batched.params.items():
            arrays[f"kernel_{name}"] = array
    # Stage the whole artifact in a sibling temp directory, fsync every
    # file, then swap it in with one rename pair (utils.fsio): a crash
    # mid-save leaves the previous artifact intact instead of a mixture
    # of old and new arrays.  A re-saved index may hold arrays that are
    # memory-mapped from the files being replaced (open -> save back to
    # the same path); the retired directory's inodes stay valid for
    # those mappings until they close, while fresh opens only ever see
    # a complete directory.
    staged = staging_path(path)
    shutil.rmtree(staged, ignore_errors=True)
    os.makedirs(staged)
    try:
        for name, array in arrays.items():
            with open(os.path.join(staged, f"{name}.npy"), "wb") as fh:
                np.save(fh, np.ascontiguousarray(array))
                fh.flush()
                os.fsync(fh.fileno())
        write_json_atomic(os.path.join(staged, _CONFIG_FILE), config)
        commit_dir(staged, path)
    except BaseException:
        shutil.rmtree(staged, ignore_errors=True)
        raise


def _checked_tables(
    arrays: dict[str, np.ndarray], config: dict, row_width: int, path: str
) -> FrozenTables:
    """The format-v2 bucket arrays as :class:`FrozenTables`, validated.

    Checks every invariant :meth:`FrozenTables.locate` and the CSR
    gathers index by — dtypes, shapes, ``key64`` strictly increasing
    with each table's tag inside its slice (and, spot-checked, the
    address of ``keys`` under the persisted salt), offsets consistent
    with sizes and members — so a damaged artifact fails here, typed,
    and never as an ``IndexError`` or a silent miss on some later query.
    """

    def corrupt(what: str) -> CorruptArtifactError:
        return CorruptArtifactError(
            f"frozen index at {path!r}: {what}; the artifact is truncated or corrupt"
        )

    num_tables, salt = config["num_tables"], config["key_salt"]
    if not (isinstance(num_tables, int) and num_tables >= 1):
        raise corrupt(f"num_tables is {num_tables!r}")
    if not (isinstance(salt, int) and salt >= 0):
        raise corrupt(f"key_salt is {salt!r}")
    layout = {
        "key64": ("uint64", 1),
        "keys": ("integer", 2),
        "table_slices": ("int64", 1),
        "offsets": ("int64", 1),
        "sizes": ("int64", 1),
        "members": ("integer", 1),
        "sketch_rows": ("int64", 1),
        "registers": ("uint8", 2),
    }
    for name, (dtype, ndim) in layout.items():
        array = arrays[name]
        right_dtype = (
            array.dtype.kind in "iu" if dtype == "integer" else array.dtype == dtype
        )
        if not right_dtype or array.ndim != ndim:
            raise corrupt(
                f"{name}.npy is {array.ndim}-d {array.dtype}, expected {ndim}-d {dtype}"
            )
    key64, slices = arrays["key64"], arrays["table_slices"]
    offsets, sizes = arrays["offsets"], arrays["sizes"]
    sketch_rows, registers = arrays["sketch_rows"], arrays["registers"]
    buckets = key64.size
    if (
        slices.shape != (num_tables + 1,)
        or slices[0] != 0
        or slices[-1] != buckets
        or (np.diff(slices) < 0).any()
    ):
        raise corrupt(
            f"table_slices must rise from 0 to the {buckets} buckets in "
            f"{num_tables + 1} steps"
        )
    if not (key64[1:] > key64[:-1]).all():
        raise corrupt("key64 is not strictly increasing")
    tag_bits = (num_tables - 1).bit_length()
    tags = key64 >> np.uint64(64 - tag_bits) if tag_bits else np.zeros_like(key64)
    if not np.array_equal(tags, np.repeat(np.arange(num_tables), np.diff(slices))):
        raise corrupt("key64 carries another table's tag inside a table's slice")
    if arrays["keys"].shape != (buckets, row_width):
        raise corrupt(
            f"keys.npy has shape {arrays['keys'].shape}, expected "
            f"{(buckets, row_width)}"
        )
    # Re-mixing every row would page the whole of keys in; each table's
    # first bucket is enough to catch a wrong salt or a foreign keys.npy.
    probe = slices[:-1][np.diff(slices) > 0]
    readdressed = _tagged_key64(
        arrays["keys"][probe], tags[probe], num_tables, salt
    )
    if not np.array_equal(readdressed, key64[probe]):
        raise corrupt(f"key64 is not the address of keys under key_salt {salt}")
    if (
        offsets.shape != (buckets + 1,)
        or sizes.shape != (buckets,)
        or offsets[0] != 0
        or offsets[-1] != arrays["members"].size
        or (sizes < 0).any()
        or not np.array_equal(np.diff(offsets), sizes)
    ):
        raise corrupt("offsets, sizes and members do not describe one CSR structure")
    if (
        sketch_rows.shape != (buckets,)
        or registers.shape[1] != 1 << config["hll_precision"]
        or (sketch_rows < -1).any()
        or (sketch_rows >= registers.shape[0]).any()
    ):
        raise corrupt("sketch_rows points outside the register matrix")
    return FrozenTables(
        num_tables=num_tables,
        salt=salt,
        **{name: arrays[name] for name in _TABLE_FILES[2]},
    )


def _tables_from_v1(
    arrays: dict[str, np.ndarray], index: FrozenLSHIndex, path: str
) -> FrozenTables:
    """Format-v1 bucket arrays -> today's tables, re-assembled in memory.

    v1 stored each bucket's key as ``keys_raw``'s row of little-endian
    int64 bytes, sorted bytewise within its table.  The rows are sliced
    back into per-table source triples and go through
    :meth:`FrozenTables.assemble` like a fresh freeze (which also
    rebuilds the registers), so there is no second lookup path; the
    next save writes v2.
    """
    try:
        bounds = arrays["table_slices"].tolist()
        offsets = arrays["offsets"].tolist()
        rows = arrays["keys_raw"].view("<i8")
        per_table = [
            (
                rows[lo:hi],
                arrays["sizes"][lo:hi],
                arrays["members"][offsets[lo] : offsets[hi]],
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        if len(per_table) != index.num_tables or rows.shape[1] != index.row_width:
            raise ValueError(
                f"{len(per_table)} tables of {rows.shape[1]}-value keys, expected "
                f"{index.num_tables} of {index.row_width}"
            )
        return FrozenTables.assemble(
            per_table,
            index._hll_hashes,
            index._effective_lazy_threshold,
            index.hll_precision,
        )
    except (ValueError, IndexError, TypeError) as exc:
        raise CorruptArtifactError(
            f"frozen index at {path!r} (format v1) does not re-assemble ({exc}); "
            "the artifact is truncated or corrupt"
        ) from exc


def _rebuild_family_and_kernel(config: dict, params: dict[str, np.ndarray], dim: int):
    """Reconstruct the family object and fused kernel from stored arrays."""
    name = config["family"]
    if name == "pstable":
        projections = params["projections"]
        offsets = params["offsets"]
        w = float(config["w"])
        family = PStableLSH(dim, w=w, p=config["p"])

        def fused(points: np.ndarray) -> np.ndarray:
            shifted = np.asarray(points, dtype=np.float64) @ projections + offsets
            return np.floor(shifted / w).astype(np.int64)

        return family, fused
    if name == "simhash":
        planes = params["planes"]
        family = SimHashLSH(dim)

        def fused(points: np.ndarray) -> np.ndarray:
            return (np.asarray(points, dtype=np.float64) @ planes > 0.0).astype(np.int64)

        return family, fused
    if name == "bit_sampling":
        coords = params["coords"].astype(np.int64)
        family = BitSamplingLSH(dim)

        def fused(points: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(points[:, coords], dtype=np.int64)

        return family, fused
    if name == "minhash":
        priorities = params["priorities"].astype(np.int64)
        family = MinHashLSH(dim)

        def fused(points: np.ndarray) -> np.ndarray:
            present = np.asarray(points).astype(bool)
            n = present.shape[0]
            values = np.empty((n, priorities.shape[0]), dtype=np.int64)
            for j in range(priorities.shape[0]):
                masked = np.where(present, priorities[j][None, :], _ABSENT)
                values[:, j] = masked.min(axis=1)
            return values

        return family, fused
    raise ConfigurationError(f"unknown family in index file: {name!r}")


def load_frozen_index(path: str, mmap_mode: str | None = "r") -> FrozenLSHIndex:
    """Reopen a frozen index saved by :func:`save_frozen_index`.

    All bucket arrays (and the data matrix) come back memory-mapped
    with the default ``mmap_mode="r"`` — as plain-ndarray views of the
    mappings — with no bucket reconstruction, no rehashing and answers
    bit-identical to the saved instance.  Pass
    ``mmap_mode=None`` to materialise everything in RAM instead.  The
    bucket arrays are validated on the way in (:func:`_checked_tables`).
    A format-v1 artifact opens too, with its tables re-assembled in
    memory (:func:`_tables_from_v1`; only ``points`` stays mapped).
    """
    config_path = os.path.join(path, _CONFIG_FILE)
    if not os.path.exists(config_path):
        raise ConfigurationError(
            f"no frozen index at {path!r} (missing {_CONFIG_FILE})"
        )
    with open(config_path) as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:
            raise CorruptArtifactError(
                f"frozen index config {config_path!r} is not valid JSON "
                f"({exc}); the artifact is truncated or corrupt"
            ) from exc
    if not isinstance(config, dict):
        raise CorruptArtifactError(
            f"frozen index config {config_path!r} must hold a JSON object, "
            f"got {type(config).__name__}"
        )
    version = config.get("format_version")
    if version not in _TABLE_FILES:
        raise ConfigurationError(f"unsupported frozen index version: {version!r}")
    variant = config.get("variant", "plain")
    required = {
        "num_tables", "hll_precision", "hll_seed", "lazy_threshold",
        "with_sketches", "dedup", "dim",
    }
    required |= (
        {"radius", "blocks"}
        if variant == "covering"
        else {"k", "family", "kernel_params"}
    )
    if version == 2:
        required.add("key_salt")
    missing_keys = sorted(required - set(config))
    if missing_keys:
        raise CorruptArtifactError(
            f"frozen index config {config_path!r} is missing keys "
            f"{missing_keys}; the artifact is truncated or corrupt"
        )

    def _load_array(name: str) -> np.ndarray:
        # Handed on as a plain-ndarray *view* of the mapping (its
        # ``.base``): file-backed and zero-copy all the same, but the
        # query path's takes, slices and ufuncs pay no ``np.memmap``
        # subclass hooks (``__getitem__`` / ``__array_finalize__``).
        target = os.path.join(path, f"{name}.npy")
        try:
            return np.asarray(np.load(target, mmap_mode=mmap_mode, allow_pickle=False))
        except FileNotFoundError as exc:
            raise CorruptArtifactError(
                f"frozen index at {path!r} is missing {name}.npy; "
                "the artifact is incomplete"
            ) from exc
        except (ValueError, OSError, EOFError) as exc:
            raise CorruptArtifactError(
                f"frozen index array {target!r} is unreadable ({exc}); "
                "the artifact is truncated or corrupt"
            ) from exc

    arrays = {name: _load_array(name) for name in ("points",) + _TABLE_FILES[version]}
    common = dict(
        points=arrays["points"],
        hll_precision=config["hll_precision"],
        hll_seed=config["hll_seed"],
        lazy_threshold=config["lazy_threshold"],
        with_sketches=config["with_sketches"],
        dedup=config["dedup"],
        refreeze_threshold=config.get("refreeze_threshold"),
    )
    if variant == "covering":
        from repro.index.frozen_probing import FrozenCoveringLSHIndex

        build = functools.partial(
            FrozenCoveringLSHIndex.from_state,
            dim=config["dim"],
            radius=config["radius"],
            blocks=config["blocks"],
            **common,
        )
        row_width = max(len(block) for block in config["blocks"])
    else:
        kernel_params = {
            name: _load_array(f"kernel_{name}") for name in config["kernel_params"]
        }
        dim = config["dim"]
        family, fused = _rebuild_family_and_kernel(config, kernel_params, dim)
        batched = BatchedHash(
            fused,
            k=config["k"],
            num_tables=config["num_tables"],
            dim=dim,
            kind=config["family"],
            params=kernel_params,
        )
        state_kwargs = dict(
            family=family,
            batched=batched,
            k=config["k"],
            num_tables=config["num_tables"],
            **common,
        )
        if variant == "multiprobe":
            from repro.index.frozen_probing import FrozenMultiProbeLSHIndex

            build = functools.partial(
                FrozenMultiProbeLSHIndex.from_state,
                num_probes=config["num_probes"],
                **state_kwargs,
            )
        else:
            build = functools.partial(FrozenLSHIndex.from_state, **state_kwargs)
        row_width = config["k"]
    if version == 2:
        return build(frozen=_checked_tables(arrays, config, row_width, path))
    # v1: the index first (it owns the HLL hashes assembly needs), then
    # its tables.
    index = build(frozen=None)
    index.frozen = _tables_from_v1(arrays, index, path)
    return index
