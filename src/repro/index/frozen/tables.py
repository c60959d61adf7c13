"""The fused CSR arrays of a frozen index, and how buckets are addressed.

The dict layout of :class:`~repro.index.lsh_index.LSHIndex` stores one
Python :class:`~repro.index.bucket.Bucket` object per bucket, so every
query-side primitive walks Python objects.  :class:`FrozenTables` keeps
all ``L`` tables as CSR-style contiguous arrays instead:

* ``key64`` — every bucket's 64-bit *address*: the owning table's id in
  the top ``ceil(log2 L)`` bits, a salted multilinear mix of the
  bucket's hash row in the rest, one globally sorted ``uint64`` array
  (sorted by table first, because the tag is the high bits) so a lookup
  is one typed binary search for all tables at once;
* ``keys`` — the buckets' full hash rows, in the narrowest integer
  dtype that holds every stored value, kept only to *verify* a
  ``key64`` hit exactly (a mix can collide; the row cannot);
* ``offsets`` / ``members`` — ``uint32`` CSR offsets into one flat
  ``uint32`` member array holding all bucket ids back to back; a
  bucket's occupancy is ``offsets[b + 1] - offsets[b]``, read in a
  signed dtype (``#collisions`` is two gathers + a sum).  Four-byte ids
  cap an index at ``L * n < 2**32`` entries (:func:`_check_capacity`);
  a larger one is sharded.  Consumers convert a gathered id array to
  ``intp`` once before they scatter by it;
* ``registers`` — the HLL registers of every *materialised* bucket
  sketch stacked into a single ``(S, m)`` uint8 matrix, row ``i``
  belonging to bucket ``sketched[i]``: ``sketched`` holds the strictly
  increasing ``uint32`` ids of the ``S`` sketched buckets and nothing
  for a lazy small one, so a reader finds a bucket's register row with
  one ``searchsorted`` into a few-KB array (:meth:`FrozenTables.register_rows`).

Step S1 is one ``uint64`` ``searchsorted`` over the whole of ``key64``
for every table, probe and query of a batch, then one vectorised verify
of the stored rows (:meth:`FrozenTables.locate`): a probe is a hit iff
``key64`` *and* the full row match, and assembly re-salts the mix until
no two buckets of a table share a ``key64``, so answers are exactly the
dict layout's.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.exceptions import ConfigurationError
from repro.index.overflow import _csr_gather, _narrowest_int_dtype
from repro.index.table import HashTable
from repro.sketches.hyperloglog import PrecomputedHllHashes

#: ``uint32`` ids and CSR offsets: an index holds fewer (point, table)
#: entries than this.
ENTRY_LIMIT = 2**32

#: Salts tried (``salt``, ``salt + 1``, ...) before
#: :meth:`FrozenTables.assemble` gives up on a collision-free ``key64``.
MAX_SALT_ATTEMPTS = 8

_U64_MASK = (1 << 64) - 1


def _check_capacity(n: int, num_tables: int) -> None:
    """Refuse an index of ``n`` points that four-byte ids cannot address.

    Every (point, table) pair is one ``uint32`` member entry, so ``n *
    num_tables`` (and with it ``n``) must stay below
    :data:`ENTRY_LIMIT`; there is no eight-byte fallback.
    """
    if n * num_tables >= ENTRY_LIMIT:
        raise ConfigurationError(
            f"{n} points in {num_tables} tables make {n * num_tables} bucket "
            f"entries, past the {ENTRY_LIMIT} that 4-byte ids address; shard "
            "the index (IndexSpec(num_shards=...)) so each shard stays below it"
        )


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
    src_members = np.concatenate([m for _, _, m in per_table]).astype(
        np.uint32, copy=False
    )
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



@dataclasses.dataclass(slots=True, eq=False, repr=False)
class FrozenTables:
    """All ``L`` tables of a frozen index as one fused CSR structure.

    Bucket ``b`` (a *global* index across tables) owns members
    ``members[offsets[b] : offsets[b + 1]]`` (both ``uint32``; its size
    is the difference, :meth:`spans`), has the 64-bit address
    ``key64[b]`` and the full hash row ``keys[b]``; ``key64`` is
    strictly increasing, and table ``t`` owns the bucket range
    ``table_slices[t] : table_slices[t + 1]`` (the table id is the
    address's high bits).  ``salt`` selects the mix the addresses were
    computed with; :meth:`locate` must — and does — use the same one.
    Register row ``i`` is the sketch of bucket ``sketched[i]``
    (``sketched`` strictly increasing, one entry per sketched bucket).
    """

    num_tables: int
    salt: int
    key64: np.ndarray
    keys: np.ndarray
    table_slices: np.ndarray
    offsets: np.ndarray
    members: np.ndarray
    sketched: np.ndarray
    registers: np.ndarray
    #: ``(slot_rows, order, sorted addresses)`` of the latest :meth:`needles` call.
    _needles: tuple[np.ndarray, np.ndarray | None, np.ndarray] | None = None

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
        offsets = np.zeros(total_buckets + 1, dtype=np.uint32)
        offsets[1:] = np.cumsum(sizes)

        m = 1 << hll_precision
        if hll_hashes is not None:
            sketched = np.flatnonzero(sizes > lazy_threshold).astype(np.uint32)
            registers = np.zeros((sketched.size, m), dtype=np.uint8)
            if sketched.size:
                ids = _csr_gather(members, offsets[sketched], sizes[sketched]).astype(np.intp)
                sketch_of = np.repeat(np.arange(sketched.size), sizes[sketched])
                np.maximum.at(
                    registers,
                    (sketch_of, hll_hashes.registers[ids]),
                    hll_hashes.ranks[ids],
                )
        else:
            sketched = np.empty(0, dtype=np.uint32)
            registers = np.zeros((0, m), dtype=np.uint8)
        return cls(
            num_tables=num_tables,
            salt=salt,
            key64=key64,
            keys=keys,
            table_slices=table_slices,
            offsets=offsets,
            members=members,
            sketched=sketched,
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
                np.empty(0, dtype=np.int64),
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
        members = np.concatenate([bucket.ids for bucket in buckets])
        return rows, sizes, members

    def table_source(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Table ``t``'s buckets as an :meth:`assemble` source triple (a
        re-freeze puts the overflow run's behind it; :meth:`assemble`
        picks the merged rows' narrowest dtype afresh)."""
        lo, hi = int(self.table_slices[t]), int(self.table_slices[t + 1])
        seg_start, seg_stop = int(self.offsets[lo]), int(self.offsets[hi])
        sizes = np.diff(self.offsets[lo : hi + 1].astype(np.int64))
        return self.keys[lo:hi], sizes, self.members[seg_start:seg_stop]

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
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """A lookup's probes as search needles: ``(order, sorted addresses)``.

        ``order[i]`` is the flat ``(query, slot)`` index of the ``i``-th
        smallest address.  Sorted needles let a binary search walk its
        array front to back (3x faster than unsorted ones).  A lone row
        with one slot per table (the plain and covering layouts) is
        sorted already — the table tag is the top bits — so it skips the
        sort, and ``order`` is ``None``: the identity.  The latest
        result is kept, keyed by the identity of ``slot_rows``, so the
        overflow probes of a lookup reuse what its :meth:`locate` mixed
        and sorted; a racing lookup on another thread only re-mixes.
        """
        latest = self._needles
        if latest is not None and latest[0] is slot_rows:
            return latest[1], latest[2]
        flat = self.addresses(slot_rows, slot_tables).ravel()
        if flat.size == self.num_tables and slot_rows.shape[0] == 1:
            order, needles = None, flat
        else:
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
            hit = (self.key64.take(pos, mode="clip") == needles).nonzero()[0]
            pos, slots = pos.take(hit), hit if order is None else order.take(hit)
            wrong = self.keys.take(pos, axis=0) != slot_rows.reshape(-1, width).take(
                slots, axis=0
            )
            if wrong.any():  # same address, different row: a key64 collision
                same = ~wrong.any(axis=1)
                pos, slots = pos[same], slots[same]
            positions[slots] = pos
        return positions.reshape(q, num_slots)

    def spans(self, buckets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(first entry, int64 size)`` of each global bucket in ``buckets``.

        Any shape; a -1 (no bucket) reads as the empty span at 0, since
        ``offsets[0]`` is 0 on both sides of the difference.
        """
        starts = self.offsets.take(buckets, mode="clip")
        # uint32 offsets never decrease, so the unsigned difference is exact.
        return starts, (self.offsets.take(buckets + 1) - starts).astype(np.int64)

    def gather_members(self, bucket_idx: np.ndarray) -> np.ndarray:
        """Concatenated member ids of the given global buckets (``uint32``)."""
        return _csr_gather(self.members, *self.spans(bucket_idx))

    def register_rows(self, buckets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(has_sketch, rows)`` of the non-negative global bucket ids in
        ``buckets``: whether each owns a register row, and that row
        (meaningless where it does not — a lazy bucket).

        One ``searchsorted`` into ``sketched`` — a few KB, however many
        buckets the index holds — so no per-bucket map is stored.
        """
        sketched = self.sketched
        if not sketched.size:
            return np.zeros(buckets.shape, dtype=bool), np.zeros(buckets.shape, dtype=np.intp)
        rows = sketched.searchsorted(buckets)
        return sketched.take(rows, mode="clip") == buckets, rows

    @property
    def num_buckets(self) -> int:
        return int(self.table_slices[-1])

    @property
    def memory_bytes(self) -> dict[str, int]:
        """Bytes of every array, by role (the ids, the addressing, the sketches)."""
        return {
            "bucket_ids": int(self.members.nbytes),
            "bucket_keys": sum(
                int(a.nbytes)
                for a in (self.key64, self.keys, self.offsets, self.table_slices)
            ),
            "sketches": int(self.registers.nbytes) + int(self.sketched.nbytes),
        }

    def __repr__(self) -> str:
        return (
            f"FrozenTables(L={self.num_tables}, buckets={self.num_buckets}, "
            f"members={self.members.size}, sketched={self.registers.shape[0]})"
        )
