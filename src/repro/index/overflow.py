"""Overflow generations of the frozen layout: one immutable sorted run each.

A frozen index absorbs :meth:`~repro.index.frozen.FrozenLSHIndex.insert`
without touching its CSR arrays: the points inserted since the last
re-freeze live in an :class:`OverflowRun` — one *entry* per (inserted
point, table), in plain arrays, probed by the binary search the frozen
buckets are.

**Addressing.**  An entry's ``key64`` is its hash row's bucket address
under the frozen arrays' own salt
(:meth:`~repro.index.frozen.FrozenTables.addresses`), so the needles a
lookup mixed for the frozen arrays probe every run as they are.
``key64`` is sorted, equal addresses in insertion order; ``members``
holds the entries' point ids; ``rows`` keeps each point's ``L`` padded
hash rows once, in the narrowest integer dtype — to verify address
hits, to re-key the run, and for the fold.  Ids are ``uint32``, like the
frozen arrays' members.  A generation's ids are
consecutive from ``first_id``, so entry ``e`` of table ``t`` carries
the row ``rows[members[e] - first_id, t]``.

**Copy-on-write.**  A run is never mutated: :meth:`OverflowRun.extended`
sorts the ``m * L`` new addresses and merges them into a *new* run
(``searchsorted(side="right")`` + masked block copies), which the index
publishes together with the grown point matrix in one swap under its
re-freeze lock — a reader's snapshot holds whole inserts or none.

**The collision rule.**  A hit range is verified with *one* row compare,
on its first entry.  That is exact because a published run never holds
two different rows of one table under one address: ``extended`` checks
every new entry landing behind an equal address against its
predecessor's row (the entries before it already agree pairwise) and
reports the run unclean if they differ — the index then folds inline
instead of publishing, and ``FrozenTables.assemble`` re-salts.  An
entry sharing an address with a different *frozen* row needs no rule:
each side rejects the other's probe by its own row compare.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["OverflowRun"]


def _narrowest_int_dtype(values: np.ndarray) -> np.dtype:
    """The smallest signed integer dtype that holds every entry of ``values``."""
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _csr_gather(
    members: np.ndarray, starts: np.ndarray, lens: np.ndarray
) -> np.ndarray:
    """Concatenate ``members[starts[i] : starts[i] + lens[i]]`` slices."""
    ends = np.cumsum(lens)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, dtype=members.dtype)
    # Entry j of slice i lands at output position ends[i] - lens[i] + j.
    idx = np.repeat(starts - (ends - lens), lens)
    idx += np.arange(total)
    return members.take(idx)


@dataclasses.dataclass(slots=True, eq=False, repr=False)
class OverflowRun:
    """The points of one overflow generation, addressed like frozen buckets.

    ``key64`` / ``members`` hold ``count * L`` entries sorted by address;
    ``rows`` is the ``(count, L, w)`` tensor of the points' hash rows.
    ``salt`` names the mix ``key64`` was computed under — a run is only
    ever probed beside frozen arrays of the same salt.
    """

    salt: int
    first_id: int
    key64: np.ndarray
    members: np.ndarray
    rows: np.ndarray

    @classmethod
    def empty(cls, salt: int, first_id: int, num_tables: int, width: int) -> OverflowRun:
        """The run before its first insert (never published as such)."""
        return cls(
            salt=salt,
            first_id=first_id,
            key64=np.empty(0, dtype=np.uint64),
            members=np.empty(0, dtype=np.uint32),
            rows=np.empty((0, num_tables, width), dtype=np.int8),
        )

    @property
    def count(self) -> int:
        """Points in the run."""
        return int(self.rows.shape[0])

    def extended(
        self, addresses: np.ndarray, rows: np.ndarray
    ) -> tuple[OverflowRun, bool]:
        """This run plus ``m`` more points, and whether it may be published.

        ``addresses`` is the ``(m, L)`` matrix of the new points' bucket
        addresses under :attr:`salt`, ``rows`` their ``(m, L, w)`` hash
        rows.  The flag is False when two different rows of a table now
        share an address (the collision rule): fold it, never probe it.
        """
        num_tables = addresses.shape[1]
        order = np.argsort(addresses, axis=None, kind="stable")
        new_key64 = addresses.ravel()[order]
        # Point-major ravel + stable sort: equal addresses stay in id order.
        point, table = np.divmod(order, num_tables)
        at = self.key64.searchsorted(new_key64, side="right")
        dest = at + np.arange(order.size)
        total = self.key64.size + order.size
        kept = np.ones(total, dtype=bool)
        kept[dest] = False
        key64 = np.empty(total, dtype=np.uint64)
        key64[dest] = new_key64
        key64[kept] = self.key64
        members = np.empty(total, dtype=np.uint32)
        members[dest] = self.first_id + self.count + point
        members[kept] = self.members
        all_rows = np.concatenate([self.rows, rows.astype(_narrowest_int_dtype(rows))])
        behind = np.flatnonzero((dest > 0) & (key64[dest] == key64[dest - 1]))
        ahead = all_rows[members[dest[behind] - 1] - self.first_id, table[behind]]
        clean = bool((ahead == rows[point[behind], table[behind]]).all())
        run = OverflowRun(self.salt, self.first_id, key64, members, all_rows)
        return run, clean

    def probe(
        self,
        order: np.ndarray,
        needles: np.ndarray,
        slot_rows: np.ndarray,
        slot_tables: np.ndarray,
    ) -> np.ndarray:
        """Entry ranges of a query batch's probes: ``(2, q, S)`` ``[lo, hi)``.

        ``(order, needles)`` are the sorted addresses of the ``(q, S,
        w)`` probed rows (:meth:`~repro.index.frozen.FrozenTables.
        needles`; ``order`` ``None``: already in slot order), slot ``s``
        probing table ``slot_tables[s]``.  One
        binary search finds each needle's first entry, a second — over
        the verified hits only — its range end; a miss, and an address
        hit whose stored row differs from the probed one, is ``(0, 0)``.
        """
        q, num_slots, width = slot_rows.shape
        lo = self.key64.searchsorted(needles)
        hit = (self.key64.take(lo, mode="clip") == needles).nonzero()[0]
        ranges = np.zeros((2, q * num_slots), dtype=np.int64)
        if hit.size:
            lo, slots = lo.take(hit), hit if order is None else order.take(hit)
            stored = self.rows[
                self.members.take(lo) - self.first_id, slot_tables.take(slots % num_slots)
            ]
            wrong = stored != slot_rows.reshape(-1, width).take(slots, axis=0)
            if wrong.any():  # the address of another row (a frozen one's, say)
                same = ~wrong.any(axis=1)
                hit, lo, slots = hit[same], lo[same], slots[same]
            ranges[0, slots] = lo
            ranges[1, slots] = self.key64.searchsorted(needles.take(hit), side="right")
        return ranges.reshape(2, q, num_slots)

    def table_source(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Table ``t``'s entries as an ``assemble`` source triple.

        One single-member bucket per inserted point, in insertion order
        — the dict layout's append order once ``assemble`` has merged
        equal rows behind the frozen buckets.
        """
        count = self.count
        return (
            self.rows[:, t],
            np.ones(count, dtype=np.int64),
            np.arange(self.first_id, self.first_id + count, dtype=np.uint32),
        )

    def __repr__(self) -> str:
        return (
            f"OverflowRun(points={self.count}, entries={self.key64.size}, "
            f"first_id={self.first_id}, salt={self.salt})"
        )
