"""Overflow generations of the frozen layout: one immutable sorted run each.

A frozen index absorbs :meth:`~repro.index.frozen.FrozenLSHIndex.insert`
without touching its CSR arrays: the points inserted since the last
re-freeze live in an :class:`OverflowRun` — one *entry* per (inserted
point, table), in plain arrays, probed by the binary search the frozen
buckets are.

**Addressing.**  An entry's ``key64`` is its hash row's bucket address
under the frozen arrays' salt
(:meth:`~repro.index.frozen.FrozenTables.addresses`), so the needles a
lookup mixed for the frozen arrays probe every run as they are.  The
salt is fixed at the build, so an entry keeps its address through every
fold.  ``key64`` is sorted, equal addresses in insertion order;
``members`` holds the entries' point ids (``uint32``, like the frozen
arrays' members), consecutive from ``first_id`` within a generation.
No hash row is kept: an address hit is a hit, and an entry whose row
merely aliases the probed row's address adds a candidate that Step S3's
exact distance test judges (the contract in
:mod:`repro.index.frozen.tables`).  A fold merges the entries into the
frozen arrays on ``key64`` alone
(:meth:`~repro.index.frozen.FrozenTables.folded`).

**Copy-on-write.**  A run is never mutated: :meth:`OverflowRun.extended`
sorts the ``m * L`` new addresses and merges them into a *new* run
(``searchsorted(side="right")`` + masked block copies), which the index
publishes together with the grown point matrix in one swap under its
re-freeze lock — a reader's snapshot holds whole inserts or none.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["OverflowRun"]


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

    ``key64`` / ``members`` hold ``count * L`` entries sorted by address,
    for the ``count`` points ``first_id, first_id + 1, ...``.
    """

    first_id: int
    count: int
    key64: np.ndarray
    members: np.ndarray

    @classmethod
    def empty(cls, first_id: int) -> OverflowRun:
        """The run before its first insert (never published as such)."""
        return cls(
            first_id=first_id,
            count=0,
            key64=np.empty(0, dtype=np.uint64),
            members=np.empty(0, dtype=np.uint32),
        )

    def extended(self, addresses: np.ndarray) -> OverflowRun:
        """This run plus the ``m`` points whose ``(m, L)`` bucket
        addresses are given, ids following on from this run's."""
        m, num_tables = addresses.shape
        order = np.argsort(addresses, axis=None, kind="stable")
        new_key64 = addresses.ravel()[order]
        # Point-major ravel + stable sort: equal addresses stay in id order.
        at = self.key64.searchsorted(new_key64, side="right")
        dest = at + np.arange(order.size)
        total = self.key64.size + order.size
        kept = np.ones(total, dtype=bool)
        kept[dest] = False
        key64 = np.empty(total, dtype=np.uint64)
        key64[dest] = new_key64
        key64[kept] = self.key64
        members = np.empty(total, dtype=np.uint32)
        members[dest] = self.first_id + self.count + order // num_tables
        members[kept] = self.members
        return OverflowRun(self.first_id, self.count + m, key64, members)

    def probe(self, order: np.ndarray | None, needles: np.ndarray) -> np.ndarray:
        """Entry ranges of a query batch's probes: ``(2, N)`` ``[lo, hi)``.

        ``(order, needles)`` are the ``N`` sorted probe addresses of
        :meth:`~repro.index.frozen.FrozenTables.needles` (``order``
        ``None``: already in slot order); column ``i`` is slot ``i`` in
        slot order.  One binary search finds each needle's first entry,
        a second — over the hits only — its range end; a miss is
        ``(0, 0)``.
        """
        lo = self.key64.searchsorted(needles)
        hit = (self.key64.take(lo, mode="clip") == needles).nonzero()[0]
        ranges = np.zeros((2, needles.size), dtype=np.int64)
        if hit.size:
            slots = hit if order is None else order.take(hit)
            ranges[0, slots] = lo.take(hit)
            ranges[1, slots] = self.key64.searchsorted(needles.take(hit), side="right")
        return ranges

    def __repr__(self) -> str:
        return (
            f"OverflowRun(points={self.count}, entries={self.key64.size}, "
            f"first_id={self.first_id})"
        )
