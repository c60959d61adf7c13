"""Frozen CSR layouts for the probing index variants (multi-probe, covering).

PR 3's frozen layout compacted the plain :class:`~repro.index.lsh_index.LSHIndex`
into contiguous CSR arrays; this module extends the same compaction to
the two probing variants the paper's conclusion singles out:

* :class:`FrozenMultiProbeLSHIndex` — the tables are byte-identical to
  the plain layout's (multi-probe changes *queries*, not construction),
  so only the lookup differs: every query probes ``1 + P`` buckets per
  table.  The probe hash rows are generated for the whole batch with
  one vectorised XOR (binary families) or add (p-stable offsets) over
  the ``(q, L, k)`` hash tensor, and all ``q * L * (1 + P)`` bucket
  addresses resolve with one binary search plus one vectorised verify
  (:meth:`~repro.index.frozen.FrozenTables.locate`, fed the probed
  hash rows and each slot's table id).
  The probe enumeration is shared with the dict layout
  (:func:`~repro.hashing.probing.hamming_flip_masks` /
  :func:`~repro.hashing.probing.perturbation_offsets`), so the probed
  bucket sequence — and therefore every answer — is bit-identical.

* :class:`FrozenCoveringLSHIndex` — the covering index hashes each
  point by ``r + 1`` bit-*blocks* of different widths, so its hash
  rows are not uniformly ``k`` values long.  The fused key matrix pads
  every row on the right with zeros up to the widest block's width;
  padding cannot make two distinct rows of one table equal (same true
  width), so the buckets are the dict layout's and all downstream
  primitives (collision counts, register maxima, candidate unions) are
  bit-identical.

Both variants keep the full overflow-insert story of the base class —
inserts land in a sorted run (:mod:`repro.index.overflow`) keyed by the
same addresses as the frozen buckets and probed with the lookup's own
needles (the multi-probe layout's ``1 + P`` slots per table included;
the covering layout stores its zero-padded block rows), with
double-buffered background re-freeze — and both persist through :func:`~repro.index.frozen.save_frozen_index` /
:func:`~repro.index.frozen.load_frozen_index` as plain ``.npy``
directories reopened with ``np.load(mmap_mode="r")``.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.probing import probe_deltas
from repro.index.covering import CoveringLSHIndex, hamming_family_facade
from repro.index.frozen import FrozenLSHIndex, FrozenQueryLookup, FrozenTables
from repro.sketches.hyperloglog import PrecomputedHllHashes
from repro.utils.validation import check_matrix

__all__ = ["FrozenMultiProbeLSHIndex", "FrozenCoveringLSHIndex"]


class FrozenMultiProbeLSHIndex(FrozenLSHIndex):
    """A built multi-probe index compacted into contiguous CSR arrays.

    Produced by :meth:`repro.index.multiprobe_index.MultiProbeLSHIndex.freeze`;
    answers every primitive bit-identically to the dict-layout
    multi-probe index it was frozen from, including after ``insert``
    (overflow run, probed under home *and* probe addresses) and
    re-freeze.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.hashing import SimHashLSH
    >>> from repro.index import MultiProbeLSHIndex
    >>> rng = np.random.default_rng(0)
    >>> points = rng.normal(size=(300, 16))
    >>> index = MultiProbeLSHIndex(
    ...     SimHashLSH(16, seed=1), k=4, num_tables=6, num_probes=3, seed=2
    ... ).build(points)
    >>> frozen = index.freeze()
    >>> frozen.num_collisions(points[0]) == index.num_collisions(points[0])
    True
    >>> bool(np.array_equal(
    ...     frozen.candidate_ids(frozen.lookup(points[0])),
    ...     index.candidate_ids(index.lookup(points[0]))))
    True
    """

    variant = "multiprobe"

    def _adopt(self, index) -> None:
        super()._adopt(index)
        self._init_probing(index.num_probes)

    @classmethod
    def from_state(cls, *args, num_probes: int = 0, **kwargs):
        """Reassemble from persisted arrays (adds the probe config)."""
        self = super().from_state(*args, **kwargs)
        self._init_probing(num_probes)
        return self

    def _init_probing(self, num_probes: int) -> None:
        """Precompute the probe deltas as one ``(P, k)`` matrix.

        Mirrors :class:`~repro.index.multiprobe_index.MultiProbeLSHIndex`:
        XOR bit-flip masks for binary hash values, additive ±1 offsets
        for p-stable quantisers — drawn from the same enumerations, in
        the same order, truncated the same way.
        """
        if num_probes < 0:
            from repro.exceptions import ConfigurationError

            raise ConfigurationError(f"num_probes must be >= 0, got {num_probes}")
        self.num_probes = int(num_probes)
        self._binary_values, self._probe_deltas = probe_deltas(
            self.family, self.k, self.num_probes
        )
        # Slot metadata is fixed for the index's lifetime; precomputed
        # here so the per-query lookup path never reallocates it.
        self._probe_count = int(self._probe_deltas.shape[0])
        self._num_slots = self.num_tables * (1 + self._probe_count)
        self._slot_tables = np.repeat(
            np.arange(self.num_tables), 1 + self._probe_count
        )

    @property
    def probe_count(self) -> int:
        """Effective probes per table (the enumeration may run dry)."""
        return self._probe_count

    @property
    def num_slots(self) -> int:
        return self._num_slots

    @property
    def _slot_table_ids(self) -> np.ndarray:
        return self._slot_tables

    def _slot_rows(self, all_rows: np.ndarray) -> np.ndarray:
        """``(q, L, k)`` home rows -> ``(q, L * (1 + P), k)`` probed rows.

        Slot order per table is home first, then the probes in
        enumeration order — exactly the dict layout's
        ``_lookup_from_rows`` sequence.
        """
        probes = self.probe_count
        if probes == 0:
            return all_rows
        q, num_tables, k = all_rows.shape
        home = all_rows[:, :, None, :]
        if self._binary_values:
            probed = home ^ self._probe_deltas[None, None, :, :]
        else:
            probed = home + self._probe_deltas[None, None, :, :]
        stacked = np.concatenate([home, probed], axis=2)  # (q, L, 1 + P, k)
        return stacked.reshape(q, num_tables * (1 + probes), k)

    def __repr__(self) -> str:
        base = super().__repr__()
        return base[:-1] + f", probes={self.num_probes})"


class FrozenCoveringLSHIndex(FrozenLSHIndex):
    """A built covering index compacted into contiguous CSR arrays.

    Produced by :meth:`repro.index.covering.CoveringLSHIndex.freeze`.
    The ``r + 1`` block tables have different row widths, so the fused
    key matrix stores every row zero-padded to the widest block's
    width; the no-false-negative covering guarantee is untouched
    because the bucket contents are identical to the dict layout's.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.index import CoveringLSHIndex
    >>> rng = np.random.default_rng(0)
    >>> points = (rng.random((300, 32)) < 0.5).astype(np.float64)
    >>> index = CoveringLSHIndex(dim=32, radius=4, seed=1).build(points)
    >>> frozen = index.freeze()
    >>> bool(np.array_equal(
    ...     frozen.candidate_ids(frozen.lookup(points[0])),
    ...     index.candidate_ids(index.lookup(points[0]))))
    True
    """

    variant = "covering"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_covering_index(
        cls, index: CoveringLSHIndex, refreeze_threshold: int | None = None
    ) -> FrozenCoveringLSHIndex:
        """Compact a built covering index (shares points and blocks)."""
        index._require_built()
        self = cls.__new__(cls)
        self._adopt_covering(
            dim=index.dim,
            radius=index.radius,
            blocks=index._blocks,
            hll_precision=index.hll_precision,
            hll_seed=index.hll_seed,
            lazy_threshold=index.lazy_threshold,
            with_sketches=index.with_sketches,
            dedup=index.dedup,
            points=index.points,
            hll_hashes=index._hll_hashes,
        )
        per_table = [
            FrozenTables.table_arrays(table, block.size, pad_to=self.row_width)
            for table, block in zip(index.tables, self._blocks)
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
        points: np.ndarray,
        frozen: FrozenTables,
        dim: int,
        radius: int,
        blocks: list,
        hll_precision: int,
        hll_seed: int,
        lazy_threshold: int | None,
        with_sketches: bool,
        dedup: str,
        refreeze_threshold: int | None = None,
    ) -> FrozenCoveringLSHIndex:
        """Reassemble from persisted arrays (no bucket reconstruction)."""
        self = cls.__new__(cls)
        self._adopt_covering(
            dim=dim,
            radius=radius,
            blocks=[np.asarray(b, dtype=np.int64) for b in blocks],
            hll_precision=hll_precision,
            hll_seed=hll_seed,
            lazy_threshold=lazy_threshold,
            with_sketches=with_sketches,
            dedup=dedup,
            points=points,
            hll_hashes=(
                PrecomputedHllHashes(
                    points.shape[0], p=int(hll_precision), seed=int(hll_seed)
                )
                if with_sketches
                else None
            ),
        )
        self.frozen = frozen
        self._init_overflow(refreeze_threshold)
        return self

    def _adopt_covering(
        self,
        dim,
        radius,
        blocks,
        hll_precision,
        hll_seed,
        lazy_threshold,
        with_sketches,
        dedup,
        points,
        hll_hashes,
    ) -> None:
        self._dim = int(dim)
        self.radius = int(radius)
        self._blocks = [np.asarray(b, dtype=np.int64) for b in blocks]
        self.num_tables = len(self._blocks)
        self.hll_precision = int(hll_precision)
        self.hll_seed = int(hll_seed)
        self.lazy_threshold = lazy_threshold
        self.with_sketches = bool(with_sketches)
        self.dedup = dedup
        self.points = points
        self._hll_hashes = hll_hashes
        self._batched = None
        # One facade for the index's lifetime: the searchers read
        # .family.metric once per answered query.
        self._family_facade = hamming_family_facade(self._dim)

    # ------------------------------------------------------------------
    # Covering specifics
    # ------------------------------------------------------------------
    @property
    def row_width(self) -> int:
        """Fused row width: the widest block's bit count."""
        return max(block.size for block in self._blocks)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def family(self):
        """Minimal family facade (metric access for the searchers)."""
        return self._family_facade

    # ------------------------------------------------------------------
    # Hashing (block rows have per-table widths, so no shared hash pass)
    # ------------------------------------------------------------------
    def _block_rows(self, points: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(n, L, w)`` zero-padded block rows, and each table's own."""
        padded = np.zeros(
            (points.shape[0], self.num_tables, self.row_width), dtype=np.int64
        )
        rows_per_table = []
        for t, block in enumerate(self._blocks):
            rows = np.ascontiguousarray(points[:, block], dtype=np.int64)
            rows_per_table.append(rows)
            padded[:, t, : block.size] = rows
        return padded, rows_per_table

    def _insert_rows(self, new_points: np.ndarray) -> np.ndarray:
        return self._block_rows(new_points)[0]

    def lookup_batch(self, queries: np.ndarray) -> list[FrozenQueryLookup]:
        """Locate many queries' block buckets with one searchsorted."""
        self._require_built()
        queries = check_matrix(queries, dim=self.dim, name="queries")
        frozen, runs = self._snapshot()
        padded, rows_per_table = self._block_rows(queries)
        positions = frozen.locate(padded)  # (q, L)
        hash_rows = [
            [rows[qi] for rows in rows_per_table] for qi in range(queries.shape[0])
        ]
        return self._finish_lookup_batch(hash_rows, padded, positions, frozen, runs)

    def __repr__(self) -> str:
        built = f"n={self.n}" if self.is_built else "unbuilt"
        return (
            f"FrozenCoveringLSHIndex(dim={self._dim}, radius={self.radius}, "
            f"tables={self.num_tables}, {built}, "
            f"overflow={self.overflow_count})"
        )
