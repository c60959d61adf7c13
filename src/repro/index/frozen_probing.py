"""The frozen CSR layout of the covering index.

The covering index (:class:`~repro.index.covering.CoveringLSHIndex`)
hashes each point by ``r + 1`` bit-*blocks* of different widths, so
its hash rows are not uniformly ``k`` values long.  Every row is
addressed zero-padded on the right to the widest block's width;
padding cannot make two distinct rows of one table equal (same true
width), so the buckets are the dict layout's and all downstream
primitives (collision counts, register maxima, candidate unions) are
bit-identical.  It probes one slot per table (``probe_count`` 0).

It keeps the full overflow-insert story of
:class:`~repro.index.frozen.FrozenLSHIndex` — inserts land in a sorted
run (:mod:`repro.index.overflow`) keyed by the same addresses as the
frozen buckets (the zero-padded block rows), with double-buffered
background re-freeze — and persists through
:func:`~repro.index.frozen.save_frozen_index` /
:func:`~repro.index.frozen.load_frozen_index` as plain ``.npy``
directories reopened with ``np.load(mmap_mode="r")``.
"""

from __future__ import annotations

import numpy as np

from repro.index.covering import CoveringLSHIndex, hamming_family_facade
from repro.index.frozen import FrozenLSHIndex, FrozenQueryLookup, FrozenTables
from repro.utils.validation import check_matrix

__all__ = ["FrozenCoveringLSHIndex"]


class FrozenCoveringLSHIndex(FrozenLSHIndex):
    """A covering index held in contiguous CSR arrays.

    Built from the arguments of
    :class:`~repro.index.covering.CoveringLSHIndex`, or produced by
    :meth:`repro.index.covering.CoveringLSHIndex.freeze`.
    The ``r + 1`` block tables have different row widths, so every row
    is addressed zero-padded to the widest block's width; the
    no-false-negative covering guarantee is untouched because the
    bucket contents are identical to the dict layout's.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.index import CoveringLSHIndex
    >>> rng = np.random.default_rng(0)
    >>> points = (rng.random((300, 32)) < 0.5).astype(np.float64)
    >>> index = CoveringLSHIndex(dim=32, radius=4, seed=1).build(points)
    >>> frozen = FrozenCoveringLSHIndex(dim=32, radius=4, seed=1).build(points)
    >>> bool(np.array_equal(
    ...     frozen.candidate_ids(frozen.lookup(points[0])),
    ...     index.candidate_ids(index.lookup(points[0]))))
    True
    """

    variant = "covering"
    #: One slot per block table: the covering guarantee needs no probes.
    probe_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def __init__(self, *args, **kwargs) -> None:
        """An unbuilt index (arguments as
        :class:`~repro.index.covering.CoveringLSHIndex`, whose
        constructor validates them and draws the blocks, building nothing)."""
        self._adopt(CoveringLSHIndex(*args, **kwargs))
        self.frozen = None
        self._init_overflow(None)

    @classmethod
    def from_covering_index(
        cls, index: CoveringLSHIndex, refreeze_threshold: int | None = None
    ) -> FrozenCoveringLSHIndex:
        """Compact a built covering index (shares points and blocks)."""
        index._require_built()
        self = cls.__new__(cls)
        self._adopt(index)
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
        points: np.ndarray | None,
        frozen: FrozenTables | None,
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
        """Reassemble from persisted arrays (no bucket reconstruction;
        ``None`` for both: unbuilt, as :meth:`FrozenLSHIndex.from_state`)."""
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
            hll_hashes=None,
        )
        if points is not None:
            self._hll_hashes = self._hll_pairs(points.shape[0])
        self.frozen = frozen
        self._init_overflow(refreeze_threshold)
        return self

    def _adopt(self, index: CoveringLSHIndex) -> None:
        """Share a dict-layout covering index's blocks, points and HLL hashes."""
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
