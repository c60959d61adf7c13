"""The frozen index: Algorithm 1 built straight into CSR arrays, and inserts.

:meth:`FrozenLSHIndex.build` is Algorithm 1 written straight into the
arrays of :mod:`repro.index.frozen.tables`: a chunked hash pass into
one narrow table-major row matrix, then :meth:`FrozenTables.assemble`
over one-member sources.  No :class:`~repro.index.bucket.Bucket` is
made, and the arrays are byte for byte those
:meth:`~repro.index.lsh_index.LSHIndex.freeze` makes of the
dict-layout build of the same draws (the bit-identity reference).
Steps S1 and S2 are inherited from :class:`~repro.index.frozen.lookup.FrozenReads`.

An insert lands in an immutable *sorted run* (:mod:`repro.index.overflow`):
one hash pass, a sort of its ``m * L`` addresses and a copy-on-write
merge into the run.  The points, their HLL pairs and their prepared
row norms sit in buffers with geometric spare capacity
(:mod:`repro.utils.rows`), so an insert appends ``m`` rows instead of
copying ``n``.  The index re-freezes itself once a run outgrows
``refreeze_threshold``.

Re-freezing is **double-buffered**: the insert that crosses the
threshold does not pay the compaction — it sets the run aside as the
*compacting* generation, lets subsequent inserts open a fresh one, and
hands the merge of ``frozen ⊕ compacting`` to a background thread.
The point matrix, the arrays and both runs change only under one lock
(``_refreeze_lock``, never held with another): an insert publishes
``points`` (the prefix view of its buffer that covers the new rows) and
its new run in one swap and a query takes ``(arrays,
live runs)`` in one snapshot, so it sees whole inserts, never the *new*
arrays beside the generation they absorbed, and only runs keyed under
the arrays' salt (a fold that re-salted re-keys the still-live run from
its stored rows as it swaps in).  Answers are bit-identical throughout.
:meth:`FrozenLSHIndex.refreeze` remains synchronous — it waits for any
in-flight background compaction and folds whatever is left.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.exceptions import ConfigurationError
from repro.index.frozen.lookup import FrozenReads
from repro.index.frozen.tables import FrozenTables, _check_capacity
from repro.index.lsh_index import LSHIndex
from repro.index.overflow import OverflowRun, _narrowest_int_dtype
from repro.sketches.hyperloglog import PrecomputedHllHashes
from repro.utils.rows import append_rows
from repro.utils.validation import check_matrix

#: Overflow points tolerated before :meth:`FrozenLSHIndex.insert`
#: triggers an automatic re-freeze.
DEFAULT_REFREEZE_THRESHOLD = 1024

#: Points hashed per chunk by :meth:`FrozenLSHIndex.build`: bounds the
#: int64 hash tensor a chunk holds before it is narrowed into the rows.
BUILD_CHUNK_ROWS = 4096

#: The parts :meth:`FrozenLSHIndex.memory_report` sums into ``total``.
MEMORY_REPORT_PARTS = (
    "points", "norms", "hll_pairs", "bucket_ids", "bucket_keys", "sketches",
)


class FrozenLSHIndex(FrozenReads, LSHIndex):
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

    @property
    def row_width(self) -> int:
        """Hash values per stored key row (covering: its widest block)."""
        return self.k

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
        _check_capacity(n, self.num_tables)
        self._hll_hashes = self._hll_pairs(n)
        rows = np.empty((self.num_tables, n, self.row_width), dtype=np.int8)
        for start in range(0, n, BUILD_CHUNK_ROWS):
            chunk = self._insert_rows(points[start : start + BUILD_CHUNK_ROWS])
            dtype = np.promote_types(rows.dtype, _narrowest_int_dtype(chunk))
            if dtype != rows.dtype:
                rows = rows.astype(dtype)
            rows[:, start : start + chunk.shape[0]] = chunk.transpose(1, 0, 2)
        ones, ids = np.ones(n, dtype=np.int64), np.arange(n, dtype=np.uint32)
        frozen = FrozenTables.assemble(
            [(table_rows, ones, ids) for table_rows in rows],
            self._hll_hashes,
            self._effective_lazy_threshold,
            self.hll_precision,
        )
        with self._refreeze_lock:  # published like an insert's swap
            self.frozen, self.points, self._point_buffer = frozen, points, points
        return self

    @classmethod
    def from_dict_index(
        cls, index: LSHIndex, refreeze_threshold: int | None = None
    ) -> FrozenLSHIndex:
        """Compact a built dict-layout index (shares points and kernel):
        the reference's path, to the arrays :meth:`build` makes."""
        index._require_built()
        _check_capacity(index.n, index.num_tables)
        self = cls.__new__(cls)
        self._adopt(index)
        self.points = index.points
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
        points: np.ndarray | None,
        frozen: FrozenTables | None,
        k: int,
        num_tables: int,
        hll_precision: int,
        hll_seed: int,
        lazy_threshold: int | None,
        with_sketches: bool,
        dedup: str,
        refreeze_threshold: int | None = None,
    ) -> FrozenLSHIndex:
        """Reassemble from persisted arrays (no bucket reconstruction);
        ``points`` and ``frozen`` both ``None``: unbuilt, for :meth:`build`."""
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
        self._hll_hashes = None if points is None else self._hll_pairs(points.shape[0])
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

    def _hll_pairs(self, n: int) -> PrecomputedHllHashes | None:
        """The HLL hash pairs of ids ``0 .. n - 1`` (``None`` without sketches)."""
        if not self.with_sketches:
            return None
        return PrecomputedHllHashes(n, p=self.hll_precision, seed=self.hll_seed)

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
        #: The buffer ``points`` is a prefix view of: exactly the built,
        #: adopted or opened rows until an insert grows it, then spare
        #: rows past ``n`` that the next inserts write into.
        self._point_buffer = self.points
        #: The metric's prepared per-row state (L2: squared row norms),
        #: prepared on first read by :meth:`prepared_points` and extended
        #: there by the rows an insert added, in the same kind of buffer.
        self._norms: np.ndarray | None = None
        self._norm_buffer: np.ndarray | None = None
        self._norms_lock = threading.Lock()
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

    def prepared_points(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The published points and the metric's prepared state of those rows.

        The state (``metric.prepare_points``; L2: the squared row norms
        every distance kernel subtracts from) is ``None`` for a metric
        without a prepared kernel.  It is the index's, shared by every
        searcher over it: the first read prepares all ``n`` rows
        (exactly ``n``, no spare capacity), and a read after inserts
        prepares only the rows the state does not cover yet and appends
        them like the points (:func:`~repro.utils.rows.append_rows`).
        The preparation is per row, so the appended state equals
        ``prepare_points(points)`` bit for bit.  The returned state has
        exactly ``points.shape[0]`` rows.
        """
        points = self.points
        n = points.shape[0]
        metric = self.family.metric
        if metric.prepare is None:
            return points, None
        norms = self._norms
        if norms is None or norms.shape[0] < n:
            with self._norms_lock:
                norms = self._norms
                have = 0 if norms is None else norms.shape[0]
                if have < n:
                    fresh = metric.prepare_points(points[have:n])
                    buffer = (
                        fresh
                        if self._norm_buffer is None
                        else append_rows(self._norm_buffer, have, fresh)
                    )
                    self._norm_buffer = buffer
                    self._norms = norms = buffer[:n]
        return points, norms[:n]

    # ------------------------------------------------------------------
    # Mutation: overflow inserts + re-freeze
    # ------------------------------------------------------------------
    def insert(self, new_points: np.ndarray) -> np.ndarray:
        """Insert points into the live overflow run; re-freeze past the threshold.

        The ``m`` new rows are written past the published ``n`` of the
        point buffer — into its spare capacity, or into a fresh buffer
        with ``(n + m) / 8`` spare rows when it is full
        (:func:`~repro.utils.rows.append_rows`; a built or opened
        index holds exactly ``n`` rows, so its first insert makes that
        one copy).  The HLL pairs are extended the same way, the new
        entries are merged into a *copy* of the run, and the view
        ``buffer[:n + m]`` and the new run are published in one swap
        under the re-freeze lock: a concurrent lookup sees the whole
        insert or none of it, every id it finds is below
        ``points.shape[0]``, and a view it already holds never sees the
        write.  The prepared row state is extended by the next read
        (:meth:`prepared_points`), by the ``m`` new rows only.  Inserts
        come from one writer at a time.  With :attr:`background_refreeze`
        (the default) the insert crossing the threshold only *starts*
        the compaction; queries keep probing both generations until the
        background swap lands.
        """
        self._require_built()
        new_points = check_matrix(new_points, dim=self.dim, name="new_points")
        m = new_points.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.int64)
        old_n = self.n
        _check_capacity(old_n + m, self.num_tables)
        rows = self._insert_rows(new_points)
        buffer = append_rows(self._point_buffer, old_n, new_points)
        points = buffer[: old_n + m]
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
                self.points, self._point_buffer, self._run = points, buffer, run
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

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    @property
    def sketch_memory_bytes(self) -> int:
        """Register bytes (overflow runs hold ids only, no sketches)."""
        return int(self.frozen.registers.nbytes)

    def memory_report(self) -> dict[str, int]:
        """Bytes held, by part (:data:`MEMORY_REPORT_PARTS`), and ``total``.

        The per-point buffers — ``points``, the prepared ``norms`` (0
        until the first read prepares them) and the ``hll_pairs`` —
        count their full capacity, spare rows past ``n`` included; a
        freshly built or opened index holds none.  ``bucket_ids`` /
        ``bucket_keys`` / ``sketches`` count the frozen arrays and every
        live overflow run.
        """
        self._require_built()
        frozen, runs = self._snapshot()
        report = frozen.memory_bytes
        for run in runs:
            report["bucket_ids"] += int(run.members.nbytes)
            report["bucket_keys"] += int(run.key64.nbytes) + int(run.rows.nbytes)
        report["points"] = int(self._point_buffer.nbytes)
        report["norms"] = 0 if self._norm_buffer is None else int(self._norm_buffer.nbytes)
        report["hll_pairs"] = 0 if self._hll_hashes is None else self._hll_hashes.nbytes
        report["total"] = sum(report[k] for k in MEMORY_REPORT_PARTS)
        return report

    def bucket_statistics(self) -> dict[str, float]:
        self._require_built()
        frozen, runs = self._snapshot()
        # A run's logical buckets are its distinct addresses.
        all_sizes = np.concatenate(
            [
                np.diff(frozen.offsets.astype(np.int64)),
                *(np.unique(run.key64, return_counts=True)[1] for run in runs),
            ]
        )
        return {
            "tables": float(self.num_tables),
            "buckets": float(all_sizes.size),
            "mean_size": float(all_sizes.mean()),
            "max_size": float(all_sizes.max()),
            "sketched_fraction": frozen.sketched.size / all_sizes.size,
        }

    def __repr__(self) -> str:
        built = f"n={self.n}" if self.is_built else "unbuilt"
        return (
            f"{type(self).__name__}(family={type(self.family).__name__}, "
            f"k={self.k}, L={self.num_tables}, {built}, "
            f"overflow={self.overflow_count})"
        )
