"""Frozen CSR layout: bit-identical to the dict layout, mmap round-trip.

The frozen layout's contract is *exact agreement* with the dict layout
it was frozen from — every query-side primitive, every engine above it,
before and after inserts, and across a save/``np.load(mmap_mode="r")``
reopen.  These tests assert that contract at the bit level and pin the
structural properties (CSR consistency, overflow re-freeze, zero-copy
persistence) the serving path relies on.
"""

import json
import mmap
import os
import shutil

import numpy as np
import pytest

from repro.core import CostModel, HybridSearcher
from repro.exceptions import ConfigurationError
from repro.hashing import PStableLSH, SimHashLSH
from repro.index import CoveringLSHIndex, FrozenLSHIndex, LSHIndex, MultiProbeLSHIndex
from repro.index import frozen as frozen_module
from repro.index.frozen import FrozenTables, load_frozen_index, save_frozen_index
from repro.service import BatchQueryEngine


def build_pair(n=600, dim=12, k=3, num_tables=8, lazy_threshold=None, seed=3):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    index = LSHIndex(
        PStableLSH(dim, w=2.0),
        k=k,
        num_tables=num_tables,
        lazy_threshold=lazy_threshold,
        seed=seed,
    ).build(points)
    return points, index, index.freeze()


def assert_file_backed(array, directory, name):
    """``array`` is a zero-copy plain-ndarray view of ``directory/name.npy``.

    File-backed without the subclass: walking ``.base`` ends at the
    ``mmap`` object of a mapping of that very file, ``array`` shares
    the mapping's memory (no copy was taken on the way), and its
    contents are the file's.  (Two mappings of one file live at
    different addresses, so sharing is checked against the mapping the
    array descends from, not against a fresh one.)
    """
    assert type(array) is np.ndarray
    mapping, base = array, array.base
    while isinstance(base, np.ndarray):
        mapping, base = base, base.base
    assert isinstance(base, mmap.mmap)
    target = os.path.join(directory, f"{name}.npy")
    assert isinstance(mapping, np.memmap) and os.path.samefile(mapping.filename, target)
    assert np.shares_memory(array, mapping)
    assert np.array_equal(array, np.load(target, mmap_mode="r"))


def assert_results_equal(a, b):
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.distances, b.distances)
    assert a.stats.strategy == b.stats.strategy
    assert a.stats.num_collisions == b.stats.num_collisions
    assert a.stats.exact_candidates == b.stats.exact_candidates
    if a.stats.estimated_candidates == a.stats.estimated_candidates:  # not nan
        assert a.stats.estimated_candidates == b.stats.estimated_candidates
        assert a.stats.estimated_lsh_cost == b.stats.estimated_lsh_cost


class TestFrozenPrimitives:
    def test_lookup_and_collisions_match(self):
        points, index, frozen = build_pair()
        rng = np.random.default_rng(0)
        queries = np.concatenate([rng.normal(size=(10, 12)), points[:5]])
        for q in queries:
            assert index.lookup(q).num_collisions == frozen.lookup(q).num_collisions
        batch_a = index.lookup_batch(queries)
        batch_b = frozen.lookup_batch(queries)
        for la, lb in zip(batch_a, batch_b):
            assert la.num_collisions == lb.num_collisions

    def test_lookup_bucket_views_keep_member_dtype(self):
        """Frozen bucket views expose ids in the stored ``intp`` dtype.

        The members contract is ``np.intp`` (every consumer is a fancy
        index); re-materialising a slice under another integer dtype is
        the silent platform-equal drift the dtype-contract lint exists
        to catch — pin it at runtime too.
        """
        points, index, frozen = build_pair()
        views = frozen.lookup(points[0]).nonempty_buckets()
        assert views
        for view in views:
            assert np.asarray(view.ids).dtype == np.intp

    def test_candidates_both_dedups_match(self):
        points, index, frozen = build_pair()
        rng = np.random.default_rng(1)
        for q in np.concatenate([rng.normal(size=(8, 12)), points[:4]]):
            la, lb = index.lookup(q), frozen.lookup(q)
            for dedup in ("scalar", "vectorized"):
                assert np.array_equal(
                    index.candidate_ids(la, dedup=dedup),
                    frozen.candidate_ids(lb, dedup=dedup),
                )

    def test_candidate_ids_batch_matches_loop(self):
        points, index, frozen = build_pair()
        rng = np.random.default_rng(7)
        queries = np.concatenate(
            [rng.normal(size=(6, 12)), points[:3], points[:3]]  # duplicates share
        )
        lookups = frozen.lookup_batch(queries)
        batch = frozen.candidate_ids_batch(lookups, dedup="vectorized")
        for lk, cands in zip(lookups, batch):
            assert np.array_equal(cands, frozen.candidate_ids(lk, dedup="vectorized"))

    @pytest.mark.parametrize("lazy_threshold", [None, 0, 4])
    def test_sketches_and_estimates_match(self, lazy_threshold):
        points, index, frozen = build_pair(lazy_threshold=lazy_threshold)
        rng = np.random.default_rng(2)
        queries = np.concatenate([rng.normal(size=(8, 12)), points[:4]])
        for q in queries:
            la, lb = index.lookup(q), frozen.lookup(q)
            assert np.array_equal(
                index.merged_sketch(la).registers, frozen.merged_sketch(lb).registers
            )
            assert index.estimate_candidates(la) == frozen.estimate_candidates(lb)
        batch_a = index.lookup_batch(queries)
        batch_b = frozen.lookup_batch(queries)
        assert np.array_equal(
            index.merged_estimates_batch(batch_a),
            frozen.merged_estimates_batch(batch_b),
        )

    def test_csr_structure_is_consistent(self):
        _, index, frozen = build_pair()
        csr = frozen.frozen
        assert csr.num_tables == index.num_tables
        assert int(csr.table_slices[-1]) == sum(t.num_buckets for t in index.tables)
        assert int(csr.offsets[-1]) == csr.members.size
        assert np.array_equal(np.diff(csr.offsets), csr.sizes)
        # Addresses globally sorted, each table's tag inside its segment,
        # one full hash row kept per bucket to verify hits against.
        assert csr.key64.dtype == np.uint64
        assert (csr.key64[1:] > csr.key64[:-1]).all()
        assert csr.keys.shape == (csr.num_buckets, index.k)
        tag_shift = np.uint64(64 - (csr.num_tables - 1).bit_length())
        for t in range(csr.num_tables):
            lo, hi = int(csr.table_slices[t]), int(csr.table_slices[t + 1])
            assert ((csr.key64[lo:hi] >> tag_shift) == t).all()

    def test_diagnostics_match_dict_layout(self):
        _, index, frozen = build_pair(lazy_threshold=4)
        a, b = index.bucket_statistics(), frozen.bucket_statistics()
        assert a == b
        assert frozen.sketch_memory_bytes == index.sketch_memory_bytes
        report = frozen.memory_report()
        assert report["points"] == index.memory_report()["points"]
        assert report["sketches"] == index.memory_report()["sketches"]


class TestFrozenSearch:
    def test_hybrid_queries_bit_identical(self):
        points, index, frozen = build_pair()
        cm = CostModel.from_ratio(6.0)
        a = HybridSearcher(index, cm)
        b = HybridSearcher(frozen, cm)
        rng = np.random.default_rng(3)
        queries = np.concatenate([rng.normal(size=(10, 12)), points[:5]])
        for q in queries:
            assert_results_equal(a.query(q, 1.5), b.query(q, 1.5))
        for ra, rb in zip(a.query_batch(queries, 1.5), b.query_batch(queries, 1.5)):
            assert_results_equal(ra, rb)

    def test_batch_engine_matches_sequential_dict(self):
        points, index, frozen = build_pair(n=900)
        cm = CostModel.from_ratio(6.0)
        sequential = HybridSearcher(index, cm)
        engine = BatchQueryEngine(HybridSearcher(frozen, cm), radius=1.5)
        rng = np.random.default_rng(4)
        queries = np.concatenate([rng.normal(size=(12, 12)), points[:6]])
        batch = engine.query_batch(queries)
        for q, rb in zip(queries, batch):
            assert_results_equal(sequential.query(q, 1.5), rb)

    def test_insert_overflow_and_refreeze_bit_identical(self):
        points, index, frozen = build_pair()
        rng = np.random.default_rng(5)
        new = rng.normal(size=(30, 12))
        assert np.array_equal(index.insert(new), frozen.insert(new))
        assert frozen.overflow_count == 30
        queries = np.concatenate([rng.normal(size=(8, 12)), new[:4], points[:4]])
        cm = CostModel.from_ratio(6.0)
        a, b = HybridSearcher(index, cm), HybridSearcher(frozen, cm)
        for q in queries:
            assert_results_equal(a.query(q, 1.5), b.query(q, 1.5))
        frozen.refreeze()
        assert frozen.overflow_count == 0
        for q in queries:
            assert_results_equal(a.query(q, 1.5), b.query(q, 1.5))

    def test_auto_refreeze_past_threshold(self):
        points, index, _ = build_pair()
        frozen = index.freeze(refreeze_threshold=8)
        rng = np.random.default_rng(6)
        frozen.insert(rng.normal(size=(9, 12)))
        # Compaction runs in a background thread (double-buffered);
        # after it lands, both generations are folded into the arrays.
        frozen.wait_for_refreeze()
        assert frozen.overflow_count == 0  # compacted automatically
        assert not frozen.live_runs  # no run holds an entry

    def test_auto_refreeze_inline_when_background_disabled(self):
        points, index, _ = build_pair()
        frozen = index.freeze(refreeze_threshold=8)
        frozen.background_refreeze = False
        rng = np.random.default_rng(6)
        frozen.insert(rng.normal(size=(9, 12)))
        assert frozen.overflow_count == 0  # compacted on the insert itself
        assert not frozen.live_runs  # no run holds an entry


AA, AB, BB, CC, DD, XX, ZZ = (0, 0), (0, 1), (1, 1), (2, 2), (3, -3), (7, 7), (9, 9)


def hand_tables(*tables):
    """A :class:`FrozenTables` over hand-picked hash rows: one
    single-member bucket per row, member ids in the order given."""
    per_table, next_id = [], 0
    for rows in tables:
        per_table.append(
            (
                np.asarray(rows, dtype=np.int64).reshape(len(rows), 2),
                np.ones(len(rows), dtype=np.int64),
                np.arange(next_id, next_id + len(rows), dtype=np.intp),
            )
        )
        next_id += len(rows)
    return FrozenTables.assemble(
        per_table, hll_hashes=None, lazy_threshold=0, hll_precision=4
    )


def needles(*rows):
    """The ``(q, S, 2)`` hash-row tensor of ``q`` rows of ``S`` probes."""
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), -1, 2)


def bucket(tables, t, row):
    """The global bucket of ``row`` in table ``t``, found by scanning
    the table's slice of the stored hash rows."""
    lo, hi = int(tables.table_slices[t]), int(tables.table_slices[t + 1])
    (hits,) = np.nonzero((tables.keys[lo:hi] == np.asarray(row)).all(axis=1))
    assert hits.size == 1
    return lo + int(hits[0])


class TestLocate:
    """``FrozenTables.locate`` on hand-built tables: the corners a
    random index rarely reaches.  Buckets sit in ``key64`` order, so the
    expected indexes are looked up by scanning (:func:`bucket`)."""

    def test_result_is_query_major_int64(self):
        tables = hand_tables([AA, CC], [BB, CC, DD])
        got = tables.locate(needles([CC, CC], [AA, ZZ], [AB, BB]))
        assert got.dtype == np.int64
        assert got.tolist() == [
            [bucket(tables, 0, CC), bucket(tables, 1, CC)],
            [bucket(tables, 0, AA), -1],
            [-1, bucket(tables, 1, BB)],
        ]
        # ... and a located bucket owns the member filed under that row.
        assert tables.members[tables.offsets[bucket(tables, 1, DD)]] == 4

    def test_probe_slots_stay_grouped_by_table(self):
        tables = hand_tables([AA, CC], [BB, CC, DD])
        rows = needles([CC, XX, DD, BB], [AA, CC, CC, AA])
        assert tables.locate(rows, np.array([0, 0, 1, 1])).tolist() == [
            [bucket(tables, 0, CC), -1, bucket(tables, 1, DD), bucket(tables, 1, BB)],
            [bucket(tables, 0, AA), bucket(tables, 0, CC), bucket(tables, 1, CC), -1],
        ]

    def test_empty_batch(self):
        tables = hand_tables([AA], [BB])
        got = tables.locate(np.empty((0, 2, 2), dtype=np.int64))
        assert got.shape == (0, 2) and got.dtype == np.int64

    def test_table_with_an_empty_segment(self):
        tables = hand_tables([AA], [], [AA, BB])
        # The empty table's needle lands among the next table's buckets,
        # one of which holds the very row probed: still a miss.
        assert tables.locate(needles([AA, AA, AA])).tolist() == [
            [bucket(tables, 0, AA), -1, bucket(tables, 2, AA)]
        ]

    def test_needle_past_the_last_key_never_takes_the_next_tables_bucket(self):
        tables = hand_tables([AA, BB], [ZZ], [CC])
        # ZZ is stored in table 1 only: tables 0 and 2 miss, whatever
        # the needle's position among their neighbours' addresses.
        assert tables.locate(needles([ZZ, ZZ, ZZ])).tolist() == [
            [-1, bucket(tables, 1, ZZ), -1]
        ]

    def test_needle_below_every_key(self):
        tables = hand_tables([BB, CC], [BB])
        assert tables.locate(needles([AA, AA])).tolist() == [[-1, -1]]

    def test_no_buckets_at_all(self):
        tables = hand_tables([], [])
        assert tables.locate(needles([AA, AA])).tolist() == [[-1, -1]]

    @pytest.mark.parametrize("columns, probes", [(3, 1), (2, 2), (5, 2)])
    def test_column_count_must_be_tables_times_probes(self, columns, probes):
        tables = hand_tables([AA], [BB])
        with pytest.raises(ValueError, match=f"{columns} slot columns; {2 * probes}"):
            tables.locate(needles([AA] * columns), np.repeat(np.arange(2), probes))

    def test_addresses_sort_by_table_then_mix(self):
        tables = hand_tables([AA, CC, DD], [BB, CC], [XX])
        assert tables.key64.dtype == np.uint64
        assert (np.diff(tables.key64.astype(object)) > 0).all()
        assert (tables.key64 >> np.uint64(62)).tolist() == [0, 0, 0, 1, 1, 2]
        assert tables.table_slices.tolist() == [0, 3, 5, 6]
        assert tables.keys.dtype == np.int8


def colliding_mix(salts):
    """An address mix that sends every row to 0 under ``salts`` (a set
    the caller may grow) and is the real one otherwise."""
    real = frozen_module._mix_rows

    def mix(rows, salt):
        if salt in salts:
            return np.zeros(rows.shape[:-1], dtype=np.uint64)
        return real(rows, salt)

    return mix


def collide_on(monkeypatch, salts):
    monkeypatch.setattr(frozen_module, "_mix_rows", colliding_mix(salts))


class TestKey64Collisions:
    """The 64-bit address is a hash: stored rows of a table must never
    share one (assembly re-salts), and a probe that shares one with a
    *different* stored row must miss (the full row is verified)."""

    def test_assemble_resalts_until_collision_free(self, monkeypatch):
        collide_on(monkeypatch, {0, 1})
        tables = hand_tables([AA, CC, DD], [BB, CC])
        assert tables.salt == 2
        assert (tables.key64[1:] > tables.key64[:-1]).all()
        assert tables.locate(needles([CC, CC], [XX, BB])).tolist() == [
            [bucket(tables, 0, CC), bucket(tables, 1, CC)],
            [-1, bucket(tables, 1, BB)],
        ]

    def test_one_bucket_per_table_cannot_collide(self, monkeypatch):
        collide_on(monkeypatch, {0})
        assert hand_tables([AA], [AA]).salt == 0  # the tag tells them apart

    def test_refreeze_merge_resalts(self, monkeypatch):
        points, index, frozen = build_pair(n=200)
        assert frozen.frozen.salt == 0
        rng = np.random.default_rng(4)
        new = rng.normal(size=(30, 12))
        index.insert(new)
        frozen.insert(new)
        collide_on(monkeypatch, {0})
        frozen.refreeze()
        csr = frozen.frozen
        assert csr.salt == 1
        assert (csr.key64[1:] > csr.key64[:-1]).all()
        assert csr.num_buckets == sum(t.num_buckets for t in index.tables)
        for q in np.concatenate([points[:5], new[:5]]):
            la, lb = index.lookup(q), frozen.lookup(q)
            assert la.num_collisions == lb.num_collisions
            assert np.array_equal(
                index.candidate_ids(la, dedup="vectorized"),
                frozen.candidate_ids(lb, dedup="vectorized"),
            )

    def test_degenerate_mix_is_a_clear_error(self, monkeypatch):
        collide_on(monkeypatch, set(range(100)))
        with pytest.raises(ConfigurationError, match="collision-free 64-bit"):
            hand_tables([AA, BB])
        # ... and the attempts are bounded, starting at the given salt.
        collide_on(monkeypatch, set(range(5, 5 + frozen_module.MAX_SALT_ATTEMPTS)))
        per_table = [
            (np.array([AA, BB]), np.ones(2, dtype=np.int64), np.arange(2, dtype=np.intp))
        ]
        with pytest.raises(ConfigurationError, match="salts from 5"):
            FrozenTables.assemble(
                per_table, hll_hashes=None, lazy_threshold=0, hll_precision=4, salt=5
            )

    def test_address_hit_with_another_row_is_a_miss(self, monkeypatch):
        real = frozen_module._mix_rows
        # Mix only the first column: (2, 2) and (2, 5) share an address.
        monkeypatch.setattr(
            frozen_module, "_mix_rows", lambda rows, salt: real(rows[..., :1], salt)
        )
        tables = hand_tables([CC, BB], [AA])
        probe = (2, 5)
        needle = frozen_module._tagged_key64(np.array([probe]), np.array([0]), 2, 0)
        assert needle[0] == tables.key64[bucket(tables, 0, CC)]  # the address hits
        assert tables.locate(needles([probe, AA], [CC, probe])).tolist() == [
            [-1, bucket(tables, 1, AA)],
            [bucket(tables, 0, CC), -1],
        ]

    def test_value_outside_the_stored_dtype_is_a_miss_not_an_overflow(
        self, monkeypatch
    ):
        real = frozen_module._mix_rows
        # Mix what int8 would keep of a value: 300 and 44 share an address,
        # and an int8 compare of the rows would wrap 300 onto 44 as well.
        monkeypatch.setattr(
            frozen_module,
            "_mix_rows",
            lambda rows, salt: real(rows.astype(np.int8), salt),
        )
        tables = hand_tables([(44, 0), BB], [(44, 0)])
        assert tables.keys.dtype == np.int8
        assert tables.locate(needles([(300, 0), (300, 0)], [(44, 0), (-212, 0)])).tolist() == [
            [-1, -1],
            [bucket(tables, 0, (44, 0)), -1],
        ]

    def test_keys_widen_when_a_merge_needs_it(self):
        _, _, frozen = build_pair(n=200)
        assert frozen.frozen.keys.dtype == np.int8
        far = np.full((1, 12), 1.0e4)  # hash values far outside int8
        frozen.insert(far)
        frozen.refreeze()
        wide = frozen.frozen.keys
        assert wide.dtype in (np.int16, np.int32)
        assert np.abs(wide.astype(np.int64)).max() > 127
        assert 200 in frozen.candidate_ids(frozen.lookup(far[0]))


class TestFrozenGuards:
    def test_freeze_requires_built_index(self):
        index = LSHIndex(SimHashLSH(8, seed=1), k=2, num_tables=3)
        with pytest.raises(Exception):
            index.freeze()

    def test_freeze_rejects_unknown_subclasses(self):
        """Built-in variants freeze (multi-probe since PR 5); a custom
        subclass with an unknown query surface still must not."""
        rng = np.random.default_rng(0)
        points = rng.normal(size=(100, 8))
        probe = MultiProbeLSHIndex(
            SimHashLSH(8, seed=1), k=2, num_tables=3, num_probes=1, seed=2
        ).build(points)
        assert probe.freeze().variant == "multiprobe"

        class CustomIndex(LSHIndex):
            pass

        custom = CustomIndex(SimHashLSH(8, seed=1), k=2, num_tables=3).build(points)
        with pytest.raises(ConfigurationError):
            custom.freeze()

    def test_frozen_rejects_rebuild(self):
        _, _, frozen = build_pair(n=100)
        with pytest.raises(ConfigurationError):
            frozen.build(np.zeros((4, 12)))

    def test_dict_serializer_rejects_frozen(self):
        from repro.index.serialize import save_index

        _, _, frozen = build_pair(n=100)
        with pytest.raises(ConfigurationError):
            save_index(frozen, "/tmp/should-not-exist.npz")


class TestFrozenPersistence:
    def test_roundtrip_is_mmap_backed_and_identical(self, tmp_path):
        points, _, frozen = build_pair(lazy_threshold=4)
        path = str(tmp_path / "frozen-index")
        save_frozen_index(frozen, path)
        loaded = load_frozen_index(path)
        assert_file_backed(loaded.points, path, "points")
        for name in ("members", "registers"):
            assert_file_backed(getattr(loaded.frozen, name), path, name)
        rng = np.random.default_rng(8)
        queries = np.concatenate([rng.normal(size=(6, 12)), points[:4]])
        cm = CostModel.from_ratio(6.0)
        a, b = HybridSearcher(frozen, cm), HybridSearcher(loaded, cm)
        for q in queries:
            assert_results_equal(a.query(q, 1.5), b.query(q, 1.5))

    @pytest.mark.parametrize("variant", ["plain", "multiprobe", "covering"])
    def test_query_path_reads_no_memmap_instance(self, variant, tmp_path):
        """Reopened, the hot path's arrays are plain ndarrays — and stay so.

        The ``np.memmap`` subclass charges ``__getitem__`` /
        ``__array_finalize__`` on every take, slice and ufunc; the
        loader hands views instead.  Checked over everything a query
        reads — data, bucket arrays, hash kernel, prepared norms —
        before and after an insert + re-freeze.
        """
        rng = np.random.default_rng(21)
        if variant == "covering":
            points = (rng.random((200, 32)) < 0.5).astype(np.float64)
            built, radius = CoveringLSHIndex(dim=32, radius=4, seed=1), 4.0
        else:
            points = rng.normal(size=(200, 10))
            cls = MultiProbeLSHIndex if variant == "multiprobe" else LSHIndex
            built, radius = cls(PStableLSH(10, w=2.0), k=3, num_tables=5, seed=2), 1.5
        path = str(tmp_path / "artifact")
        save_frozen_index(built.build(points).freeze(), path)
        reopened = load_frozen_index(path)
        assert reopened.variant == variant

        def hot_arrays():
            searcher = HybridSearcher(reopened, CostModel.from_ratio(6.0))
            searcher.query_batch(points[:3], radius)
            arrays = [reopened.points, searcher._lsh._prepared(), searcher._linear._prepared()]
            arrays += [getattr(reopened.frozen, name) for name in FrozenTables.__slots__]
            if variant != "covering":
                arrays += list(reopened._batched.params.values())
            return [a for a in arrays if isinstance(a, np.ndarray)]

        before = hot_arrays()
        assert len(before) >= 9 and all(type(a) is np.ndarray for a in before)
        assert_file_backed(reopened.points, path, "points")
        reopened.insert(points[:5] if variant == "covering" else rng.normal(size=(5, 10)))
        reopened.refreeze()
        assert all(type(a) is np.ndarray for a in hot_arrays())

    def test_save_compacts_overflow_first(self, tmp_path):
        points, _, frozen = build_pair()
        rng = np.random.default_rng(9)
        frozen.insert(rng.normal(size=(5, 12)))
        path = str(tmp_path / "compacted")
        save_frozen_index(frozen, path)
        assert frozen.overflow_count == 0
        loaded = load_frozen_index(path)
        assert loaded.n == points.shape[0] + 5
        q = points[0]
        assert np.array_equal(
            frozen.candidate_ids(frozen.lookup(q)),
            loaded.candidate_ids(loaded.lookup(q)),
        )

    def test_resave_to_same_path_keeps_artifact_intact(self, tmp_path):
        """open -> save back to the same directory must not corrupt it.

        The loaded arrays are memory-mapped from the very files being
        rewritten; the saver must never truncate a mapped source.
        """
        points, _, frozen = build_pair(n=150)
        path = str(tmp_path / "self-save")
        save_frozen_index(frozen, path)
        loaded = load_frozen_index(path)
        save_frozen_index(loaded, path)  # would crash/corrupt if in-place
        reloaded = load_frozen_index(path)
        q = points[1]
        assert np.array_equal(
            frozen.candidate_ids(frozen.lookup(q)),
            reloaded.candidate_ids(reloaded.lookup(q)),
        )

    def test_mixed_shard_layouts_rejected_before_writing(self, tmp_path):
        from repro.api import Index, IndexSpec

        rng = np.random.default_rng(13)
        points = rng.normal(size=(200, 8))
        index = Index.build(
            points, IndexSpec(metric="l2", radius=1.0, num_tables=4,
                              num_shards=2, seed=1)
        )
        index.engine.shards[0].freeze()
        target = tmp_path / "mixed"
        with pytest.raises(ConfigurationError):
            index.save(str(target))
        # Nothing may have been written: a partial artifact next to a
        # stale index.json would poison a later open().
        assert not (target / "index.json").exists()
        assert not any(target.glob("shard_*"))
        index.close()

    def test_mmap_loaded_index_accepts_inserts(self, tmp_path):
        _, _, frozen = build_pair(n=120)
        path = str(tmp_path / "idx")
        save_frozen_index(frozen, path)
        loaded = load_frozen_index(path)
        rng = np.random.default_rng(10)
        ids = loaded.insert(rng.normal(size=(3, 12)))
        assert ids.tolist() == [120, 121, 122]
        assert loaded.n == 123


V1_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "frozen_v1")


def answers(index, queries):
    lookups = index.lookup_batch(queries)
    return {
        "num_collisions": [lk.num_collisions for lk in lookups],
        "largest_bucket": [lk.largest_bucket for lk in lookups],
        "candidates": [index.candidate_ids(lk).tolist() for lk in lookups],
        "estimates": index.merged_estimates_batch(lookups).tolist(),
    }


class TestFormatV1Artifacts:
    """``tests/fixtures/frozen_v1``: two artifacts written by the PR 17
    tree (format v1: bytewise-sorted ``keys_raw.npy``), with the answers
    that tree gave in ``expected.json``.  They must keep opening, answer
    identically, and turn into format v2 on the next save."""

    @pytest.mark.parametrize("name", ["multiprobe_pstable", "covering"])
    def test_v1_opens_answers_identically_and_resaves_as_v2(self, name, tmp_path):
        source = os.path.join(V1_FIXTURES, name)
        with open(os.path.join(source, "config.json")) as fh:
            assert json.load(fh)["format_version"] == 1
        with open(os.path.join(source, "expected.json")) as fh:
            expected = json.load(fh)
        queries = np.load(os.path.join(source, "queries.npy"))
        assert any(expected["candidates"])  # not vacuous

        opened = load_frozen_index(source)
        assert opened.n <= 64 and opened.variant == name.split("_")[0]
        assert answers(opened, queries) == expected

        resaved = str(tmp_path / "v2")
        save_frozen_index(opened, resaved)
        with open(os.path.join(resaved, "config.json")) as fh:
            config = json.load(fh)
        assert config["format_version"] == 2 and config["key_salt"] == 0
        assert os.path.exists(os.path.join(resaved, "key64.npy"))
        assert not os.path.exists(os.path.join(resaved, "keys_raw.npy"))
        reopened = load_frozen_index(resaved)
        assert_file_backed(reopened.frozen.key64, resaved, "key64")
        assert answers(reopened, queries) == expected

    def test_v1_with_a_torn_key_matrix_is_a_typed_error(self, tmp_path):
        from repro.exceptions import CorruptArtifactError

        broken = str(tmp_path / "v1")
        shutil.copytree(os.path.join(V1_FIXTURES, "multiprobe_pstable"), broken)
        keys = np.load(os.path.join(broken, "keys_raw.npy"))
        np.save(os.path.join(broken, "keys_raw.npy"), keys[:, :-3])
        with pytest.raises(CorruptArtifactError, match="format v1"):
            load_frozen_index(broken)

    def test_unknown_version_is_refused(self, tmp_path):
        future = str(tmp_path / "v3")
        shutil.copytree(os.path.join(V1_FIXTURES, "covering"), future)
        with open(os.path.join(future, "config.json")) as fh:
            config = json.load(fh)
        config["format_version"] = 3
        with open(os.path.join(future, "config.json"), "w") as fh:
            json.dump(config, fh)
        with pytest.raises(ConfigurationError, match="unsupported frozen index version"):
            load_frozen_index(future)


class TestFacadeFrozenLayout:
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_spec_layout_builds_and_roundtrips(self, num_shards, tmp_path):
        from repro.api import Index, IndexSpec, QuerySpec

        rng = np.random.default_rng(11)
        points = rng.normal(size=(400, 10))
        queries = np.concatenate([rng.normal(size=(6, 10)), points[:4]])
        spec = IndexSpec(
            metric="l2", radius=1.0, num_tables=6, num_shards=num_shards, seed=1
        )
        reference = Index.build(points, spec)
        frozen = Index.build(points, spec.with_overrides(layout="frozen"))
        for ra, rb in zip(
            reference.query(queries), frozen.query(queries)
        ):
            assert_results_equal(ra, rb)
        for ra, rb in zip(
            reference.query(QuerySpec(queries, k=3)),
            frozen.query(QuerySpec(queries, k=3)),
        ):
            assert np.array_equal(ra.ids, rb.ids)
            assert np.array_equal(ra.distances, rb.distances)

        path = str(tmp_path / "saved")
        frozen.save(path)
        meta = json.loads((tmp_path / "saved" / "index.json").read_text())
        assert meta["layout"] == "frozen"
        reopened = Index.open(path)
        assert reopened.spec.layout == "frozen"
        assert reopened.cost_model == frozen.cost_model  # no recalibration
        engine_index = (
            reopened.engine.shards[0].index
            if num_shards > 1
            else reopened.engine.index
        )
        assert isinstance(engine_index, FrozenLSHIndex)
        assert_file_backed(
            engine_index.frozen.members,
            os.path.join(path, "shard_000.frozen"),
            "members",
        )
        for ra, rb in zip(
            frozen.query(queries), reopened.query(queries)
        ):
            assert_results_equal(ra, rb)
        reference.close(), frozen.close(), reopened.close()

    def test_insert_through_facade_matches_dict(self):
        from repro.api import Index, IndexSpec

        rng = np.random.default_rng(12)
        points = rng.normal(size=(300, 10))
        spec = IndexSpec(metric="l2", radius=1.0, num_tables=6, seed=2)
        a = Index.build(points, spec)
        b = Index.build(points, spec.with_overrides(layout="frozen"))
        new = rng.normal(size=(10, 10))
        assert np.array_equal(a.insert(new), b.insert(new))
        queries = np.concatenate([new[:3], points[:3]])
        for ra, rb in zip(a.query(queries), b.query(queries)):
            assert_results_equal(ra, rb)


class TestCliFrozenLayout:
    def test_build_serve_frozen_artifact(self, tmp_path, capsys):
        from repro.api import Index
        from repro.cli import main

        out_dir = str(tmp_path / "frozen-idx")
        assert main([
            "build", "--dataset", "corel", "--n", "400", "--queries", "8",
            "--tables", "6", "--out", out_dir, "--layout", "frozen",
        ]) == 0
        payload = capsys.readouterr().out
        assert '"layout": "frozen"' in payload
        index = Index.open(out_dir)
        assert index.spec.layout == "frozen"
        assert isinstance(index.engine.index, FrozenLSHIndex)
        index.close()
