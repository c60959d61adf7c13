"""Frozen CSR layout: bit-identical to the dict layout, mmap round-trip.

The frozen layout's contract is *exact agreement* with the dict layout
it was frozen from — every query-side primitive, every engine above it,
before and after inserts, and across a save/``np.load(mmap_mode="r")``
reopen.  These tests assert that contract at the bit level and pin the
structural properties (CSR consistency, overflow re-freeze, zero-copy
persistence) the serving path relies on.
"""

import dataclasses
import hashlib
import json
import mmap
import os
import shutil
import time

import numpy as np
import pytest

from repro.api import Index, IndexSpec, QuerySpec
from repro.api import facade
from repro.core import CostModel, HybridSearcher
from repro.exceptions import ConfigurationError, CorruptArtifactError
from repro.hashing import PStableLSH, SimHashLSH
from repro.index import CoveringLSHIndex, FrozenLSHIndex, LSHIndex
from repro.index.frozen import index as frozen_index
from repro.index.frozen import persist as frozen_persist
from repro.index.frozen import tables as frozen_tables
from repro.index.frozen import (
    DEFAULT_REFREEZE_THRESHOLD,
    MEMORY_REPORT_PARTS,
    FrozenTables,
    load_frozen_index,
    save_frozen_index,
)
from repro.service import BatchQueryEngine
from repro.utils.rng import spawn_rngs

from conftest import reference_index, served_shards, shard_answers


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

    def test_stored_arrays_keep_four_byte_dtypes(self):
        """Members, offsets and the sketched bucket ids are ``uint32`` —
        frozen, in every live run, and after a fold — and no bucket size
        or per-bucket sketch map is stored.

        A drift back to eight-byte ids changes no answer, which is why
        the dtype-contract lint exists; pin it at runtime too.
        """
        points, index, frozen = build_pair()
        frozen.insert(points[:3] + 1e-3)
        assert frozen.live_runs
        for run in frozen.live_runs:
            assert run.members.dtype == np.uint32
        for _ in range(2):
            csr = frozen.frozen
            assert csr.members.dtype == csr.offsets.dtype == np.uint32
            assert csr.sketched.dtype == np.uint32
            assert csr.sketched.shape == (csr.registers.shape[0],)
            assert not hasattr(csr, "sizes") and not hasattr(csr, "sketch_rows")
            frozen.refreeze()

    def test_sketched_lists_the_buckets_past_the_lazy_threshold(self):
        """``sketched`` is the sorted ids of the buckets above the lazy
        threshold, register row ``i`` is the dict sketch of bucket
        ``sketched[i]``, and ``register_rows`` finds exactly those."""
        _, index, frozen = build_pair(lazy_threshold=4)
        csr = frozen.frozen
        sizes = np.diff(csr.offsets.astype(np.int64))
        assert np.array_equal(csr.sketched, np.flatnonzero(sizes > 4))
        assert 0 < csr.sketched.size < csr.num_buckets
        has_sketch, rows = csr.register_rows(np.arange(csr.num_buckets))
        assert np.array_equal(has_sketch, sizes > 4)
        assert np.array_equal(rows[has_sketch], np.arange(csr.sketched.size))
        dict_sketches = [
            bucket.sketch.registers
            for table in index.tables
            for _, bucket in sorted(table.buckets.items())
            if bucket.has_sketch
        ]
        assert sorted(map(bytes, dict_sketches)) == sorted(map(bytes, csr.registers))

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
            assert index.merged_sketch(la).estimate() == frozen.merged_sketch(lb).estimate()
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
        assert int(csr.offsets[0]) == 0 and int(csr.offsets[-1]) == csr.members.size
        starts, sizes = csr.spans(np.arange(-1, csr.num_buckets))
        assert np.array_equal(starts[1:], csr.offsets[:-1])
        assert sizes.dtype == np.int64 and sizes[0] == 0  # -1 = no bucket
        assert (sizes[1:] > 0).all() and sizes.sum() == csr.members.size
        # Addresses globally sorted, each table's tag inside its segment;
        # no hash row is kept.
        assert csr.key64.dtype == np.uint64
        assert (csr.key64[1:] > csr.key64[:-1]).all()
        assert not hasattr(csr, "keys")
        tag_shift = np.uint64(64 - (csr.num_tables - 1).bit_length())
        for t in range(csr.num_tables):
            lo, hi = int(csr.table_slices[t]), int(csr.table_slices[t + 1])
            assert ((csr.key64[lo:hi] >> tag_shift) == t).all()

    def test_memory_report_counts_every_array(self, tmp_path):
        """The byte meter's total is every per-point buffer at its full
        capacity — points, prepared norms, HLL pairs — plus every ndarray
        field of the frozen arrays and of each live run, listed from the
        dataclasses, so an array added later is counted or fails here.
        A freshly built or opened index holds no spare row; after
        inserts that grew the buffers, the spare rows are counted."""
        _, _, frozen = build_pair(lazy_threshold=4)
        save_frozen_index(frozen, str(tmp_path / "artifact"))
        opened = load_frozen_index(str(tmp_path / "artifact"))

        def arrays(obj):
            values = (getattr(obj, f.name) for f in dataclasses.fields(obj))
            return [v for v in values if isinstance(v, np.ndarray)]

        def counted(index):
            csr, runs = index._snapshot()
            pairs = index._hll_hashes
            held = [index._point_buffer, pairs._register_buffer, pairs._rank_buffer]
            held += [] if index._norm_buffer is None else [index._norm_buffer]
            held += [*arrays(csr), *(a for run in runs for a in arrays(run))]
            return sum(a.nbytes for a in held)

        for fresh in (frozen, opened):
            assert fresh.memory_report()["norms"] == 0  # prepared on first read
            _, norms = fresh.prepared_points()
            report, pairs = fresh.memory_report(), fresh._hll_hashes
            assert report["points"] == fresh.points.nbytes
            assert report["norms"] == norms.nbytes == 8 * fresh.n
            assert report["hll_pairs"] == pairs.registers.nbytes + pairs.ranks.nbytes
            assert report["total"] == counted(fresh)

        frozen.refreeze_threshold = 10**6
        rng = np.random.default_rng(5)
        frozen.insert(rng.normal(size=(7, 12)))
        frozen.prepared_points()
        first_capacity = frozen._point_buffer.shape[0]
        while frozen._point_buffer.shape[0] == first_capacity:  # a second growth
            frozen.insert(rng.normal(size=(7, 12)))
            frozen.prepared_points()
        csr, runs = frozen._snapshot()
        assert runs and csr.registers.shape[0] > 0
        assert len(arrays(csr)) >= 6 and len(arrays(runs[0])) >= 2
        # The sketches cost what they hold: the registers and one uint32
        # id per sketched bucket, nothing per lazy bucket.
        assert frozen.memory_report()["sketches"] == (
            csr.registers.nbytes + csr.sketched.nbytes
        ) == (csr.registers.shape[1] + 4) * csr.sketched.size
        report, pairs = frozen.memory_report(), frozen._hll_hashes
        assert report["points"] == frozen._point_buffer.nbytes > frozen.points.nbytes
        assert report["norms"] == frozen._norm_buffer.nbytes > 8 * frozen.n
        assert report["hll_pairs"] > pairs.registers.nbytes + pairs.ranks.nbytes
        assert report["total"] == counted(frozen)
        assert report["total"] == sum(report[k] for k in MEMORY_REPORT_PARTS)

    def test_diagnostics_match_dict_layout(self):
        _, index, frozen = build_pair(lazy_threshold=4)
        a, b = index.bucket_statistics(), frozen.bucket_statistics()
        assert a == b
        assert frozen.sketch_memory_bytes == index.sketch_memory_bytes
        report = frozen.memory_report()
        assert report["points"] == index.memory_report()["points"]
        # The same registers, plus the ids of the sketched buckets.
        sketched = frozen.frozen.sketched.nbytes
        assert report["sketches"] == index.memory_report()["sketches"] + sketched


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
    the table's slice of ``key64`` for the row's address."""
    lo, hi = int(tables.table_slices[t]), int(tables.table_slices[t + 1])
    address = frozen_tables._tagged_key64(
        np.asarray([row]), np.array([t]), tables.num_tables, tables.salt
    )
    (hits,) = np.nonzero(tables.key64[lo:hi] == address[0])
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


def colliding_mix(salts):
    """An address mix that sends every row to 0 under ``salts`` (a set
    the caller may grow) and is the real one otherwise."""
    real = frozen_tables._mix_rows

    def mix(rows, salt):
        if salt in salts:
            return np.zeros(rows.shape[:-1], dtype=np.uint64)
        return real(rows, salt)

    return mix


def collide_on(monkeypatch, salts):
    monkeypatch.setattr(frozen_tables, "_mix_rows", colliding_mix(salts))


class TestKey64Collisions:
    """The 64-bit address is a hash.  The build re-salts until no two of
    its rows of a table share one.  Past the build an address hit is a
    hit: a row that merely *aliases* a stored bucket's address reads that
    bucket, and a fold merges on ``key64`` alone, reading no hash row, so
    the salt never changes.  An alias only adds candidates, which Step
    S3's exact distance test judges (``TestOverflowAddressCollisions`` in
    ``test_frozen_properties.py`` holds the answers to that)."""

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

    def test_a_fold_reads_no_row_and_keeps_the_salt(self, monkeypatch):
        points, index, frozen = build_pair(n=200)
        rng = np.random.default_rng(4)
        new = rng.normal(size=(30, 12))
        index.insert(new)
        frozen.insert(new)
        expected = FrozenLSHIndex.from_dict_index(index).frozen
        # Every row now mixes to one address: a fold that re-mixed the
        # rows would merge whole tables, or re-salt.
        collide_on(monkeypatch, {0})
        frozen.refreeze()
        csr = frozen.frozen
        assert csr.salt == expected.salt == 0
        for name in frozen_persist._LAYOUT:
            assert np.array_equal(getattr(csr, name), getattr(expected, name)), name

    def test_degenerate_mix_is_a_clear_error(self, monkeypatch):
        collide_on(monkeypatch, set(range(100)))
        with pytest.raises(ConfigurationError, match="collision-free 64-bit"):
            hand_tables([AA, BB])
        # ... and the attempts are bounded, starting at the given salt.
        collide_on(monkeypatch, set(range(5, 5 + frozen_tables.MAX_SALT_ATTEMPTS)))
        per_table = [
            (np.array([AA, BB]), np.ones(2, dtype=np.int64), np.arange(2, dtype=np.intp))
        ]
        with pytest.raises(ConfigurationError, match="salts from 5"):
            FrozenTables.assemble(
                per_table, hll_hashes=None, lazy_threshold=0, hll_precision=4, salt=5
            )

    def test_an_address_hit_with_another_row_is_an_alias_hit(self, monkeypatch):
        real = frozen_tables._mix_rows
        # Mix only the first column: (2, 2) and (2, 5) share an address.
        monkeypatch.setattr(
            frozen_tables, "_mix_rows", lambda rows, salt: real(rows[..., :1], salt)
        )
        tables = hand_tables([CC, BB], [AA])
        probe = (2, 5)
        needle = frozen_tables._tagged_key64(np.array([probe]), np.array([0]), 2, 0)
        assert needle[0] == tables.key64[bucket(tables, 0, CC)]  # the address hits
        assert tables.locate(needles([probe, AA], [CC, probe])).tolist() == [
            [bucket(tables, 0, CC), bucket(tables, 1, AA)],
            [bucket(tables, 0, CC), -1],  # (2, 5) aliases no row of table 1
        ]

    def test_hash_values_past_int8_are_inserted_and_folded(self):
        _, _, frozen = build_pair(n=200)
        far = np.full((1, 12), 1.0e4)  # hash values far outside int8
        assert np.abs(frozen._insert_rows(far)).max() > 127
        frozen.insert(far)
        assert 200 in frozen.candidate_ids(frozen.lookup(far[0]))
        frozen.refreeze()
        assert not frozen.live_runs
        assert 200 in frozen.candidate_ids(frozen.lookup(far[0]))


class TestFrozenGuards:
    def test_freeze_requires_built_index(self):
        index = LSHIndex(SimHashLSH(8, seed=1), k=2, num_tables=3)
        with pytest.raises(Exception):
            index.freeze()

    def test_freeze_rejects_unknown_subclasses(self):
        """Built-in indexes freeze (a probing one keeps its probes); a
        custom subclass with an unknown query surface must not."""
        rng = np.random.default_rng(0)
        points = rng.normal(size=(100, 8))
        probe = LSHIndex(
            SimHashLSH(8, seed=1), k=2, num_tables=3, num_probes=1, seed=2
        ).build(points)
        frozen = probe.freeze()
        assert frozen.variant == "multiprobe" and frozen.probe_count == 1

        class CustomIndex(LSHIndex):
            pass

        custom = CustomIndex(SimHashLSH(8, seed=1), k=2, num_tables=3).build(points)
        with pytest.raises(ConfigurationError):
            custom.freeze()

    def test_frozen_rejects_rebuild(self):
        _, _, frozen = build_pair(n=100)
        with pytest.raises(ConfigurationError):
            frozen.build(np.zeros((4, 12)))


def _artifact_digests(path):
    """``{relative file name: sha256}`` of every file under ``path``."""
    digests = {}
    for root, _, names in os.walk(path):
        for name in names:
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                digests[os.path.relpath(full, path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


#: Spec overrides of the array-native build's byte-identity cases.
BUILD_CASES = {
    "plain-pstable": {},
    "plain-simhash": {"metric": "cosine"},
    "multiprobe-additive": {"variant": "multiprobe", "num_probes": 3},
    "multiprobe-xor": {"metric": "cosine", "variant": "multiprobe", "num_probes": 3},
    "covering": {"metric": "hamming", "radius": 3.0, "variant": "covering"},
    "sketch-knobs": {"lazy_threshold": 0, "hll_seed": 3, "k": 4},
    # Points grow with their id: the first chunks hash into int8, the
    # last ones need int16, so the row matrix widens mid-build.
    "int16-rows": {"bucket_width": 0.02},
    "resalted": {},
}


def _build_case_points(case, n=400, dim=10):
    rng = np.random.default_rng(5)
    points = rng.normal(size=(n, dim))
    if case == "covering":
        return (points > 0).astype(np.float64)
    if case == "int16-rows":
        return points * np.linspace(0.001, 1.0, n)[:, None] ** 4
    return points


class TestArrayNativeBuild:
    """``FrozenLSHIndex.build`` hashes the points straight into the CSR
    arrays; the saved artifact is byte for byte the one the dict-layout
    reference makes through ``freeze()``."""

    @pytest.mark.parametrize("tier", ["single", "threads"])
    @pytest.mark.parametrize("case", list(BUILD_CASES))
    def test_artifact_is_byte_identical_to_the_frozen_reference(
        self, case, tier, tmp_path, monkeypatch
    ):
        if case == "resalted":
            collide_on(monkeypatch, {0})
        # Chunks of 97 points: several per build, a ragged last one.
        monkeypatch.setattr(frozen_index, "BUILD_CHUNK_ROWS", 97)
        points = _build_case_points(case)
        spec = IndexSpec(
            **{
                "metric": "l2", "radius": 1.0, "num_tables": 6, "seed": 7,
                "num_shards": 2 if tier == "threads" else 1,
                **BUILD_CASES[case],
            }
        )
        served = Index.build(points, spec)
        shards = served_shards(served)
        served.save(str(tmp_path / "served"))
        served.close()

        frozen_from_dict = []  # the reference path: dict build, then freeze()

        def reference_build(spec, points, seed):
            frozen_from_dict.append(reference_index(points, spec, seed=seed).freeze())
            return frozen_from_dict[-1]

        monkeypatch.setattr(facade, "_build_single_index", reference_build)
        reference = Index.build(points, spec)
        reference.save(str(tmp_path / "reference"))
        reference.close()
        assert len(frozen_from_dict) == spec.num_shards
        served_files = _artifact_digests(tmp_path / "served")
        assert len(served_files) >= 9
        assert served_files == _artifact_digests(tmp_path / "reference")

        assert {shard.frozen.salt for shard in shards} == {1 if case == "resalted" else 0}
        if case == "int16-rows":
            for shard in shards:
                all_rows = shard._insert_rows(np.asarray(shard.points))
                assert 127 < np.abs(all_rows).max() <= 2**15 - 1
            first_chunk = shards[0]._insert_rows(np.asarray(shards[0].points[:97]))
            assert np.abs(first_chunk).max() <= 127  # ... but the first chunk fit int8

    @pytest.mark.parametrize("chunk", [1, 64, 4096])
    def test_chunk_size_changes_no_array(self, chunk, monkeypatch):
        points = _build_case_points("plain-pstable", n=300)
        spec = IndexSpec(metric="l2", radius=1.0, num_tables=5, seed=2)
        expected = reference_index(points, spec).freeze().frozen
        monkeypatch.setattr(frozen_index, "BUILD_CHUNK_ROWS", chunk)
        built = Index.build(points, spec).engine.index.frozen
        for name in frozen_persist._LAYOUT:
            assert np.array_equal(getattr(built, name), getattr(expected, name)), name
            assert getattr(built, name).dtype == getattr(expected, name).dtype, name

    def test_an_unbuilt_index_builds_and_answers_like_the_reference(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(250, 8))
        index = FrozenLSHIndex(PStableLSH(8, w=2.0), k=3, num_tables=4, seed=9)
        assert not index.is_built and "unbuilt" in repr(index)
        with pytest.raises(ConfigurationError, match="zero points"):
            index.build(np.empty((0, 8)))
        index.build(points)
        twin = LSHIndex(PStableLSH(8, w=2.0), k=3, num_tables=4, seed=9).build(points)
        for q in points[:5]:
            a, b = index.lookup(q), twin.lookup(q)
            assert a.num_collisions == b.num_collisions
            assert np.array_equal(index.candidate_ids(a), twin.candidate_ids(b))
        with pytest.raises(ConfigurationError, match="built once"):
            index.build(points)


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

    @pytest.mark.parametrize(
        "variant, num_probes",
        [("multiprobe", 0), ("multiprobe", 2), ("covering", 0)],
        ids=["no-probes", "two-probes", "covering"],
    )
    def test_query_path_reads_no_memmap_instance(self, variant, num_probes, tmp_path):
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
            built = LSHIndex(
                PStableLSH(10, w=2.0), k=3, num_tables=5, seed=2, num_probes=num_probes
            )
            radius = 1.5
        path = str(tmp_path / "artifact")
        save_frozen_index(built.build(points).freeze(), path)
        reopened = load_frozen_index(path)
        assert reopened.variant == variant and reopened.probe_count == num_probes

        def hot_arrays():
            searcher = HybridSearcher(reopened, CostModel.from_ratio(6.0))
            searcher.query_batch(points[:3], radius)
            arrays = [*reopened.prepared_points(), searcher._linear_scan()._prepared()]
            arrays += [getattr(reopened.frozen, name) for name in FrozenTables.__slots__]
            if variant != "covering":
                arrays += list(reopened._batched.params.values())
            return [a for a in arrays if isinstance(a, np.ndarray)]

        before = hot_arrays()
        assert len(before) >= 7 and all(type(a) is np.ndarray for a in before)
        assert_file_backed(reopened.points, path, "points")
        reopened.insert(points[:5] if variant == "covering" else rng.normal(size=(5, 10)))
        reopened.refreeze()
        assert all(type(a) is np.ndarray for a in hot_arrays())

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"num_probes": 2}, {"variant": "covering", "metric": "hamming", "radius": 2.0}],
        ids=["zero-probes", "multiprobe", "covering"],
    )
    def test_open_rehashes_one_member_per_table_against_key64(
        self, overrides, tmp_path, monkeypatch
    ):
        """The open-time address check: one member point of each
        non-empty table's first bucket goes through the stored kernel,
        and its address under ``key_salt`` must be that bucket's
        ``key64`` — so a wrong salt is refused on every variant."""
        rng = np.random.default_rng(8)
        points = rng.normal(size=(150, 10))
        if "variant" in overrides:
            points = (points > 0).astype(np.float64)
        spec = IndexSpec(**{"metric": "l2", "radius": 1.5, "num_tables": 5, "seed": 4, **overrides})
        index = Index.build(points, spec)
        path = str(tmp_path / "idx")
        index.save(path)
        index.close()
        shard = os.path.join(path, "shard_000.frozen")
        hashed = []
        real = frozen_persist._check_addresses

        def spy(opened, where):
            rows = opened._insert_rows
            opened._insert_rows = lambda batch: hashed.append(len(batch)) or rows(batch)
            try:
                real(opened, where)
            finally:
                del opened._insert_rows

        monkeypatch.setattr(frozen_persist, "_check_addresses", spy)
        opened = load_frozen_index(shard)
        assert hashed == [opened.num_tables]  # one point per table, nothing else
        with open(os.path.join(shard, "config.json")) as fh:
            config = json.load(fh)
        config["key_salt"] += 1
        with open(os.path.join(shard, "config.json"), "w") as fh:
            json.dump(config, fh)
        with pytest.raises(CorruptArtifactError, match=r"key64\.npy .* key_salt 1"):
            load_frozen_index(shard)

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

    def test_mmap_loaded_index_accepts_inserts(self, tmp_path):
        _, _, frozen = build_pair(n=120)
        path = str(tmp_path / "idx")
        save_frozen_index(frozen, path)
        loaded = load_frozen_index(path)
        rng = np.random.default_rng(10)
        ids = loaded.insert(rng.normal(size=(3, 12)))
        assert ids.tolist() == [120, 121, 122]
        assert loaded.n == 123


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: The committed old-format artifacts (``tests/fixtures/frozen_v*``),
#: each written by the last tree of its format with that tree's answers
#: in ``expected.json`` (v3: its ``bucket_statistics()`` too).
OLD_FIXTURES = [
    pytest.param(version, name, id=f"v{version}-{name}")
    for version, names in (
        (1, ("multiprobe_pstable", "covering")),
        (2, ("plain_pstable", "multiprobe_simhash")),
        (3, ("plain_pstable", "multiprobe_simhash")),
    )
    for name in names
]


def answers(index, queries):
    lookups = index.lookup_batch(queries)
    return {
        "num_collisions": [lk.num_collisions for lk in lookups],
        "largest_bucket": [lk.largest_bucket for lk in lookups],
        "candidates": [index.candidate_ids(lk).tolist() for lk in lookups],
        "estimates": index.merged_estimates_batch(lookups).tolist(),
    }


def file_hashes(directory):
    """sha256 of every file under ``directory``, by relative path."""
    hashes = {}
    for root, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def format_version(directory):
    with open(os.path.join(directory, "config.json")) as fh:
        return json.load(fh)["format_version"]


def as_format_v3(shard):
    """Rewrite a current frozen directory as the format-v3 tree wrote it: a
    per-bucket ``int32`` ``sketch_rows`` map (-1 = lazy) in place of
    ``sketched``, and ``format_version`` 3 in the config."""
    sketched = np.load(os.path.join(shard, "sketched.npy"))
    sketch_rows = np.full(np.load(os.path.join(shard, "key64.npy")).size, -1, np.int32)
    sketch_rows[sketched] = np.arange(sketched.size)
    np.save(os.path.join(shard, "sketch_rows.npy"), sketch_rows)
    os.remove(os.path.join(shard, "sketched.npy"))
    with open(os.path.join(shard, "config.json")) as fh:
        config = json.load(fh)
    config["format_version"] = 3
    with open(os.path.join(shard, "config.json"), "w") as fh:
        json.dump(config, fh)


class TestMigrate:
    """The loader reads format v5 only; ``repro.cli migrate`` rewrites an
    older directory by re-hashing its stored points under its stored
    kernel, never reading its bucket arrays."""

    @pytest.mark.parametrize("version, name", OLD_FIXTURES)
    def test_migrated_fixture_is_v5_and_answers_as_recorded(self, version, name, tmp_path):
        source = os.path.join(FIXTURES, f"frozen_v{version}", name)
        assert format_version(source) == version
        with open(os.path.join(source, "expected.json")) as fh:
            expected = json.load(fh)
        stats = expected.pop("stats", None)
        assert (stats is None) == (version < 3)
        queries = np.load(os.path.join(source, "queries.npy"))
        assert any(expected["candidates"])  # not vacuous

        copy = str(tmp_path / name)
        shutil.copytree(source, copy)
        assert frozen_persist.migrate(copy) == [copy]
        assert format_version(copy) == 5
        assert not os.path.exists(os.path.join(copy, "keys.npy"))
        migrated = load_frozen_index(copy)
        # A plain index migrates as what it always was: zero probes.
        assert migrated.variant == ("covering" if name == "covering" else "multiprobe")
        assert migrated.probe_count == (2 if name.startswith("multiprobe") else 0)
        assert_file_backed(migrated.frozen.key64, copy, "key64")
        assert answers(migrated, queries) == expected
        if stats is not None:
            assert migrated.bucket_statistics() == stats

    @pytest.mark.parametrize("version, name", OLD_FIXTURES)
    def test_migrate_reads_no_bucket_array(self, version, name, tmp_path):
        """Without any of the old bucket arrays the migrated directory is
        byte for byte the one migrated from the whole fixture."""
        source = os.path.join(FIXTURES, f"frozen_v{version}", name)
        whole, stripped = str(tmp_path / "whole"), str(tmp_path / "stripped")
        shutil.copytree(source, whole)
        shutil.copytree(source, stripped)
        buckets = ("keys_raw", "key64", "keys", "table_slices", "offsets", "sizes",
                   "members", "sketch_rows", "registers")
        for array in buckets:
            if os.path.exists(os.path.join(stripped, f"{array}.npy")):
                os.remove(os.path.join(stripped, f"{array}.npy"))
        frozen_persist.migrate(whole)
        frozen_persist.migrate(stripped)
        assert file_hashes(stripped) == file_hashes(whole)

    def test_a_v5_directory_is_left_untouched(self, tmp_path):
        points, _, frozen = build_pair(n=120)
        path = str(tmp_path / "v5")
        save_frozen_index(frozen, path)
        before = file_hashes(path)
        assert frozen_persist.migrate(path) == []
        assert file_hashes(path) == before

        copy = str(tmp_path / "v3")
        shutil.copytree(os.path.join(FIXTURES, "frozen_v3", "plain_pstable"), copy)
        assert frozen_persist.migrate(copy) == [copy]
        migrated = file_hashes(copy)
        assert frozen_persist.migrate(copy) == []  # a second run is a no-op
        assert file_hashes(copy) == migrated

    def test_a_future_version_is_refused(self, tmp_path):
        future = str(tmp_path / "v6")
        shutil.copytree(os.path.join(FIXTURES, "frozen_v1", "covering"), future)
        with open(os.path.join(future, "config.json")) as fh:
            config = json.load(fh)
        config["format_version"] = 6
        with open(os.path.join(future, "config.json"), "w") as fh:
            json.dump(config, fh)
        with pytest.raises(ConfigurationError, match="unsupported frozen index version 6"):
            frozen_persist.migrate(future)
        with pytest.raises(ConfigurationError, match="unsupported frozen index version 6"):
            load_frozen_index(future)

    def test_migrate_checks_the_config(self, tmp_path):
        copy = str(tmp_path / "v3")
        shutil.copytree(os.path.join(FIXTURES, "frozen_v3", "plain_pstable"), copy)
        with open(os.path.join(copy, "config.json")) as fh:
            config = json.load(fh)
        config["with_sketches"] = "no"
        with open(os.path.join(copy, "config.json"), "w") as fh:
            json.dump(config, fh)
        with pytest.raises(CorruptArtifactError, match="with_sketches"):
            frozen_persist.migrate(copy)
        assert format_version(copy) == 3

    @pytest.mark.parametrize("version, name", OLD_FIXTURES)
    def test_an_unmigrated_directory_is_refused_naming_migrate(self, version, name):
        with pytest.raises(ConfigurationError, match="python -m repro.cli migrate"):
            load_frozen_index(os.path.join(FIXTURES, f"frozen_v{version}", name))

    def test_cli_migrates_the_stale_shard_of_an_index_save_directory(self, tmp_path, capsys):
        from repro.cli import main

        points = np.random.default_rng(5).normal(size=(200, 8))
        index = Index.build(points, IndexSpec(metric="l2", radius=1.5, num_shards=2, seed=9))
        path = str(tmp_path / "idx")
        index.save(path)
        index.close()
        saved = file_hashes(path)
        as_format_v3(os.path.join(path, "shard_001.frozen"))
        with pytest.raises(ConfigurationError, match="repro.cli migrate"):
            Index.open(path)

        assert main(["migrate", path]) == 0
        out = capsys.readouterr().out
        assert "shard_001.frozen" in out and "shard_000.frozen" not in out
        assert file_hashes(path) == saved  # the rebuilt shard is the saved one
        assert main(["migrate", path]) == 0
        assert "nothing to do" in capsys.readouterr().out
        Index.open(path).close()

    @pytest.mark.parametrize(
        "tier",
        [{}, {"num_shards": 2}, {"num_shards": 2, "execution": "processes"}],
        ids=["single", "threads", "processes"],
    )
    def test_a_stale_shard_fails_the_same_way_on_every_tier(self, tier, tmp_path):
        points = np.random.default_rng(6).normal(size=(120, 6))
        spec = IndexSpec(metric="l2", radius=1.5, seed=2, **tier)
        index = Index.build(points, spec)
        path = str(tmp_path / "idx")
        index.save(path)
        index.close()
        as_format_v3(os.path.join(path, f"shard_{spec.num_shards - 1:03d}.frozen"))
        # The process pool reports a worker's error as its message only.
        expected = Exception if spec.execution == "processes" else ConfigurationError
        with pytest.raises(expected) as info:
            Index.open(path).close()
        assert "repro.cli migrate" in str(info.value)


class TestFormatV4Labels:
    """``Index.save`` directories of format v4 written while ``"plain"``
    was a variant (``tests/fixtures/frozen_v4``, by commit c2d5996): a
    plain index, whose spec carries the ``num_probes`` 2 it never read,
    and a 2-probe index of the same points.  They are ``migrate``'s
    inputs: a migrated copy holds the fixture's bucket arrays minus
    ``keys.npy``, says ``"multiprobe"`` (the plain one at zero probes)
    in both ``config.json`` and ``index.json``, and answers as recorded.
    The fixtures themselves are never rewritten."""

    @pytest.mark.parametrize("name, probes", [("plain", 0), ("multiprobe", 2)])
    def test_migrated_copy_answers_as_recorded(self, name, probes, tmp_path):
        source = os.path.join(FIXTURES, "frozen_v4", name)
        with open(os.path.join(source, "index.json")) as fh:
            assert json.load(fh)["spec"]["variant"] == name
        with open(os.path.join(FIXTURES, "frozen_v4", "expected.json")) as fh:
            expected = json.load(fh)
        before = file_hashes(source)
        with pytest.raises(ConfigurationError, match="python -m repro.cli migrate"):
            Index.open(source)

        copy = str(tmp_path / name)
        shutil.copytree(source, copy)
        shard = os.path.join(copy, "shard_000.frozen")
        rewritten = [shard] + ([os.path.join(copy, "index.json")] if name == "plain" else [])
        assert frozen_persist.migrate(copy) == rewritten
        assert frozen_persist.migrate(copy) == []  # a second run is a no-op
        assert file_hashes(source) == before
        old, new = file_hashes(source), file_hashes(copy)
        for array in ("key64", "table_slices", "offsets", "members", "sketched", "registers"):
            key = os.path.join("shard_000.frozen", f"{array}.npy")
            assert new[key] == old[key], array
        assert os.path.join("shard_000.frozen", "keys.npy") in old
        assert os.path.join("shard_000.frozen", "keys.npy") not in new
        with open(os.path.join(shard, "config.json")) as fh:
            config = json.load(fh)
        with open(os.path.join(copy, "index.json")) as fh:
            spec = json.load(fh)["spec"]
        assert (config["format_version"], config["variant"], config["num_probes"]) == (
            5, "multiprobe", probes
        )
        assert (spec["variant"], spec["num_probes"]) == ("multiprobe", probes)

        index = Index.open(copy)
        try:
            assert (index.spec.variant, index.spec.num_probes) == ("multiprobe", probes)
            assert index.engine.index.probe_count == probes
            results = index.query(QuerySpec(np.asarray(expected["queries"])))
            got = [
                {"ids": r.ids.tolist(), "distances": r.distances.tolist(), "stats": repr(r.stats)}
                for r in results
            ]
        finally:
            index.close()
        assert got == expected[name]
        assert {r.stats.strategy.value for r in results} == {"lsh", "linear"}

    def test_plain_is_refused_after_migrate_naming_it(self, tmp_path):
        copy = str(tmp_path / "plain")
        shutil.copytree(os.path.join(FIXTURES, "frozen_v4", "plain"), copy)
        frozen_persist.migrate(copy)
        shard = os.path.join(copy, "shard_000.frozen")
        with open(os.path.join(shard, "config.json")) as fh:
            config = json.load(fh)
        config["variant"] = "plain"
        with open(os.path.join(shard, "config.json"), "w") as fh:
            json.dump(config, fh)
        with pytest.raises(CorruptArtifactError, match="variant.*repro.cli migrate"):
            load_frozen_index(shard)
        with open(os.path.join(copy, "index.json")) as fh:
            spec = json.load(fh)["spec"]
        with pytest.raises(ConfigurationError, match="repro.cli migrate"):
            IndexSpec.from_dict({**spec, "variant": "plain"})


class TestEntryLimit:
    """Ids and offsets are ``uint32``: a build, insert or open of ``L * n
    >= 2**32`` entries raises a typed error that says to shard.  The
    limit is lowered here so the index stays small."""

    def test_build_insert_and_open_past_the_limit_say_to_shard(self, monkeypatch, tmp_path):
        points = np.random.default_rng(4).normal(size=(50, 6))

        def make():
            return FrozenLSHIndex(PStableLSH(6, w=2.0), k=2, num_tables=4, seed=1)

        path = str(tmp_path / "idx")
        save_frozen_index(make().build(points), path)  # 200 entries
        monkeypatch.setattr(frozen_tables, "ENTRY_LIMIT", 200)
        with pytest.raises(ConfigurationError, match="shard the index"):
            make().build(points)
        with pytest.raises(ConfigurationError, match="shard the index"):
            load_frozen_index(path)
        monkeypatch.setattr(frozen_tables, "ENTRY_LIMIT", 201)
        index = make().build(points)
        with pytest.raises(ConfigurationError, match="shard the index"):
            index.insert(points[:1])  # 204 entries
        assert index.n == 50 and not index.live_runs  # refused before any change


#: The serving tiers ``Index.build`` assembles, as spec overrides.
TIERS = {
    "single": {},
    "threads": {"num_shards": 3},
    "processes": {"num_shards": 2, "execution": "processes"},
}


def _tier_reference(points, spec):
    """One ``LSHIndex`` reference per shard, in the serving tier's layout:
    shard ``s`` holds rows ``s, s + K, ...`` drawn from its spawned seed."""
    num_shards = spec.num_shards
    if num_shards == 1:
        return [reference_index(points, spec)]
    return [
        reference_index(points[s::num_shards], spec, seed=rng)
        for s, rng in enumerate(spawn_rngs(spec.seed, num_shards))
    ]


def _assert_shards_match(index, references, queries):
    """Every shard's local answers equal its reference's, bit for bit."""
    spec = index.spec
    for s, reference in enumerate(references):
        engine = BatchQueryEngine(
            HybridSearcher(reference, index.cost_model),
            radius=spec.radius,
            dedup=spec.dedup,
        )
        expected = engine.query_batch(queries)
        got = shard_answers(index.engine, s, queries, spec.radius)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert_results_equal(a, b)


def _refreeze_generations(index):
    doc = index.stats_snapshot()
    gauges = doc["workers"]["aggregate"]["gauges"] if "workers" in doc else doc["gauges"]
    return gauges.get("refreeze_generations", 0.0)


def _served_shard_types(index, path=None):
    """The classes of the indexes ``index`` serves from (for a worker
    pool: of the shard arrays its workers map)."""
    if index.execution == "processes":
        path = index.engine.path if path is None else path
        return {
            type(load_frozen_index(os.path.join(path, f"shard_{s:03d}.frozen")))
            for s in range(index.num_shards)
        }
    return {type(shard) for shard in served_shards(index)}


class TestServingLayout:
    """Frozen is the only serving layout: ``Index.build`` with no
    ``layout`` serves the CSR arrays on every tier, bit-identical to the
    dict-layout ``LSHIndex`` it was frozen from, and the dict layout is
    refused wherever it could come back in (spec, artifact)."""

    @pytest.mark.parametrize("tier", list(TIERS))
    def test_default_build_serves_frozen_and_matches_the_reference(self, tier, tmp_path):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(400, 10))
        queries = np.concatenate([rng.normal(size=(6, 10)), points[:4]])
        spec = IndexSpec(metric="l2", radius=1.0, num_tables=6, seed=1, **TIERS[tier])
        index = Index.build(points, spec)
        reopened = None
        try:
            assert index.spec.layout == "frozen"
            assert _served_shard_types(index) == {FrozenLSHIndex}
            references = _tier_reference(points, spec)
            _assert_shards_match(index, references, queries)

            # Enough inserts that every shard crosses the default
            # threshold: each starts a background re-freeze.
            num_shards = spec.num_shards
            new = rng.normal(size=(num_shards * (DEFAULT_REFREEZE_THRESHOLD + 1), 10))
            ids = index.insert(new)
            assert ids.tolist() == list(range(400, 400 + len(new)))
            route = ids % num_shards
            for s, reference in enumerate(references):
                reference.insert(new[route == s])
            queries = np.concatenate([queries, new[:3]])
            _assert_shards_match(index, references, queries)  # fold in flight or landed
            deadline = time.monotonic() + 60
            while _refreeze_generations(index) < num_shards:
                assert time.monotonic() < deadline, "background re-freeze never landed"
                time.sleep(0.01)
            _assert_shards_match(index, references, queries)

            path = str(tmp_path / "saved")
            index.save(path)
            meta = json.loads((tmp_path / "saved" / "index.json").read_text())
            assert meta["layout"] == "frozen" and meta["spec"]["layout"] == "frozen"
            assert sorted(p.name for p in (tmp_path / "saved").glob("shard_0*")) == [
                f"shard_{s:03d}.frozen" for s in range(num_shards)
            ]
            reopened = Index.open(path)
            assert _served_shard_types(reopened, path) == {FrozenLSHIndex}
            if tier != "processes":
                first = served_shards(reopened)[0]
                assert_file_backed(
                    first.frozen.members, os.path.join(path, "shard_000.frozen"), "members"
                )
            assert reopened.cost_model == index.cost_model  # no recalibration
            _assert_shards_match(reopened, references, queries)
        finally:
            index.close()
            if reopened is not None:
                reopened.close()

    def test_dict_layout_spec_is_refused_naming_the_reference(self):
        with pytest.raises(ConfigurationError, match="LSHIndex"):
            IndexSpec(metric="l2", radius=1.0, layout="dict")
        doc = IndexSpec(metric="l2", radius=1.0).to_dict()
        with pytest.raises(ConfigurationError, match="LSHIndex"):
            IndexSpec.from_dict({**doc, "layout": "dict"})

    @pytest.mark.parametrize("tag", [{"layout": "dict"}, {}], ids=["dict", "untagged"])
    def test_dict_artifact_is_refused_before_any_shard_file_opens(
        self, tag, tmp_path, monkeypatch
    ):
        from repro.api import persist

        opened = []
        for name in ("load_frozen_index", "read_shard_gids"):
            monkeypatch.setattr(persist, name, lambda *args: opened.append(args))
        spec = IndexSpec(metric="l2", radius=1.0, num_shards=2).to_dict()
        meta = {
            "format_version": 1, "spec": {**spec, "layout": "dict"}, "n": 10,
            "dim": 4, "num_shards": 2, "next_shard": 0,
            "cost_model": {"alpha": 1.0, "beta": 6.0}, **tag,
        }
        (tmp_path / "index.json").write_text(json.dumps(meta))
        for name in ("shard_000.npz", "shard_001.npz", "shard_gids.npz"):
            (tmp_path / name).write_bytes(b"not an archive")
        with pytest.raises(ConfigurationError, match='"dict"-layout artifact'):
            Index.open(str(tmp_path))
        assert opened == []


class TestCliFrozenLayout:
    def test_build_serve_frozen_artifact(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = str(tmp_path / "frozen-idx")
        assert main([
            "build", "--dataset", "corel", "--n", "400", "--queries", "8",
            "--tables", "6", "--out", out_dir,
        ]) == 0
        payload = capsys.readouterr().out
        assert '"layout": "frozen"' in payload
        index = Index.open(out_dir)
        assert index.spec.layout == "frozen"
        assert isinstance(index.engine.index, FrozenLSHIndex)
        index.close()
