"""Frozen CSR layout: bit-identical to the dict layout, mmap round-trip.

The frozen layout's contract is *exact agreement* with the dict layout
it was frozen from — every query-side primitive, every engine above it,
before and after inserts, and across a save/``np.load(mmap_mode="r")``
reopen.  These tests assert that contract at the bit level and pin the
structural properties (CSR consistency, overflow re-freeze, zero-copy
persistence) the serving path relies on.
"""

import json

import numpy as np
import pytest

from repro.core import CostModel, HybridSearcher
from repro.exceptions import ConfigurationError
from repro.hashing import PStableLSH, SimHashLSH
from repro.index import FrozenLSHIndex, LSHIndex, MultiProbeLSHIndex
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
        # Keys sorted within each table segment.
        for t in range(csr.num_tables):
            lo, hi = int(csr.table_slices[t]), int(csr.table_slices[t + 1])
            segment = csr.keys[lo:hi]
            assert np.array_equal(np.sort(segment), segment)

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
        assert all(not t.buckets for t in frozen.tables)

    def test_auto_refreeze_inline_when_background_disabled(self):
        points, index, _ = build_pair()
        frozen = index.freeze(refreeze_threshold=8)
        frozen.background_refreeze = False
        rng = np.random.default_rng(6)
        frozen.insert(rng.normal(size=(9, 12)))
        assert frozen.overflow_count == 0  # compacted on the insert itself
        assert all(not t.buckets for t in frozen.tables)


def hand_tables(*tables, width=2):
    """A :class:`FrozenTables` over hand-picked keys: each table's keys
    in sorted order, one single-member bucket per key."""
    per_table, next_id = [], 0
    for keys in tables:
        per_table.append(
            (
                np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), width),
                np.ones(len(keys), dtype=np.int64),
                np.arange(next_id, next_id + len(keys), dtype=np.intp),
            )
        )
        next_id += len(keys)
    return FrozenTables.assemble(
        per_table, width, hll_hashes=None, lazy_threshold=0, hll_precision=4
    )


def needles(*rows, width=2):
    """The ``(q, S)`` void key matrix of ``q`` rows of ``width``-byte keys."""
    raw = np.frombuffer(b"".join(key for row in rows for key in row), dtype=np.uint8)
    return raw.reshape(len(rows), -1, width).view(np.dtype((np.void, width)))[:, :, 0]


class TestLocate:
    """``FrozenTables.locate`` on hand-built tables: the corners a
    random index rarely reaches.  Bucket ``b`` is the ``b``-th key
    overall, tables concatenated in order."""

    def test_result_is_query_major_int64(self):
        tables = hand_tables([b"aa", b"cc"], [b"bb", b"cc", b"dd"])
        got = tables.locate(
            needles([b"cc", b"cc"], [b"aa", b"zz"], [b"ab", b"bb"])
        )
        assert got.dtype == np.int64
        assert got.tolist() == [[1, 3], [0, -1], [-1, 2]]

    def test_probe_slots_stay_grouped_by_table(self):
        tables = hand_tables([b"aa", b"cc"], [b"bb", b"cc", b"dd"])
        keys = needles([b"cc", b"xx", b"dd", b"bb"], [b"aa", b"cc", b"cc", b"aa"])
        assert tables.locate(keys, 2).tolist() == [[1, -1, 4, 2], [0, 1, 3, -1]]

    def test_empty_batch(self):
        tables = hand_tables([b"aa"], [b"bb"])
        got = tables.locate(np.empty((0, 2), dtype=np.dtype((np.void, 2))))
        assert got.shape == (0, 2) and got.dtype == np.int64

    def test_table_with_an_empty_segment(self):
        tables = hand_tables([b"aa"], [], [b"aa", b"bb"])
        # The empty table's position is the next table's first bucket,
        # which holds the very bytes probed: still a miss.
        assert tables.locate(needles([b"aa", b"aa", b"aa"])).tolist() == [[0, -1, 1]]

    def test_needle_past_the_last_key_never_takes_the_next_tables_bucket(self):
        tables = hand_tables([b"aa", b"bb"], [b"zz"], [b"cc"])
        # Table 0: b"zz" sorts past b"bb", onto table 1's first bucket —
        # whose key is b"zz".  Table 2: past the last bucket of all.
        assert tables.locate(needles([b"zz", b"zz", b"zz"])).tolist() == [[-1, 2, -1]]

    def test_needle_below_every_key(self):
        tables = hand_tables([b"bb", b"cc"], [b"bb"])
        assert tables.locate(needles([b"aa", b"aa"])).tolist() == [[-1, -1]]

    def test_no_buckets_at_all(self):
        tables = hand_tables([], [])
        assert tables.locate(needles([b"aa", b"aa"])).tolist() == [[-1, -1]]

    @pytest.mark.parametrize("columns, probes", [(3, 1), (2, 2), (5, 2)])
    def test_column_count_must_be_tables_times_probes(self, columns, probes):
        tables = hand_tables([b"aa"], [b"bb"])
        with pytest.raises(ValueError, match="2 tables x"):
            tables.locate(needles([b"aa"] * columns), probes)


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
        for array in (loaded.points, loaded.frozen.members, loaded.frozen.registers):
            assert isinstance(array, np.memmap)
        rng = np.random.default_rng(8)
        queries = np.concatenate([rng.normal(size=(6, 12)), points[:4]])
        cm = CostModel.from_ratio(6.0)
        a, b = HybridSearcher(frozen, cm), HybridSearcher(loaded, cm)
        for q in queries:
            assert_results_equal(a.query(q, 1.5), b.query(q, 1.5))

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
        assert isinstance(engine_index.frozen.members, np.memmap)
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
