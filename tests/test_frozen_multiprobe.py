"""Frozen multi-probe layout: unit tests + bit-identity properties.

The contract is the same as the plain frozen layout's
(:mod:`tests.test_frozen`): byte-level agreement with the dict-layout
:class:`~repro.index.multiprobe_index.MultiProbeLSHIndex` for every
primitive and every serving path — single queries, batches, exact
top-k, inserts through the overflow side-table, re-freeze, a
save/``np.load(mmap_mode="r")`` reopen, and the
``execution="processes"`` worker pool.
"""

import numpy as np
import pytest
from conftest import reference_index
from test_frozen import assert_file_backed

from repro.api import Index, IndexSpec, QuerySpec
from repro.core import CostModel, HybridSearcher
from repro.exceptions import ConfigurationError
from repro.hashing import PStableLSH, SimHashLSH
from repro.index import FrozenMultiProbeLSHIndex, LSHIndex, MultiProbeLSHIndex
from repro.index.frozen import load_frozen_index, save_frozen_index


def build_pair(family="pstable", num_probes=3, n=300, dim=10, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    fam = (
        PStableLSH(dim, w=2.0, seed=1)
        if family == "pstable"
        else SimHashLSH(dim, seed=1)
    )
    index = MultiProbeLSHIndex(
        fam, k=3, num_tables=5, num_probes=num_probes, seed=2
    ).build(points)
    return rng, points, index, index.freeze(refreeze_threshold=8)


def assert_equal_results(a, b):
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.distances, b.distances)
    assert a.stats.strategy == b.stats.strategy
    assert a.stats.num_collisions == b.stats.num_collisions


class TestFreeze:
    def test_freeze_returns_frozen_multiprobe(self):
        _, _, index, frozen = build_pair()
        assert isinstance(frozen, FrozenMultiProbeLSHIndex)
        assert frozen.layout == "frozen"
        assert frozen.variant == "multiprobe"
        assert frozen.num_probes == index.num_probes

    def test_unbuilt_rejected(self):
        index = MultiProbeLSHIndex(SimHashLSH(8, seed=0), k=2, num_tables=3)
        with pytest.raises(Exception):
            index.freeze()

    def test_probe_slots(self):
        _, _, index, frozen = build_pair(num_probes=3)
        assert frozen.num_slots == frozen.num_tables * 4
        assert frozen.probe_count == 3

    def test_probe_enumeration_may_run_dry(self):
        """k=1 binary hashes only have one flip; the frozen layout
        truncates exactly like the dict layout."""
        rng = np.random.default_rng(0)
        points = rng.normal(size=(120, 6))
        index = MultiProbeLSHIndex(
            SimHashLSH(6, seed=1), k=1, num_tables=4, num_probes=5, seed=2
        ).build(points)
        frozen = index.freeze()
        # one flip + nothing at weight 2 for k=1
        assert frozen.probe_count == 1
        for q in points[:5]:
            assert np.array_equal(
                index.candidate_ids(index.lookup(q)),
                frozen.candidate_ids(frozen.lookup(q)),
            )

    def test_zero_probes_degenerates_to_plain(self):
        rng, points, index, frozen = build_pair(num_probes=0)
        plain = LSHIndex(
            PStableLSH(10, w=2.0, seed=1), k=3, num_tables=5, seed=2
        ).build(points)
        q = points[0]
        assert np.array_equal(
            frozen.candidate_ids(frozen.lookup(q)),
            plain.candidate_ids(plain.lookup(q)),
        )


class TestBitIdentity:
    @pytest.mark.parametrize("family", ["pstable", "simhash"])
    def test_primitives_agree(self, family):
        rng, points, index, frozen = build_pair(family)
        queries = np.concatenate([rng.normal(size=(5, 10)), points[:2]])
        dict_lookups = index.lookup_batch(queries)
        frozen_lookups = frozen.lookup_batch(queries)
        for la, lb in zip(dict_lookups, frozen_lookups):
            assert la.num_collisions == lb.num_collisions
            assert np.array_equal(
                index.candidate_ids(la, dedup="vectorized"),
                frozen.candidate_ids(lb, dedup="vectorized"),
            )
            assert np.array_equal(
                index.candidate_ids(la, dedup="scalar"),
                frozen.candidate_ids(lb, dedup="scalar"),
            )
            assert np.array_equal(
                index.merged_sketch(la).registers,
                frozen.merged_sketch(lb).registers,
            )
        assert np.array_equal(
            index.merged_estimates_batch(dict_lookups),
            frozen.merged_estimates_batch(frozen_lookups),
        )

    @pytest.mark.parametrize("family", ["pstable", "simhash"])
    def test_queries_agree_single_and_batch(self, family):
        rng, points, index, frozen = build_pair(family)
        cm = CostModel.from_ratio(6.0)
        a, b = HybridSearcher(index, cm), HybridSearcher(frozen, cm)
        queries = np.concatenate([rng.normal(size=(6, 10)), points[:2]])
        for q in queries:
            assert_equal_results(a.query(q, 1.5), b.query(q, 1.5))
        for ra, rb in zip(a.query_batch(queries, 1.5), b.query_batch(queries, 1.5)):
            assert_equal_results(ra, rb)

    def test_insert_then_refreeze_agree(self):
        rng, points, index, frozen = build_pair()
        cm = CostModel.from_ratio(6.0)
        a, b = HybridSearcher(index, cm), HybridSearcher(frozen, cm)
        queries = np.concatenate([rng.normal(size=(4, 10)), points[:2]])
        new = rng.normal(size=(20, 10))
        assert np.array_equal(index.insert(new), frozen.insert(new))
        # Overflow generation live (insert crossed the threshold of 8,
        # so a background compaction may also be in flight).
        for q in queries:
            assert_equal_results(a.query(q, 1.5), b.query(q, 1.5))
        frozen.refreeze()
        assert frozen.overflow_count == 0
        for ra, rb in zip(a.query_batch(queries, 1.5), b.query_batch(queries, 1.5)):
            assert_equal_results(ra, rb)

    def test_probe_hits_inserted_points_in_overflow(self):
        """A probe (non-home) key must find overflow buckets too."""
        rng, points, index, frozen = build_pair(
            family="simhash", num_probes=4, seed=3
        )
        new = rng.normal(size=(6, 10))
        index.insert(new)
        frozen.insert(new)
        for q in rng.normal(size=(6, 10)):
            assert np.array_equal(
                index.candidate_ids(index.lookup(q)),
                frozen.candidate_ids(frozen.lookup(q)),
            )


class TestPersistence:
    def test_mmap_round_trip(self, tmp_path):
        rng, points, index, frozen = build_pair()
        path = str(tmp_path / "mp.frozen")
        save_frozen_index(frozen, path)
        reopened = load_frozen_index(path, mmap_mode="r")
        assert isinstance(reopened, FrozenMultiProbeLSHIndex)
        assert reopened.num_probes == frozen.num_probes
        # Arrays really are memory-mapped, not copies.
        assert_file_backed(reopened.frozen.members, path, "members")
        cm = CostModel.from_ratio(6.0)
        a, b = HybridSearcher(frozen, cm), HybridSearcher(reopened, cm)
        queries = np.concatenate([rng.normal(size=(5, 10)), points[:2]])
        for ra, rb in zip(a.query_batch(queries, 1.5), b.query_batch(queries, 1.5)):
            assert_equal_results(ra, rb)

    def test_insert_into_mmap_reopen(self, tmp_path):
        rng, points, index, frozen = build_pair()
        path = str(tmp_path / "mp.frozen")
        save_frozen_index(frozen, path)
        reopened = load_frozen_index(path, mmap_mode="r")
        new = rng.normal(size=(12, 10))
        frozen.insert(new)
        reopened.insert(new)
        frozen.refreeze()
        reopened.refreeze()
        cm = CostModel.from_ratio(6.0)
        a, b = HybridSearcher(frozen, cm), HybridSearcher(reopened, cm)
        for q in points[:4]:
            assert_equal_results(a.query(q, 1.5), b.query(q, 1.5))


class TestSpecAndFacade:
    def test_spec_round_trip(self):
        spec = IndexSpec(
            metric="l2", radius=1.0, variant="multiprobe", num_probes=4
        )
        assert IndexSpec.from_dict(spec.to_dict()) == spec

    def test_spec_rejects_bad_variant(self):
        with pytest.raises(ConfigurationError):
            IndexSpec(metric="l2", radius=1.0, variant="bogus")
        with pytest.raises(ConfigurationError):
            IndexSpec(metric="l2", radius=1.0, num_probes=-1)

    def test_facade_matches_the_reference(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(400, 12))
        spec = IndexSpec(
            metric="l2", radius=1.0, num_tables=6,
            variant="multiprobe", num_probes=3, seed=1,
        )
        index = Index.build(points, spec)
        assert isinstance(index.engine.index, FrozenMultiProbeLSHIndex)
        reference = HybridSearcher(reference_index(points, spec), index.cost_model)
        assert isinstance(reference.index, MultiProbeLSHIndex)
        for ra, rb in zip(
            index.query(QuerySpec(points[:15])),
            reference.query_batch(points[:15], spec.radius),
        ):
            assert np.array_equal(ra.ids, rb.ids)
            assert np.array_equal(ra.distances, rb.distances)
        topk = index.query(QuerySpec(points[7], k=5))
        assert topk.ids.shape == (5,)
        assert int(topk.ids[0]) == 7

    def test_facade_save_open_sharded(self, tmp_path):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(400, 12))
        spec = IndexSpec(
            metric="l2", radius=1.0, num_tables=6, num_shards=3,
            variant="multiprobe", num_probes=3, seed=1,
        )
        index = Index.build(points, spec)
        expected = index.query(QuerySpec(points[:10]))
        path = str(tmp_path / "artifact")
        index.save(path)
        reopened = Index.open(path)
        got = reopened.query(QuerySpec(points[:10]))
        for ra, rb in zip(expected, got):
            assert np.array_equal(ra.ids, rb.ids)
            assert np.array_equal(ra.distances, rb.distances)
        reopened.close()
        index.close()


class TestProcesses:
    def test_worker_pool_matches_threads(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(400, 12))
        base = IndexSpec(
            metric="l2", radius=1.0, num_tables=6, num_shards=2,
            variant="multiprobe", num_probes=3, seed=1,
        )
        threads = Index.build(points, base)
        processes = Index.build(points, base.with_overrides(execution="processes"))
        try:
            a = threads.query(QuerySpec(points[:12]))
            b = processes.query(QuerySpec(points[:12]))
            for ra, rb in zip(a, b):
                assert np.array_equal(ra.ids, rb.ids)
                assert np.array_equal(ra.distances, rb.distances)
            new = points[:4] + 1e-3
            assert np.array_equal(threads.insert(new), processes.insert(new))
            a = threads.query(QuerySpec(points[:12]))
            b = processes.query(QuerySpec(points[:12]))
            for ra, rb in zip(a, b):
                assert np.array_equal(ra.ids, rb.ids)
        finally:
            processes.close()
            threads.close()


# ----------------------------------------------------------------------
# Hypothesis properties (optional dependency, mirrors test_frozen_properties)
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis"
)
from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def multiprobe_scenario(draw):
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(40, 140))
    dim = draw(st.integers(4, 10))
    k = draw(st.integers(1, 4))
    num_tables = draw(st.integers(2, 6))
    num_probes = draw(st.integers(0, 5))
    family = draw(st.sampled_from(["pstable", "simhash"]))
    num_queries = draw(st.integers(1, 5))
    num_inserts = draw(st.integers(0, 12))
    return seed, n, dim, k, num_tables, num_probes, family, num_queries, num_inserts


class TestMultiProbeProperties:
    @settings(max_examples=20, deadline=None)
    @given(multiprobe_scenario())
    def test_dict_and_frozen_layouts_agree_everywhere(self, scenario):
        (
            seed, n, dim, k, num_tables, num_probes, family,
            num_queries, num_inserts,
        ) = scenario
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, dim))
        fam = PStableLSH(dim, w=2.0) if family == "pstable" else SimHashLSH(dim)
        index = MultiProbeLSHIndex(
            fam, k=k, num_tables=num_tables, num_probes=num_probes, seed=seed
        ).build(points)
        frozen = index.freeze(refreeze_threshold=4)
        cm = CostModel.from_ratio(6.0)
        a, b = HybridSearcher(index, cm), HybridSearcher(frozen, cm)
        queries = np.concatenate([rng.normal(size=(num_queries, dim)), points[:2]])
        radius = float(0.5 + rng.uniform(0.0, 2.0))
        for q in queries:
            assert_equal_results(a.query(q, radius), b.query(q, radius))
        for ra, rb in zip(a.query_batch(queries, radius), b.query_batch(queries, radius)):
            assert_equal_results(ra, rb)
        if num_inserts:
            new = rng.normal(size=(num_inserts, dim))
            assert np.array_equal(index.insert(new), frozen.insert(new))
            for q in queries:
                assert_equal_results(a.query(q, radius), b.query(q, radius))
            frozen.refreeze()
            for ra, rb in zip(
                a.query_batch(queries, radius), b.query_batch(queries, radius)
            ):
                assert_equal_results(ra, rb)
