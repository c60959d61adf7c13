"""Frozen covering layout: unit tests + bit-identity properties.

The covering index's tables have *different* key widths (one per bit
block), so this module also pins the padded fused-key-matrix design:
every primitive must agree byte-for-byte with the dict layout, the
no-false-negative guarantee must survive freezing and inserts, and the
artifact must reopen via ``np.load(mmap_mode="r")`` and serve under
``execution="processes"``.
"""

import numpy as np
import pytest
from conftest import reference_index
from test_frozen import assert_file_backed

from repro.api import Index, IndexSpec, QuerySpec
from repro.core import CostModel, HybridSearcher, LinearScan
from repro.core.adaptive import AdaptivePolicy
from repro.exceptions import ConfigurationError
from repro.index import CoveringLSHIndex, FrozenCoveringLSHIndex
from repro.index.frozen import load_frozen_index, save_frozen_index


def binary(rng, n, dim):
    return (rng.random((n, dim)) < 0.5).astype(np.float64)


def build_pair(n=250, dim=32, radius=4, seed=0):
    rng = np.random.default_rng(seed)
    points = binary(rng, n, dim)
    index = CoveringLSHIndex(dim=dim, radius=radius, seed=1).build(points)
    return rng, points, index, index.freeze(refreeze_threshold=8)


def assert_equal_results(a, b):
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.distances, b.distances)
    assert a.stats.strategy == b.stats.strategy
    assert a.stats.num_collisions == b.stats.num_collisions


class TestFreeze:
    def test_freeze_returns_frozen_covering(self):
        _, _, index, frozen = build_pair()
        assert isinstance(frozen, FrozenCoveringLSHIndex)
        assert frozen.layout == "frozen"
        assert frozen.variant == "covering"
        assert frozen.radius == index.radius
        assert frozen.num_tables == index.num_tables

    def test_key_width_is_widest_block(self):
        _, _, index, frozen = build_pair(dim=30, radius=3)
        widest = max(block.size for block in index._blocks)
        assert frozen.row_width == widest
        assert frozen.frozen.keys.shape[1] == widest

    def test_unbuilt_rejected(self):
        index = CoveringLSHIndex(dim=16, radius=2)
        with pytest.raises(Exception):
            index.freeze()


class TestBitIdentity:
    def test_primitives_agree(self):
        rng, points, index, frozen = build_pair()
        queries = np.concatenate([binary(rng, 6, 32), points[:2]])
        dict_lookups = [index.lookup(q) for q in queries]
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

    def test_dict_lookup_batch_matches_lookup_loop(self):
        rng, points, index, _ = build_pair()
        queries = np.concatenate([binary(rng, 5, 32), points[:2]])
        for qi, lookup in enumerate(index.lookup_batch(queries)):
            single = index.lookup(queries[qi])
            assert lookup.keys == single.keys
            assert lookup.num_collisions == single.num_collisions

    def test_queries_agree_single_and_batch(self):
        rng, points, index, frozen = build_pair()
        cm = CostModel.from_ratio(1.0)
        a, b = HybridSearcher(index, cm), HybridSearcher(frozen, cm)
        queries = np.concatenate([binary(rng, 6, 32), points[:2]])
        for q in queries:
            assert_equal_results(a.query(q, 4.0), b.query(q, 4.0))
        for ra, rb in zip(a.query_batch(queries, 4.0), b.query_batch(queries, 4.0)):
            assert_equal_results(ra, rb)

    def test_insert_then_refreeze_agree(self):
        rng, points, index, frozen = build_pair()
        cm = CostModel.from_ratio(1.0)
        a, b = HybridSearcher(index, cm), HybridSearcher(frozen, cm)
        queries = points[:5]
        new = binary(rng, 20, 32)
        assert np.array_equal(index.insert(new), frozen.insert(new))
        for q in queries:
            assert_equal_results(a.query(q, 4.0), b.query(q, 4.0))
        frozen.refreeze()
        assert frozen.overflow_count == 0
        for ra, rb in zip(a.query_batch(queries, 4.0), b.query_batch(queries, 4.0)):
            assert_equal_results(ra, rb)


class TestCoveringGuarantee:
    def test_no_false_negatives_after_freeze_and_insert(self):
        """The covering property must survive compaction and inserts."""
        rng, points, index, frozen = build_pair(radius=4)
        new = binary(rng, 30, 32)
        index.insert(new)
        frozen.insert(new)
        all_points = np.concatenate([points, new])
        scan = LinearScan(all_points, "hamming")
        for engine in (index, frozen):
            for i in (0, 7, 252, 270):
                q = all_points[i]
                truth = set(scan.query(q, radius=4.0).ids.tolist())
                got = set(engine.candidate_ids(engine.lookup(q)).tolist())
                assert truth <= got


class TestPersistence:
    def test_mmap_round_trip(self, tmp_path):
        rng, points, index, frozen = build_pair()
        path = str(tmp_path / "cov.frozen")
        save_frozen_index(frozen, path)
        reopened = load_frozen_index(path, mmap_mode="r")
        assert isinstance(reopened, FrozenCoveringLSHIndex)
        assert_file_backed(reopened.frozen.members, path, "members")
        assert [b.tolist() for b in reopened._blocks] == [
            b.tolist() for b in frozen._blocks
        ]
        cm = CostModel.from_ratio(1.0)
        a, b = HybridSearcher(frozen, cm), HybridSearcher(reopened, cm)
        queries = np.concatenate([binary(rng, 5, 32), points[:2]])
        for ra, rb in zip(a.query_batch(queries, 4.0), b.query_batch(queries, 4.0)):
            assert_equal_results(ra, rb)


class TestSpecAndFacade:
    def test_spec_validation(self):
        spec = IndexSpec(metric="hamming", radius=4.0, variant="covering")
        assert IndexSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ConfigurationError):
            IndexSpec(metric="l2", radius=4.0, variant="covering")
        with pytest.raises(ConfigurationError):
            IndexSpec(metric="hamming", radius=4.5, variant="covering")
        with pytest.raises(ConfigurationError):
            IndexSpec(metric="hamming", radius=4.0, variant="covering", k=3)

    def test_spec_refuses_a_probe_budget(self):
        """A covering index has no probe rings for a budget to trim; the
        budget used to fail at query time (``AttributeError`` on the
        missing fused kernel), now the spec refuses it up front."""
        budget = AdaptivePolicy(target_candidates=20)
        with pytest.raises(ConfigurationError, match="covering"):
            IndexSpec(metric="hamming", radius=4.0, variant="covering", adaptive=budget)
        document = IndexSpec(metric="hamming", radius=4.0, variant="covering").to_dict()
        with pytest.raises(ConfigurationError, match="covering"):
            IndexSpec.from_dict({**document, "adaptive": budget.to_dict()})
        # A policy that trims no probe (no target) still applies.
        unbudgeted = AdaptivePolicy(quality_floor=0.9)
        IndexSpec(metric="hamming", radius=4.0, variant="covering", adaptive=unbudgeted)

    @pytest.mark.parametrize("policy", [None, AdaptivePolicy(quality_floor=0.9)])
    def test_request_refuses_a_probe_budget(self, policy):
        """A request that would switch a budget on (opting in, or naming
        a target under an index-wide policy) is refused, not crashed."""
        rng = np.random.default_rng(5)
        points = binary(rng, 200, 32)
        spec = IndexSpec(
            metric="hamming", radius=4.0, variant="covering", adaptive=policy, seed=1
        )
        index = Index.build(points, spec)
        opt_in = None if policy is not None else True
        try:
            expected = index.query(QuerySpec(points[:4]))
            with pytest.raises(ConfigurationError, match="covering"):
                index.query(QuerySpec(points[:4], adaptive=opt_in, target_candidates=20))
            for ra, rb in zip(expected, index.query(QuerySpec(points[:4], adaptive=True))):
                assert np.array_equal(ra.ids, rb.ids)
        finally:
            index.close()

    def test_facade_matches_the_reference(self):
        rng = np.random.default_rng(3)
        points = binary(rng, 350, 32)
        spec = IndexSpec(metric="hamming", radius=4.0, variant="covering", seed=1)
        index = Index.build(points, spec)
        assert isinstance(index.engine.index, FrozenCoveringLSHIndex)
        reference = HybridSearcher(reference_index(points, spec), index.cost_model)
        assert isinstance(reference.index, CoveringLSHIndex)
        for ra, rb in zip(
            index.query(QuerySpec(points[:12])),
            reference.query_batch(points[:12], spec.radius),
        ):
            assert np.array_equal(ra.ids, rb.ids)
            assert np.array_equal(ra.distances, rb.distances)
        topk = index.query(QuerySpec(points[5], k=3))
        assert int(topk.ids[0]) == 5

    def test_facade_save_open(self, tmp_path):
        rng = np.random.default_rng(4)
        points = binary(rng, 300, 32)
        spec = IndexSpec(
            metric="hamming", radius=4.0, variant="covering",
            num_shards=2, seed=1,
        )
        index = Index.build(points, spec)
        expected = index.query(QuerySpec(points[:10]))
        path = str(tmp_path / "artifact")
        index.save(path)
        reopened = Index.open(path)
        for ra, rb in zip(expected, reopened.query(QuerySpec(points[:10]))):
            assert np.array_equal(ra.ids, rb.ids)
            assert np.array_equal(ra.distances, rb.distances)
        reopened.close()
        index.close()


class TestProcesses:
    def test_worker_pool_matches_threads(self):
        rng = np.random.default_rng(5)
        points = binary(rng, 300, 32)
        base = IndexSpec(
            metric="hamming", radius=4.0, variant="covering",
            num_shards=2, seed=1,
        )
        threads = Index.build(points, base)
        processes = Index.build(points, base.with_overrides(execution="processes"))
        try:
            a = threads.query(QuerySpec(points[:10]))
            b = processes.query(QuerySpec(points[:10]))
            for ra, rb in zip(a, b):
                assert np.array_equal(ra.ids, rb.ids)
                assert np.array_equal(ra.distances, rb.distances)
        finally:
            processes.close()
            threads.close()


# ----------------------------------------------------------------------
# Hypothesis properties (optional dependency)
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis"
)
from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def covering_scenario(draw):
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(40, 140))
    dim = draw(st.integers(8, 40))
    radius = draw(st.integers(1, 6))
    num_queries = draw(st.integers(1, 5))
    num_inserts = draw(st.integers(0, 12))
    return seed, n, dim, min(radius, dim - 1), num_queries, num_inserts


class TestCoveringProperties:
    @settings(max_examples=20, deadline=None)
    @given(covering_scenario())
    def test_dict_and_frozen_layouts_agree_everywhere(self, scenario):
        seed, n, dim, radius, num_queries, num_inserts = scenario
        rng = np.random.default_rng(seed)
        points = binary(rng, n, dim)
        index = CoveringLSHIndex(dim=dim, radius=radius, seed=seed).build(points)
        frozen = index.freeze(refreeze_threshold=4)
        cm = CostModel.from_ratio(2.0)
        a, b = HybridSearcher(index, cm), HybridSearcher(frozen, cm)
        queries = np.concatenate([binary(rng, num_queries, dim), points[:2]])
        q_radius = float(radius)
        for q in queries:
            assert_equal_results(a.query(q, q_radius), b.query(q, q_radius))
        for ra, rb in zip(
            a.query_batch(queries, q_radius), b.query_batch(queries, q_radius)
        ):
            assert_equal_results(ra, rb)
        if num_inserts:
            new = binary(rng, num_inserts, dim)
            assert np.array_equal(index.insert(new), frozen.insert(new))
            for q in queries:
                assert_equal_results(a.query(q, q_radius), b.query(q, q_radius))
            frozen.refreeze()
            for ra, rb in zip(
                a.query_batch(queries, q_radius), b.query_batch(queries, q_radius)
            ):
                assert_equal_results(ra, rb)
