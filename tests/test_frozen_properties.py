"""Property-based frozen-layout tests (hypothesis optional).

The frozen CSR layout's contract is bit-level agreement with the dict
layout for *every* buildable configuration, so these properties
generate random data, parameters, and queries and require exact
equality of radius answers, exact top-k answers, batch answers, and
answers after ``insert`` + re-freeze.

Step S1 itself is pinned one level down: on every frozen variant and at
every stage of an index's life, ``FrozenTables.locate`` must equal a
dict lookup of each probed ``(table, hash row)``, and a lone ``lookup``
must equal the matching row of ``lookup_batch`` — also when the 64-bit
address mix is forced to collide, so assembly and re-freeze re-salt.
"""

import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis"
)
from hypothesis import given, settings
from hypothesis import strategies as st

from test_adaptive import _spec, adaptive_case, dispatch_case
from test_frozen import assert_file_backed, colliding_mix

from repro.api import Index
from repro.core import CostModel, HybridSearcher
from repro.hashing import PStableLSH, SimHashLSH
from repro.index import LSHIndex
from repro.index import frozen as frozen_module
from repro.index.frozen import FrozenTables, load_frozen_index, save_frozen_index


@st.composite
def frozen_scenario(draw):
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(40, 160))
    dim = draw(st.integers(4, 10))
    k = draw(st.integers(1, 4))
    num_tables = draw(st.integers(2, 8))
    lazy = draw(st.sampled_from([None, 0, 2, 8]))
    family = draw(st.sampled_from(["pstable", "simhash"]))
    num_queries = draw(st.integers(1, 6))
    num_inserts = draw(st.integers(0, 12))
    return seed, n, dim, k, num_tables, lazy, family, num_queries, num_inserts


def build_indexes(seed, n, dim, k, num_tables, lazy, family):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    fam = PStableLSH(dim, w=2.0) if family == "pstable" else SimHashLSH(dim)
    index = LSHIndex(
        fam, k=k, num_tables=num_tables, lazy_threshold=lazy, seed=seed
    ).build(points)
    return rng, points, index, index.freeze(refreeze_threshold=4)


def assert_equal_results(a, b):
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.distances, b.distances)
    assert a.stats.strategy == b.stats.strategy
    assert a.stats.num_collisions == b.stats.num_collisions


class TestFrozenProperties:
    @settings(max_examples=25, deadline=None)
    @given(frozen_scenario())
    def test_dict_and_frozen_layouts_agree_everywhere(self, scenario):
        seed, n, dim, k, num_tables, lazy, family, num_queries, num_inserts = scenario
        rng, points, index, frozen = build_indexes(
            seed, n, dim, k, num_tables, lazy, family
        )
        cm = CostModel.from_ratio(6.0)
        dict_searcher = HybridSearcher(index, cm)
        frozen_searcher = HybridSearcher(frozen, cm)
        queries = np.concatenate(
            [rng.normal(size=(num_queries, dim)), points[:2]]
        )
        radius = float(0.5 + rng.uniform(0.0, 2.0))

        # Radius: single and batched.
        for q in queries:
            assert_equal_results(
                dict_searcher.query(q, radius), frozen_searcher.query(q, radius)
            )
        for ra, rb in zip(
            dict_searcher.query_batch(queries, radius),
            frozen_searcher.query_batch(queries, radius),
        ):
            assert_equal_results(ra, rb)

        # Exact top-k over the same points (facade route shares the
        # data matrix, so equality is over the frozen index's points).
        assert np.shares_memory(index.points, frozen.points) or np.array_equal(
            index.points, frozen.points
        )

        # Inserts: overflow side-table, then automatic/explicit re-freeze.
        if num_inserts:
            new = rng.normal(size=(num_inserts, dim))
            assert np.array_equal(index.insert(new), frozen.insert(new))
            for q in queries:
                assert_equal_results(
                    dict_searcher.query(q, radius), frozen_searcher.query(q, radius)
                )
            frozen.refreeze()
            for ra, rb in zip(
                dict_searcher.query_batch(queries, radius),
                frozen_searcher.query_batch(queries, radius),
            ):
                assert_equal_results(ra, rb)

    @settings(max_examples=15, deadline=None)
    @given(frozen_scenario())
    def test_primitives_agree(self, scenario):
        seed, n, dim, k, num_tables, lazy, family, num_queries, _ = scenario
        rng, points, index, frozen = build_indexes(
            seed, n, dim, k, num_tables, lazy, family
        )
        queries = np.concatenate([rng.normal(size=(num_queries, dim)), points[:1]])
        dict_lookups = index.lookup_batch(queries)
        frozen_lookups = frozen.lookup_batch(queries)
        for la, lb in zip(dict_lookups, frozen_lookups):
            assert la.num_collisions == lb.num_collisions
            assert np.array_equal(
                index.candidate_ids(la, dedup="vectorized"),
                frozen.candidate_ids(lb, dedup="vectorized"),
            )
            assert np.array_equal(
                index.merged_sketch(la).registers,
                frozen.merged_sketch(lb).registers,
            )
        assert np.array_equal(
            index.merged_estimates_batch(dict_lookups),
            frozen.merged_estimates_batch(frozen_lookups),
        )


def _reference_locate(frozen, slot_rows, slot_tables):
    """``locate`` by dict: every ``(table, hash row)`` -> global bucket."""
    bounds = frozen.table_slices.tolist()
    buckets = {
        (t, tuple(frozen.keys[b].tolist())): b
        for t in range(frozen.num_tables)
        for b in range(bounds[t], bounds[t + 1])
    }
    if slot_tables is None:
        slot_tables = range(frozen.num_tables)
    return [
        [
            buckets.get((int(t), tuple(row)), -1)
            for t, row in zip(slot_tables, rows)
        ]
        for rows in slot_rows.tolist()
    ]


def _checked_locate(calls):
    """``FrozenTables.locate``, every call compared with the reference."""
    real = FrozenTables.locate

    def locate(self, slot_rows, slot_tables=None):
        out = real(self, slot_rows, slot_tables)
        assert out.dtype == np.int64 and out.shape == slot_rows.shape[:2]
        assert out.tolist() == _reference_locate(self, slot_rows, slot_tables)
        calls.append(out)
        return out

    return locate


def _assert_sequential_equals_batched(raw, queries):
    for query, row in zip(queries, raw.lookup_batch(queries)):
        solo = raw.lookup(query)
        assert np.array_equal(solo.bucket_ids, row.bucket_ids)
        assert solo.num_collisions == row.num_collisions
        assert solo.largest_bucket == row.largest_bucket
        assert (solo.overflow is None) == (row.overflow is None)
        if solo.overflow is not None:  # the overflow tables' own buckets
            assert len(solo.overflow) == len(row.overflow)
            assert all(a is b for a, b in zip(solo.overflow, row.overflow))


def _check_locate_through_a_life(case, salted=False):
    """Build -> overflow insert -> re-freeze -> save -> mmap reopen, every
    ``locate`` checked against the reference.  ``salted`` makes the mix
    collide under salt 0 at the build and under the build's salt at the
    re-freeze, so both must move on to a fresh one."""
    points, queries, inserts, overrides = case
    calls, colliding = [], set()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FrozenTables, "locate", _checked_locate(calls))
        if salted:
            colliding.add(0)
            patch.setattr(frozen_module, "_mix_rows", colliding_mix(colliding))
        index = Index.build(points, _spec(**{**overrides, "layout": "frozen"}))
        raw = index.engine.index
        built_salt = raw.frozen.salt
        assert (built_salt > 0) == salted
        _assert_sequential_equals_batched(raw, queries)
        raw.insert(inserts)  # below the threshold: an overflow generation
        queries = np.concatenate([queries, inserts[:3]])
        _assert_sequential_equals_batched(raw, queries)
        assert raw.lookup_batch(queries)[0].overflow is not None
        if salted:
            colliding.add(built_salt)
        raw.refreeze()
        assert (raw.frozen.salt > built_salt) == salted
        _assert_sequential_equals_batched(raw, queries)
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "index")
            save_frozen_index(raw, path)
            reopened = load_frozen_index(path)
            assert_file_backed(reopened.frozen.key64, path, "key64")
            assert_file_backed(reopened.frozen.keys, path, "keys")
            assert reopened.frozen.salt == raw.frozen.salt
            _assert_sequential_equals_batched(reopened, queries)
            for a, b in zip(
                raw.lookup_batch(queries), reopened.lookup_batch(queries)
            ):
                assert np.array_equal(a.bucket_ids, b.bucket_ids)
    assert any((out >= 0).any() for out in calls)  # the check saw real hits


class TestStepS1Properties:
    @settings(max_examples=15, deadline=None)
    @given(dispatch_case())
    def test_locate_is_a_dict_lookup_at_every_stage(self, case):
        _check_locate_through_a_life(case)

    @settings(max_examples=8, deadline=None)
    @given(dispatch_case())
    def test_locate_survives_forced_salt_changes(self, case):
        _check_locate_through_a_life(case, salted=True)

    @settings(max_examples=10, deadline=None)
    @given(adaptive_case())
    def test_budgeted_lookups_locate_the_same_slots(self, case):
        points, queries, target, seed = case
        raw = Index.build(points, _spec(seed=seed % 97)).engine.index
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FrozenTables, "locate", _checked_locate(calls))
            fixed = raw.lookup_batch(queries)
            trimmed, _, _ = raw.lookup_batch_adaptive(queries, target)
        assert len(calls) == 2 and np.array_equal(*calls)
        for full, kept in zip(fixed, trimmed):  # a budget only blanks slots
            blanked = kept.bucket_ids != full.bucket_ids
            assert (kept.bucket_ids[blanked] == -1).all()
