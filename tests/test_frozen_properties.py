"""Property-based frozen-layout tests (hypothesis optional).

The frozen CSR layout's contract is bit-level agreement with the dict
layout for *every* buildable configuration, so these properties
generate random data, parameters, and queries and require exact
equality of radius answers, exact top-k answers, batch answers, and
answers after ``insert`` + re-freeze.

Step S1 itself is pinned one level down: on every frozen variant and at
every stage of an index's life, ``FrozenTables.locate`` must equal a
dict lookup of each probed ``(table, hash row)`` (a bucket's row being
its members' re-hashed row), and a lone ``lookup`` must equal the
matching row of ``lookup_batch`` — also when the 64-bit address mix is
forced to collide at the build, so it re-salts.

The overflow generations are held to the same standard: through build,
inserts, a background fold held open (two live runs), its landing, a
synchronous re-freeze, save and mmap reopen, every run's entry ranges
equal a dict built from the run's own points, every primitive equals
the dict-layout ``LSHIndex`` reference's (built from the same spec and
seed), and the folded arrays equal a fresh ``assemble`` over everything
— and a fresh ``build`` of all the points, inline fold or background.

These equalities are the contract's common case.  Past the build an
address hit is a hit: a row that aliases another row's address (about
``B_t / 2**58`` a probe, ``B_t`` the table's bucket count) reads, and
once folded joins, that row's bucket.  Answers stay exact — Step S3's
distance test judges every candidate — and only ``QueryStats`` counts
may then differ from the reference's;
``TestOverflowAddressCollisions`` forces such aliases and checks that.
"""

import os
import tempfile
import threading

import numpy as np
import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis"
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import max_examples
from test_batch_steps import _serve_generations
from test_adaptive import (
    _dispatch_case,
    _spec,
    adaptive_case,
    dispatch_case,
    reference_index,
)
from test_frozen import assert_file_backed, colliding_mix
from test_overflow import (
    VARIANTS,
    assert_equals_twin,
    assert_runs_are_dict_lookups,
)

from repro.api import Index
from repro.core import CostModel, HybridSearcher, LinearScan, LSHSearch
from repro.hashing import PStableLSH, SimHashLSH
from repro.index import LSHIndex
from repro.index.frozen import tables as frozen_tables
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


def _bucket_rows(raw, frozen):
    """Each stored bucket's hash row: its first member re-hashed."""
    first = frozen.members[frozen.offsets[:-1]].astype(np.intp)
    rows = raw._insert_rows(np.asarray(raw.points[first]))  # (B, L, w)
    tables = np.repeat(np.arange(frozen.num_tables), np.diff(frozen.table_slices))
    return rows[np.arange(first.size), tables]


def _reference_locate(frozen, bucket_rows, slot_rows, slot_tables):
    """``locate`` by dict: every ``(table, hash row)`` -> global bucket."""
    bounds = frozen.table_slices.tolist()
    buckets = {
        (t, tuple(bucket_rows[b].tolist())): b
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


def _checked_locate(calls, owner):
    """``FrozenTables.locate``, every call compared with the reference
    over the arrays of ``owner[-1]`` (unchecked while ``owner`` is empty)."""
    real = FrozenTables.locate

    def locate(self, slot_rows, slot_tables=None):
        out = real(self, slot_rows, slot_tables)
        assert out.dtype == np.int64 and out.shape == slot_rows.shape[:2]
        if owner:
            rows = _bucket_rows(owner[-1], self)
            assert out.tolist() == _reference_locate(self, rows, slot_rows, slot_tables)
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
        if solo.overflow is not None:  # the same entry ranges of the same runs
            assert np.array_equal(solo.overflow, row.overflow)


def _check_locate_through_a_life(case, salted=False):
    """Build -> overflow insert -> re-freeze -> save -> mmap reopen, every
    ``locate`` checked against the reference.  ``salted`` makes the mix
    collide under salt 0, so the build must move on to a fresh salt —
    which the fold then keeps (it reads no row)."""
    points, queries, inserts, overrides = case
    calls, owner = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FrozenTables, "locate", _checked_locate(calls, owner))
        if salted:
            patch.setattr(frozen_tables, "_mix_rows", colliding_mix({0}))
        index = Index.build(points, _spec(**overrides))
        raw = index.engine.index
        owner.append(raw)
        built_salt = raw.frozen.salt
        assert (built_salt > 0) == salted
        _assert_sequential_equals_batched(raw, queries)
        raw.insert(inserts)  # below the threshold: an overflow generation
        queries = np.concatenate([queries, inserts[:3]])
        _assert_sequential_equals_batched(raw, queries)
        assert raw.lookup_batch(queries)[0].overflow is not None
        raw.refreeze()
        assert raw.frozen.salt == built_salt
        _assert_sequential_equals_batched(raw, queries)
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "index")
            save_frozen_index(raw, path)
            reopened = load_frozen_index(path)
            owner.append(reopened)
            assert_file_backed(reopened.frozen.key64, path, "key64")
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
    def test_locate_survives_a_forced_salt_change_at_the_build(self, case):
        _check_locate_through_a_life(case, salted=True)

    @settings(max_examples=10, deadline=None)
    @given(adaptive_case())
    def test_budgeted_lookups_locate_the_same_slots(self, case):
        points, queries, target, seed = case
        raw = Index.build(points, _spec(seed=seed % 97)).engine.index
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FrozenTables, "locate", _checked_locate(calls, [raw]))
            fixed = raw.lookup_batch(queries)
            trimmed, _, _ = raw.lookup_batch_adaptive(queries, target)
        assert len(calls) == 2 and np.array_equal(*calls)
        for full, kept in zip(fixed, trimmed):  # a budget only blanks slots
            blanked = kept.bucket_ids != full.bucket_ids
            assert (kept.bucket_ids[blanked] == -1).all()



def _walk_case(seed, n, variant, generations, target, min_probes):
    """A Fig. 1 landscape at zero or four probes, inserts for
    ``generations`` live runs, and a probe budget."""
    points, queries, inserts, overrides = _dispatch_case(seed, n, variant, 1.0, 24)
    parts = np.array_split(inserts, generations) if generations else []
    queries = np.concatenate([queries, inserts[:3]])
    return points, queries, parts, overrides, target, min_probes


@st.composite
def walk_case(draw):
    return _walk_case(
        seed=draw(st.integers(0, 2**16)),
        n=draw(st.integers(150, 400)),
        variant=draw(st.sampled_from(["zero-probes", "multiprobe"])),
        generations=draw(st.integers(0, 2)),
        target=draw(st.integers(1, 120)),
        min_probes=draw(st.integers(0, 2)),
    )


class TestBudgetedWalkProperties:
    """The frozen ring walk is the dict reference's, beside live runs:
    the same stop rings and certificates, and each trimmed lookup is the
    full one with the slots beyond its stop ring blanked."""

    @settings(max_examples=max_examples(15), deadline=None)
    @given(walk_case())
    @example(_walk_case(3, 300, "multiprobe", 2, 40, 0))
    @example(_walk_case(5, 250, "zero-probes", 1, 30, 0))
    @example(_walk_case(7, 400, "multiprobe", 0, 60, 1))
    def test_frozen_walk_is_the_dict_walk(self, case):
        points, queries, parts, overrides, target, min_probes = case
        index = Index.build(points, _spec(**overrides))
        raw, spec = index.engine.index, index.spec
        reference = reference_index(points, spec)
        _serve_generations(raw, parts)
        for part in parts:
            reference.insert(part)
        full = raw.lookup_batch(queries)
        lookups, probes, certified = raw.lookup_batch_adaptive(
            queries, target, min_probes=min_probes
        )
        theirs, their_probes, their_certified = reference.lookup_batch_adaptive(
            queries, target, min_probes=min_probes
        )
        assert probes.dtype == np.int64 and certified.dtype == bool
        assert np.array_equal(probes, their_probes)
        assert np.array_equal(certified, their_certified)
        rings = raw.num_slots // raw.num_tables
        slot_rings = np.tile(np.arange(rings), raw.num_tables)
        for lookup, whole, ref, stop in zip(lookups, full, theirs, probes.tolist()):
            kept = slot_rings <= stop
            assert np.array_equal(lookup.bucket_ids, np.where(kept, whole.bucket_ids, -1))
            if parts:
                spans = lookup.overflow[:, 1] - lookup.overflow[:, 0]
                assert (spans[:, ~kept] == 0).all()
                assert np.array_equal(lookup.overflow[:, :, kept], whole.overflow[:, :, kept])
            assert (lookup.num_collisions, lookup.largest_bucket) == (
                ref.num_collisions,
                ref.largest_bucket,
            )
            assert np.array_equal(
                raw.candidate_ids(lookup), np.sort(reference.candidate_ids(ref))
            )
        assert np.array_equal(
            raw.merged_estimates_batch(lookups), reference.merged_estimates_batch(theirs)
        )
        index.close()


# ----------------------------------------------------------------------
# The overflow runs through a life
# ----------------------------------------------------------------------

_TABLE_ARRAYS = (
    "key64", "table_slices", "offsets", "members", "sketched", "registers",
)


def _hold_background_folds(patch):
    """Background folds block in ``folded`` until the returned event is set."""
    gate = threading.Event()
    folded = FrozenTables.folded

    def gated(self, *args, **kwargs):
        if threading.current_thread().name == "repro-refreeze":
            assert gate.wait(timeout=60)
        return folded(self, *args, **kwargs)

    patch.setattr(FrozenTables, "folded", gated)
    return gate


def _build_twins(points, overrides):
    """The frozen index under test and its ``LSHIndex`` reference."""
    spec = _spec(**overrides)
    return Index.build(points, spec).engine.index, reference_index(points, spec)


def _assert_stage(raw, twin, queries, live_runs):
    assert assert_runs_are_dict_lookups(raw, queries) == live_runs
    assert raw.overflow_count == sum(run.count for run in raw.live_runs)
    assert_equals_twin(raw, twin, queries)


def _assert_arrays_are_a_fresh_assemble(raw, twin):
    """``raw``'s folded arrays == ``assemble`` over all of the twin's buckets."""
    fresh = twin.freeze().frozen
    assert raw.frozen.salt == fresh.salt
    for name in _TABLE_ARRAYS:
        ours, theirs = getattr(raw.frozen, name), getattr(fresh, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name


def _check_runs_through_a_life(case):
    points, queries, inserts, overrides = case
    with pytest.MonkeyPatch.context() as patch:
        gate = _hold_background_folds(patch)
        raw, twin = _build_twins(points, overrides)
        raw.refreeze_threshold = len(inserts)
        _assert_stage(raw, twin, queries, live_runs=0)

        for index in (raw, twin):  # below the threshold: one live run
            assert index.insert(inserts).tolist() == list(
                range(len(points), len(points) + len(inserts))
            )
        queries = np.concatenate([queries, inserts[:3]])
        _assert_stage(raw, twin, queries, live_runs=1)

        # Across the threshold (the same points again: equal addresses
        # with several ids); the fold is held open, so the next insert
        # opens a second generation.
        raw.insert(inserts[::-1]), twin.insert(inserts[::-1])
        assert raw._refreeze_thread is not None
        folded = twin.freeze().frozen
        raw.insert(inserts[:2]), twin.insert(inserts[:2])
        _assert_stage(raw, twin, queries, live_runs=2)
        assert raw.overflow_count == 2 * len(inserts) + len(inserts[:2])

        gate.set()
        raw.wait_for_refreeze()
        assert raw.last_refreeze_error is None and raw.refreeze_count == 1
        _assert_stage(raw, twin, queries, live_runs=1)
        for name in _TABLE_ARRAYS:  # the fold == assemble over build + 2 inserts
            assert np.array_equal(getattr(raw.frozen, name), getattr(folded, name))

        raw.refreeze()
        assert raw.refreeze_count == 2 and not raw.live_runs
        _assert_stage(raw, twin, queries, live_runs=0)
        _assert_arrays_are_a_fresh_assemble(raw, twin)

        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "index")
            raw.insert(inserts[:1]), twin.insert(inserts[:1])  # folded by the save
            save_frozen_index(raw, path)
            assert not raw.live_runs
            reopened = load_frozen_index(path)
            assert_file_backed(reopened.frozen.members, path, "members")
            _assert_stage(reopened, twin, queries, live_runs=0)
            _assert_arrays_are_a_fresh_assemble(reopened, twin)
            reopened.insert(inserts), twin.insert(inserts)  # a run beside mmap'd arrays
            _assert_stage(reopened, twin, queries, live_runs=1)


def aliasing_mix(aliases):
    """The real address mix, except that under salt ``s`` row ``src``
    takes row ``dst``'s address for every ``(s, src, dst)`` in
    ``aliases`` (a list the caller may grow)."""
    real = frozen_tables._mix_rows

    def mix(rows, salt):
        out = real(rows, salt)
        for s, src, dst in aliases:
            if s == salt and rows.shape[-1] == len(src):
                alias = real(np.asarray(dst)[None, :], salt)[0]
                out = np.where((rows == np.asarray(src)).all(axis=-1), alias, out)
        return out

    return mix


def _collision_case(variant):
    """Points, queries and two insert batches whose rows are new to the index."""
    if variant == "covering":  # wide blocks, so most block rows are unseen
        rng = np.random.default_rng(5)
        points, queries, first, second = (
            (rng.random((n, 30)) < 0.5).astype(float) for n in (200, 8, 12, 12)
        )
        overrides = dict(variant=variant, metric="hamming", radius=2.0, seed=5)
        return points, queries, first, second, overrides
    points, queries, inserts, overrides = _dispatch_case(7, 300, variant, 6.0, 24)
    spread = np.random.default_rng(5).uniform(-8.0, 8.0, size=inserts.shape)
    return points, queries, spread[:12], spread[12:], overrides


def _alias_onto_a_frozen_row(raw, points, batch, aliases):
    """Make one of ``batch``'s rows, new to table 0, share the address of
    table 0's first frozen bucket; returns ``(that row's index in the
    batch, a frozen point of that bucket, the bucket's members)``."""
    frozen = raw.frozen
    lo, hi = frozen.table_slices[:2].tolist()
    stored = {tuple(row) for row in _bucket_rows(raw, frozen)[lo:hi].tolist()}
    members = frozen.members[frozen.offsets[lo] : frozen.offsets[lo + 1]].astype(np.intp)
    witness = points[members[0]]
    rows = raw._insert_rows(batch)[:, 0].tolist()
    fresh = next(i for i, row in enumerate(rows) if tuple(row) not in stored)
    target = raw._insert_rows(witness[None])[0, 0].tolist()
    aliases.append((frozen.salt, rows[fresh], target))
    return fresh, witness, members


def _two_rows_of_table_zero(raw, batch):
    """Two different table-0 rows of ``batch``: ``(rows, their indexes)``."""
    rows = raw._insert_rows(batch)[:, 0].tolist()
    j = next(j for j, row in enumerate(rows) if row != rows[0])
    return (rows[0], rows[j]), (0, j)


def _assert_answers_are_exact(raw, twin, queries, radius, far_apart):
    """The alias contract: Step S3 judges every candidate, so the ids of
    the LSH answers equal the dict reference's, every one a brute-force
    neighbour, and so do the distances — to the ulps a different
    candidate matrix may move them by.  ``far_apart`` lists pairs of
    aliased points, asserted to lie beyond the radius of each other
    (the only way an alias could add a neighbour)."""
    metric = raw.family.metric
    for a, b in far_apart:
        assert metric(np.asarray(a), np.asarray(b)) > radius
    brute = LinearScan(np.asarray(raw.points), metric)
    ours = LSHSearch(raw).query_batch(queries, radius)
    theirs = LSHSearch(twin).query_batch(queries, radius)
    for query, mine, ref in zip(queries, ours, theirs):
        assert np.array_equal(mine.ids, ref.ids)
        assert np.allclose(mine.distances, ref.distances, rtol=0, atol=1e-5)
        exact = brute.query(query, radius)
        assert set(mine.ids.tolist()) <= set(exact.ids.tolist())
    return ours, theirs


@pytest.mark.parametrize("variant", VARIANTS)
class TestOverflowAddressCollisions:
    """Aliases forced through ``_mix_rows``: each adds candidates and
    changes counts, never an answer, and no fold re-salts."""

    def test_an_overflow_row_aliasing_a_frozen_row_adds_candidates_only(
        self, monkeypatch, variant
    ):
        points, queries, first, second, overrides = _collision_case(variant)
        radius = _spec(**overrides).radius
        aliases = []
        monkeypatch.setattr(frozen_tables, "_mix_rows", aliasing_mix(aliases))
        raw, twin = _build_twins(points, overrides)
        built_salt = raw.frozen.salt
        fresh, witness, members = _alias_onto_a_frozen_row(raw, points, first, aliases)
        new, new_id = first[fresh], len(points) + fresh
        raw.insert(first), twin.insert(first)
        assert raw.overflow_count == len(first)  # published as it is
        # Each side reads the other's row: the new point hits the frozen
        # bucket its address names, the bucket's own point the run entry.
        for_new, for_old = raw.lookup_batch(np.stack([new, witness]))
        assert for_new.bucket_ids[0] >= 0 and for_new.overflow[0, 1, 0] > 0
        assert for_old.bucket_ids[0] >= 0 and for_old.overflow[0, 1, 0] > 0
        ref_new, ref_old = twin.lookup_batch(np.stack([new, witness]))
        assert for_new.num_collisions == ref_new.num_collisions + members.size
        assert for_old.num_collisions == ref_old.num_collisions + 1
        queries = np.concatenate([queries, first[:4], [new, witness]])
        pairs = [(new, points[m]) for m in members]
        _assert_answers_are_exact(raw, twin, queries, radius, pairs)
        raw.refreeze()  # ... the fold files the new point into that bucket
        assert raw.frozen.salt == built_salt and not raw.live_runs
        bucket = raw.lookup(witness).bucket_ids[0]
        assert new_id in raw.frozen.gather_members(np.array([bucket])).tolist()
        _assert_answers_are_exact(raw, twin, queries, radius, pairs)

    def test_two_rows_on_one_address_inside_a_run_share_its_range(
        self, monkeypatch, variant
    ):
        points, queries, first, second, overrides = _collision_case(variant)
        radius = _spec(**overrides).radius
        aliases = []
        monkeypatch.setattr(frozen_tables, "_mix_rows", aliasing_mix(aliases))
        raw, twin = _build_twins(points, overrides)
        built_salt = raw.frozen.salt
        raw.insert(first), twin.insert(first)
        rows, (i, j) = _two_rows_of_table_zero(raw, second)
        aliases.append((built_salt, *rows))
        pair = (second[i], second[j])
        queries = np.concatenate([queries, first[:4], second[:4]])
        raw.insert(second), twin.insert(second)  # far below the threshold
        assert raw.refreeze_count == 0 and raw.frozen.salt == built_salt
        assert raw.overflow_count == len(first) + len(second)
        (run,) = raw.live_runs
        lookups = raw.lookup_batch(np.stack(pair))
        ranges = [tuple(lookup.overflow[0, :, 0].tolist()) for lookup in lookups]
        assert ranges[0] == ranges[1]  # one address, one range, both points in it
        lo, hi = ranges[0]
        base = len(points) + len(first)
        assert {base + i, base + j} <= set(run.members[lo:hi].tolist())
        _assert_answers_are_exact(raw, twin, queries, radius, [pair])
        raw.refreeze()
        assert raw.frozen.salt == built_salt
        _assert_answers_are_exact(raw, twin, queries, radius, [pair])

    def test_a_background_fold_beside_an_aliasing_run_keeps_salt_and_run(
        self, monkeypatch, variant
    ):
        points, queries, first, second, overrides = _collision_case(variant)
        radius = _spec(**overrides).radius
        aliases = []
        monkeypatch.setattr(frozen_tables, "_mix_rows", aliasing_mix(aliases))
        gate = _hold_background_folds(monkeypatch)
        raw, twin = _build_twins(points, overrides)
        built_salt = raw.frozen.salt
        raw.refreeze_threshold = len(first) - 1
        fresh, _, members = _alias_onto_a_frozen_row(raw, points, first, aliases)
        new = first[fresh]
        raw.insert(first), twin.insert(first)  # crosses: the held-open fold
        raw.insert(second), twin.insert(second)  # a second live run
        live = raw.live_runs[-1]
        queries = np.concatenate([queries, first[:4], second[:4], [new]])
        pairs = [(new, points[m]) for m in members]
        _assert_answers_are_exact(raw, twin, queries, radius, pairs)
        gate.set()
        raw.wait_for_refreeze()
        assert raw.last_refreeze_error is None and raw.refreeze_count == 1
        assert raw.frozen.salt == built_salt
        assert raw.live_runs == (live,)  # kept as it was: nothing to re-key
        _assert_answers_are_exact(raw, twin, queries, radius, pairs)


class TestOverflowRunProperties:
    @settings(max_examples=12, deadline=None)
    @given(dispatch_case())
    def test_the_run_is_a_dict_lookup_at_every_stage_of_a_life(self, case):
        _check_runs_through_a_life(case)


def _fold_case(seed, n, variant, num_inserts, split, background):
    points, _, inserts, overrides = _dispatch_case(seed, n, variant, 6.0, num_inserts)
    return points, inserts, overrides, min(split, num_inserts), background


@st.composite
def fold_case(draw):
    num_inserts = draw(st.integers(1, 40))
    return _fold_case(
        seed=draw(st.integers(0, 2**16)),
        n=draw(st.integers(150, 400)),
        variant=draw(st.sampled_from(VARIANTS)),
        num_inserts=num_inserts,
        split=draw(st.integers(0, num_inserts)),
        background=draw(st.booleans()),
    )


class TestFoldProperties:
    """A fold merges on ``key64`` and reads no hash row; its arrays are
    those a fresh ``build`` of every point makes, array for array."""

    @settings(max_examples=max_examples(20), deadline=None)
    @given(fold_case())
    @example(_fold_case(3, 200, "covering", 30, 12, True))
    @example(_fold_case(5, 300, "multiprobe", 1, 0, False))
    def test_build_insert_past_the_threshold_fold_is_a_fresh_build(self, case):
        points, inserts, overrides, split, background = case
        spec = _spec(**overrides)
        raw = Index.build(points, spec).engine.index
        raw.background_refreeze = background
        raw.refreeze_threshold = len(inserts) - 1  # the last insert crosses it
        for part in (inserts[:split], inserts[split:]):
            raw.insert(part)
        raw.wait_for_refreeze()
        assert raw.last_refreeze_error is None
        assert raw.refreeze_count == 1 and not raw.live_runs
        fresh = Index.build(np.concatenate([points, inserts]), spec).engine.index
        assert raw.frozen.salt == fresh.frozen.salt
        for name in _TABLE_ARRAYS:
            ours, theirs = getattr(raw.frozen, name), getattr(fresh.frozen, name)
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name


def _assert_same_answers(ours, theirs, queries, radius):
    """Batched and single answers, ``QueryStats`` included, bit for bit."""
    batched = zip(ours.query_batch(queries, radius), theirs.query_batch(queries, radius))
    singles = ((ours.query(q, radius), theirs.query(q, radius)) for q in queries[:3])
    for a, b in [*batched, *singles]:
        assert np.array_equal(a.ids, b.ids)
        assert a.distances.tobytes() == b.distances.tobytes()
        assert repr(a.stats) == repr(b.stats)


def _assert_norms_are_prepared_points(raw):
    """The index-owned row state == ``prepare_points`` of every row, bit for bit."""
    points, state = raw.prepared_points()
    expected = raw.family.metric.prepare_points(points)
    if expected is None:
        assert state is None
    else:
        assert state.shape == expected.shape and state.tobytes() == expected.tobytes()


class TestAppendedRowsProperties:
    """Points, norms and HLL pairs appended into spare capacity answer
    exactly as the dict-layout reference whose inserts concatenate."""

    @settings(max_examples=max_examples(15), deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(200, 400),
        variant=st.sampled_from(["zero-probes", "multiprobe", "covering"]),
        opened=st.booleans(),
        threshold=st.sampled_from([8, 24, 64]),
        schedule=st.lists(st.integers(1, 24), min_size=2, max_size=8),
    )
    @example(
        seed=1, n=300, variant="covering", opened=True, threshold=16,
        schedule=[3, 40, 40, 40],
    )
    @example(
        seed=2, n=200, variant="zero-probes", opened=False, threshold=24,
        schedule=[1, 30, 2, 30],
    )
    def test_inserts_into_spare_capacity_answer_as_the_reference(
        self, seed, n, variant, opened, threshold, schedule
    ):
        points, queries, inserts, overrides = _dispatch_case(
            seed, n, variant, 1.0, sum(schedule)
        )
        raw, twin = _build_twins(points, overrides)
        with tempfile.TemporaryDirectory() as scratch:
            if opened:
                path = os.path.join(scratch, "index")
                save_frozen_index(raw, path)
                raw = load_frozen_index(path)
                assert_file_backed(raw.points, path, "points")
            raw.refreeze_threshold = threshold  # background folds stay on
            assert raw.background_refreeze
            cm = CostModel.from_ratio(overrides["cost_ratio"])
            ours, theirs = HybridSearcher(raw, cm), HybridSearcher(twin, cm)
            radius = float(_spec(**overrides).radius)
            _assert_same_answers(ours, theirs, queries, radius)
            start = 0
            for size in schedule:
                batch = inserts[start : start + size]
                start += size
                assert raw.insert(batch).tolist() == twin.insert(batch).tolist()
                queries = np.concatenate([queries, batch[:2]])
                _assert_same_answers(ours, theirs, queries, radius)
                _assert_norms_are_prepared_points(raw)
            raw.wait_for_refreeze()
            _assert_same_answers(ours, theirs, queries, radius)
            _assert_norms_are_prepared_points(raw)
            assert np.array_equal(raw.points, twin.points)
            pairs, reference = raw._hll_hashes, twin._hll_hashes
            assert np.array_equal(pairs.registers, reference.registers)
            assert np.array_equal(pairs.ranks, reference.ranks)
