"""The frozen layout's overflow generations as sorted runs.

``repro.index.overflow.OverflowRun`` on its own (copy-on-write merge,
insertion order inside an address, aliased addresses, probe ranges),
then what it buys the index, pinned as *work units* rather than
timings: from build through save and reopen a frozen index of any
variant builds no ``Bucket`` / ``HashTable`` and encodes no row to
``bytes``, a register
merge is one scatter-max however many overflow buckets the rows hit, a
lookup is one binary search plus at most two per live run whatever the
batch size, identical rows of a batch share one candidate union beside
a live run — and readers racing a writer across two threshold crossings
only ever see whole inserts.

The helpers at the top (``probed_rows``, ``assert_runs_are_dict_lookups``,
``assert_equals_twin``) are shared with the life-cycle properties in
``test_frozen_properties.py``.
"""

import dataclasses
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import served_shards
from test_adaptive import _dispatch_case, _spec

from repro.api import Index, QuerySpec
from repro.distances import Metric
from repro.hashing import PStableLSH, composite
from repro.index import Bucket, FrozenLSHIndex, HashTable
from repro.index.frozen import lookup as frozen_lookup
from repro.index.frozen import tables as frozen_tables
from repro.index.overflow import OverflowRun

VARIANTS = ["zero-probes", "multiprobe", "covering"]


def build_raw(variant, seed=11, n=300, num_inserts=40):
    """``(raw index, points, queries, inserts)`` on a Fig. 1 landscape."""
    points, queries, inserts, overrides = _dispatch_case(
        seed, n, variant, 6.0, num_inserts
    )
    raw = Index.build(points, _spec(**overrides)).engine.index
    return raw, points, queries, inserts


def probed_rows(raw, queries):
    """The ``(q, S, w)`` rows a frozen index probes, and each slot's table."""
    if raw.variant == "covering":
        return raw._block_rows(queries)[0], raw._slot_table_ids
    return raw._slot_rows(raw._batched.hash_points(queries)), raw._slot_table_ids


def assert_runs_are_dict_lookups(raw, queries):
    """Every live run's entry ranges equal a ``{(table, row): [ids]}``
    dict built from the run's own points; returns the number of runs."""
    lookups = raw.lookup_batch(queries)
    runs = lookups[0]._runs
    slot_rows, slot_tables = probed_rows(raw, queries)
    if not runs:
        assert all(lookup.overflow is None for lookup in lookups)
    for g, run in enumerate(runs):
        ids = np.arange(run.first_id, run.first_id + run.count)
        assert ids[-1] < raw.points.shape[0]
        stored = raw._insert_rows(np.asarray(raw.points[ids]))
        reference = {}
        for point_id, point_rows in zip(ids.tolist(), stored.tolist()):
            for t, row in enumerate(point_rows):
                reference.setdefault((t, tuple(row)), []).append(point_id)
        for lookup, rows in zip(lookups, slot_rows.tolist()):
            assert lookup.overflow.shape == (len(runs), 2, len(rows))
            for s, (t, row) in enumerate(zip(slot_tables.tolist(), rows)):
                lo, hi = lookup.overflow[g, :, s].tolist()
                expected = reference.get((t, tuple(row)), [])
                assert run.members[lo:hi].tolist() == expected  # insertion order
    return len(runs)


def assert_equals_twin(raw, twin, queries):
    """Every query-side primitive of ``raw`` equals its dict-layout
    ``LSHIndex`` reference's."""
    ours, theirs = raw.lookup_batch(queries), twin.lookup_batch(queries)
    for a, b in zip(ours, theirs):
        assert a.num_collisions == b.num_collisions
        assert a.largest_bucket == b.largest_bucket
        for dedup in ("scalar", "vectorized"):
            assert np.array_equal(
                raw.candidate_ids(a, dedup=dedup), twin.candidate_ids(b, dedup=dedup)
            )
        assert np.array_equal(
            raw.merged_sketch(a).registers, twin.merged_sketch(b).registers
        )
    assert np.array_equal(
        raw.merged_estimates_batch(ours), twin.merged_estimates_batch(theirs)
    )
    for a, shared in zip(ours, raw.candidate_ids_batch(ours, dedup="vectorized")):
        assert np.array_equal(shared, raw.candidate_ids(a, dedup="vectorized"))
    for query, row in zip(queries, ours):  # sequential == batched
        solo = raw.lookup(query)
        assert np.array_equal(solo.bucket_ids, row.bucket_ids)
        assert (solo.num_collisions, solo.largest_bucket) == (
            row.num_collisions,
            row.largest_bucket,
        )
        assert (solo.overflow is None) == (row.overflow is None)
        if solo.overflow is not None:
            assert np.array_equal(solo.overflow, row.overflow)


# ----------------------------------------------------------------------
# OverflowRun on its own
# ----------------------------------------------------------------------

TABLES, SALT = 3, 0


def _addresses(rows):
    return frozen_tables._tagged_key64(rows, np.arange(TABLES), TABLES, SALT)


def _extend(run, rows):
    return run.extended(_addresses(np.asarray(rows, dtype=np.int64)))


def _probe(run, slot_rows):
    slot_rows = np.asarray(slot_rows, dtype=np.int64)
    flat = _addresses(slot_rows).ravel()
    order = np.argsort(flat)
    return run.probe(order, flat.take(order)).reshape(2, *slot_rows.shape[:2])


A, B, C = (1, 1), (2, -2), (300, 3)


class TestOverflowRun:
    def test_extended_is_copy_on_write_and_keeps_insertion_order(self):
        empty = OverflowRun.empty(first_id=100)
        first = _extend(empty, [[A, A, B], [B, A, B]])
        assert first.count == 2 and empty.count == 0
        before = (first.key64.copy(), first.members.copy())
        second = _extend(first, [[A, B, B]])
        assert second.count == 3
        for kept, array in zip(before, (first.key64, first.members)):
            assert np.array_equal(kept, array)  # the published run never changes
        assert not np.shares_memory(first.key64, second.key64)
        assert (second.key64[1:] >= second.key64[:-1]).all()
        ranges = _probe(second, [[A, A, B], [B, B, A]])
        groups = [
            [second.members[lo:hi].tolist() for lo, hi in zip(*ranges[:, q])]
            for q in range(2)
        ]
        # Equal addresses keep id order; a miss is the empty range (0, 0).
        assert groups == [[[100, 102], [100, 101], [100, 101, 102]], [[101], [102], []]]
        assert ranges[:, 1, 2].tolist() == [0, 0]

    def test_arrays_take_the_contract_dtypes_and_keep_no_row(self):
        run = _extend(OverflowRun.empty(first_id=0), [[A, A, B]])
        assert (run.key64.dtype, run.members.dtype) == (np.uint64, np.uint32)
        assert [f.name for f in dataclasses.fields(run)] == [
            "first_id", "count", "key64", "members"
        ]
        wide = _extend(run, [[C, A, A]])  # a value past int8: nothing to widen
        lo, hi = _probe(wide, [[C, A, A]])[:, 0]
        assert [wide.members[a:b].tolist() for a, b in zip(lo, hi)] == [[1], [0, 1], [1]]

    def test_an_address_shared_by_two_rows_is_one_range(self, monkeypatch):
        real = frozen_tables._mix_rows
        # Mix only the first column: (1, 1) and (1, 7) share an address.
        monkeypatch.setattr(
            frozen_tables, "_mix_rows", lambda rows, salt: real(rows[..., :1], salt)
        )
        run = _extend(OverflowRun.empty(first_id=0), [[A, A, B]])
        run = _extend(run, [[(1, 7), B, B]])  # published as it is
        assert run.count == 2
        # Either row's probe reads both entries (an alias adds candidates,
        # Step S3 judges them); other tables do not collide.
        for row in (A, (1, 7)):
            lo, hi = _probe(run, [[row, A, B]])[:, 0]
            assert [run.members[a:b].tolist() for a, b in zip(lo, hi)] == [
                [0, 1], [0], [0, 1]
            ]


# ----------------------------------------------------------------------
# Work units, not timings
# ----------------------------------------------------------------------


class _CountingNumpy:
    """``numpy`` with ``maximum.at`` calls counted (everything else as is)."""

    def __init__(self):
        self.at_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    @property
    def maximum(self):
        return _CountingMaximum(self)


class _CountingMaximum:
    def __init__(self, owner):
        self._owner = owner

    def __getattr__(self, name):
        return getattr(np.maximum, name)

    def at(self, *args, **kwargs):
        self._owner.at_calls += 1
        return np.maximum.at(*args, **kwargs)


class _CountingKeys(np.ndarray):
    """A ``key64`` array that logs the binary searches run over it."""

    searches: list = []

    def searchsorted(self, *args, **kwargs):
        _CountingKeys.searches.append(self.size)
        return np.asarray(self).searchsorted(*args, **kwargs)


def _count_constructions(monkeypatch):
    """Counters for ``Bucket()``, ``HashTable()`` and ``encode_rows()``."""
    counts = {"Bucket": 0, "HashTable": 0, "encode_rows": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for cls in (Bucket, HashTable):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    encode = counted("encode_rows", composite.encode_rows)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and hasattr(
            module, "encode_rows"
        ):
            monkeypatch.setattr(module, "encode_rows", encode)
    return counts


@pytest.mark.parametrize("tier", ["single", "threads"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_no_bucket_objects_from_build_to_reopen(monkeypatch, tmp_path, variant, tier):
    """The whole serving life cycle — build, batch and single queries,
    insert, re-freeze, save, reopen, query — builds no ``Bucket`` or
    ``HashTable`` and encodes no row to ``bytes``."""
    points, queries, inserts, overrides = _dispatch_case(11, 300, variant, 6.0, 40)
    if tier == "threads":
        overrides["num_shards"] = 2
    counts = _count_constructions(monkeypatch)
    index = Index.build(points, _spec(**overrides))
    reopened = None
    try:
        index.query(QuerySpec(queries))
        index.query(QuerySpec(queries[0]))
        index.insert(inserts)
        raws = served_shards(index)
        assert all(raw.overflow_count for raw in raws)
        for raw in raws:
            raw.refreeze()
        index.save(str(tmp_path / "saved"))
        reopened = Index.open(str(tmp_path / "saved"))
        reopened.query(QuerySpec(queries))
        reopened.query(QuerySpec(queries[0]))
    finally:
        index.close()
        if reopened is not None:
            reopened.close()
    assert counts == {"Bucket": 0, "HashTable": 0, "encode_rows": 0}


@pytest.mark.parametrize("variant", VARIANTS)
class TestWorkUnits:
    def test_no_bucket_objects_and_no_encoded_rows_after_construction(
        self, monkeypatch, variant
    ):
        raw, points, queries, inserts = build_raw(variant)
        counts = _count_constructions(monkeypatch)
        raw.refreeze_threshold = 25  # the third batch starts a background fold
        for batch in np.array_split(inserts, 3):
            raw.insert(batch)
        batch = np.concatenate([points[:44], inserts[:20]])  # 64 rows
        lookups = raw.lookup_batch(batch)
        raw.merged_estimates_batch(lookups)
        raw.candidate_ids_batch(lookups, dedup="vectorized")
        raw.wait_for_refreeze().refreeze()
        assert counts == {"Bucket": 0, "HashTable": 0, "encode_rows": 0}

    def test_a_register_merge_is_one_scatter_max(self, monkeypatch, variant):
        raw, points, queries, inserts = build_raw(variant)
        raw.refreeze_threshold = 10**6
        for batch in np.array_split(inserts, 3):
            raw.insert(batch)
        lookups = raw.lookup_batch(np.concatenate([inserts, points[:24]]))
        hit = sum(int((lk.overflow[:, 1] > 0).sum()) for lk in lookups)
        assert hit > len(lookups)  # many overflow buckets under the merge
        counting = _CountingNumpy()
        expected = raw._merged_registers_batch(lookups)
        monkeypatch.setattr(frozen_lookup, "np", counting)
        assert np.array_equal(raw._merged_registers_batch(lookups), expected)
        assert 1 <= counting.at_calls <= 2
        counting.at_calls = 0
        raw.merged_sketch(lookups[0])
        assert counting.at_calls == 1

    def test_binary_searches_per_lookup_do_not_grow_with_the_batch(self, variant):
        raw, points, queries, inserts = build_raw(variant)
        raw.background_refreeze = False
        raw.refreeze_threshold = 10**6
        raw.insert(inserts[:20])
        raw._compacting, raw._run = raw._run, None  # as a held-open fold leaves it
        raw.insert(np.concatenate([inserts[20:], inserts[:1]]))
        runs = raw.live_runs
        assert len(runs) == 2
        for holder in (raw.frozen, *runs):
            holder.key64 = holder.key64.view(_CountingKeys)
        per_batch = []
        for batch in (inserts[:1], np.concatenate([inserts, points[:24]])):
            _CountingKeys.searches = []
            lookups = raw.lookup_batch(batch)
            assert (lookups[0].overflow[:, 1] > 0).any(axis=1).all()  # hits both runs
            per_batch.append(list(_CountingKeys.searches))
        # One search of the frozen addresses, then per live run one for
        # the range starts and one, over its hits only, for the ends.
        sizes = [raw.frozen.key64.size, *(run.key64.size for run in runs for _ in "lh")]
        assert per_batch == [sizes, sizes]


# ----------------------------------------------------------------------
# An insert costs what it writes
# ----------------------------------------------------------------------


def test_steady_state_insert_allocates_o_batch_not_o_n():
    """A 32-point insert into spare capacity at n = 20 000 allocates well
    under 1/8 of the point matrix: it writes its own rows, hashes and
    run entries, never a copy of the points (``np.concatenate`` there
    peaks above 1x).  The first insert is the one that grows the
    buffer built with exactly n rows."""
    rng = np.random.default_rng(4)
    points = rng.normal(size=(20_000, 24))
    raw = FrozenLSHIndex(
        PStableLSH(24, w=4.0), k=6, num_tables=10, seed=4
    ).build(points)
    raw.background_refreeze = False
    raw.refreeze_threshold = 10**6
    assert raw._point_buffer.shape[0] == raw.n  # no slack at build
    raw.insert(rng.normal(size=(32, 24)))  # grows: the one copy
    capacity = raw._point_buffer.shape[0]
    for _ in range(4):
        batch = rng.normal(size=(32, 24))
        tracemalloc.start()
        try:
            raw.insert(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < raw.points.nbytes / 8, (peak, raw.points.nbytes)
    # All four landed in the spare rows the first one left.
    assert raw._point_buffer.shape[0] == capacity >= raw.n


def test_first_query_after_an_insert_prepares_only_the_new_rows(monkeypatch):
    """The row norms are the index's: the first query prepares all n
    rows once, and the first query after an m-point insert prepares the
    m new rows — not n + m for each of the scan and the LSH filter."""
    points, queries, inserts, overrides = _dispatch_case(11, 300, "zero-probes", 1.0, 40)
    index = Index.build(points, _spec(**overrides))  # ratio 1: both strategies
    raw = index.engine.index
    prepared: list[int] = []
    real = Metric.prepare_points

    def counting(self, rows):
        prepared.append(rows.shape[0])
        return real(self, rows)

    monkeypatch.setattr(Metric, "prepare_points", counting)
    spec = QuerySpec(np.concatenate([queries, points[:40]]))
    strategies = {o.strategy for o in index.query(spec)}
    assert strategies == {"lsh", "linear"}  # both searchers read the state
    assert prepared == [raw.n]
    for batch in (inserts[:7], inserts[7:]):
        prepared.clear()
        raw.insert(batch)
        index.query(spec)
        index.query(spec)
        assert prepared == [len(batch)]
    _, norms = raw.prepared_points()
    assert norms.tobytes() == real(raw.family.metric, raw.points).tobytes()


def test_readers_beside_appends_see_rows_and_norms_of_one_view():
    """Readers racing a writer whose inserts cross several growth
    boundaries: every ``prepared_points()`` pairs a view with exactly its
    rows' norms, bit for bit, and a view once handed out never changes —
    the writer only writes past every published ``n``."""
    raw, _, _, inserts = build_raw("zero-probes", n=400, num_inserts=40)
    raw.refreeze_threshold = 10**6
    rng = np.random.default_rng(8)
    batches = [inserts[rng.choice(40, size=8)] for _ in range(40)]
    metric = raw.family.metric
    errors, rounds, stop = [], [0] * 4, threading.Event()
    deadline = time.monotonic() + 60

    def read(reader):
        try:
            held, copy = None, None
            while not stop.is_set() and time.monotonic() < deadline:
                points, norms = raw.prepared_points()
                assert norms.shape[0] == points.shape[0]
                tail = points[-9:]
                assert norms[-9:].tobytes() == metric.prepare_points(tail).tobytes()
                if held is None or rounds[reader] % 16 == 0:
                    held, copy = points, points.copy()
                assert np.array_equal(held, copy)
                rounds[reader] += 1
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    readers = [threading.Thread(target=read, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in readers:
            thread.start()
        buffers = set()
        for batch in batches:
            raw.insert(batch)
            buffers.add(raw._point_buffer.shape[0])
        while min(rounds) < 3 and not errors and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not errors, errors
    assert min(rounds) >= 3 and len(buffers) >= 3  # several growths
    points, norms = raw.prepared_points()
    assert norms.tobytes() == metric.prepare_points(points).tobytes()


# ----------------------------------------------------------------------
# Sharing survives an insert
# ----------------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_identical_rows_share_one_union_beside_a_live_run(monkeypatch, variant):
    raw, points, queries, inserts = build_raw(variant)
    raw.refreeze_threshold = 10**6
    raw.insert(inserts)
    batch = np.concatenate([inserts[:3], points[:3], inserts[:3], points[:2]])
    lookups = raw.lookup_batch(batch)
    assert lookups[0].overflow is not None
    keys = {
        lk.bucket_ids.tobytes() + lk.overflow.tobytes() for lk in lookups
    }
    assert len(keys) < len(lookups)
    calls = []
    union, sorted_union = raw.candidate_ids, frozen_lookup._sorted_union
    bitmap_union = raw._bitmap_union
    monkeypatch.setattr(
        raw, "_bitmap_union", lambda lk, *args: calls.append(lk) or bitmap_union(lk, *args)
    )
    monkeypatch.setattr(
        frozen_lookup,
        "_sorted_union",
        lambda lks, n: calls.extend(lks) or sorted_union(lks, n),
    )
    shared = raw.candidate_ids_batch(lookups, dedup="vectorized")
    assert len(calls) == len(keys)  # once per *distinct* row
    assert shared[0] is shared[6] and shared[3] is shared[9]
    for lk, candidates in zip(lookups, shared):
        assert np.array_equal(candidates, union(lk, "vectorized"))


def test_diagnostics_count_the_runs_arrays():
    raw, points, queries, inserts = build_raw("zero-probes")
    raw.refreeze_threshold = 10**6
    before, buckets = raw.memory_report(), raw.bucket_statistics()["buckets"]
    raw.insert(inserts)
    (run,) = raw.live_runs
    report, stats = raw.memory_report(), raw.bucket_statistics()
    assert report["bucket_ids"] == before["bucket_ids"] + run.members.nbytes
    assert report["bucket_keys"] == before["bucket_keys"] + run.key64.nbytes
    # Registers plus the ids of the sketched buckets; a run adds neither.
    sketched = raw.frozen.sketched.nbytes
    assert report["sketches"] == before["sketches"] == raw.sketch_memory_bytes + sketched
    # The point buffer at its capacity: the insert grew it past n.
    assert report["points"] == raw._point_buffer.nbytes > raw.points.nbytes
    assert stats["buckets"] == buckets + np.unique(run.key64).size
    raw.refreeze()
    assert raw.bucket_statistics()["buckets"] == raw.frozen.num_buckets


# ----------------------------------------------------------------------
# Readers beside a writer
# ----------------------------------------------------------------------


def test_readers_only_ever_see_whole_inserts():
    raw, points, queries, inserts = build_raw("zero-probes", n=400, num_inserts=40)
    rng = np.random.default_rng(3)
    batches = [
        inserts[rng.choice(len(inserts), size=8)] + rng.normal(scale=0.01, size=(8, 10))
        for _ in range(40)
    ]
    raw.refreeze_threshold = 120  # 320 points: two background folds
    probes = np.concatenate([queries, batches[0][:4], batches[-1][:4]])
    slot_rows, slot_tables = probed_rows(raw, probes)
    before = raw.candidate_ids_batch(raw.lookup_batch(probes), dedup="vectorized")
    salt = raw.frozen.salt
    errors, rounds, stop = [], [0] * 4, threading.Event()
    deadline = time.monotonic() + 60

    def read(reader):
        try:
            while not stop.is_set() and time.monotonic() < deadline:
                frozen, runs = raw._snapshot()
                n = raw.points.shape[0]
                assert all(run.members.max() < n for run in runs)
                assert frozen.salt == salt  # a fold never re-salts
                lookups = raw.lookup_batch(probes)
                found = raw.candidate_ids_batch(lookups, dedup="vectorized")
                for least, ids in zip(before, found):
                    assert np.isin(least, ids).all()
                rounds[reader] += 1
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    readers = [threading.Thread(target=read, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in readers:
            thread.start()
        for i, batch in enumerate(batches):
            raw.insert(batch)
            if i in (15, 31):  # 128 points > the threshold: a fold is in flight
                assert raw._refreeze_thread is not None or raw.refreeze_count
                raw.wait_for_refreeze()
        while min(rounds) < 3 and not errors and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not errors, errors
    assert min(rounds) >= 3 and raw.refreeze_count == 2
    assert raw.n == len(points) + 320
    # Brute force over the final point set bounds every answer from above.
    final_rows = raw._insert_rows(np.asarray(raw.points))
    found = raw.candidate_ids_batch(raw.lookup_batch(probes), dedup="vectorized")
    for rows, ids in zip(slot_rows, found):
        colliding = (final_rows[:, slot_tables] == rows).all(axis=2).any(axis=1)
        assert np.array_equal(ids, np.flatnonzero(colliding))
