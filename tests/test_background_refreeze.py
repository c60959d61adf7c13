"""Background re-freeze: the triggering insert must not pay compaction.

The frozen layout's automatic re-compaction used to run inline on the
insert that crossed ``refreeze_threshold``; it now runs double-buffered
in a worker thread.  These tests pin down the three contract points:

* the triggering insert returns without waiting for the compaction
  (asserted against an artificially slowed ``FrozenTables.folded``);
* queries issued *while* the compaction is in flight are bit-identical
  to the dict layout (both overflow generations stay probed);
* explicit :meth:`FrozenLSHIndex.refreeze` remains synchronous;
* ``Index.close()`` does not return while a fold an insert started is
  still running, on the single and the in-process sharded tier.
"""

import threading
import time

import numpy as np
import pytest

from conftest import served_shards
from repro.api import Index, IndexSpec
from repro.core import CostModel
from repro.core.hybrid import HybridSearcher
from repro.hashing import SimHashLSH
from repro.index import LSHIndex
from repro.index.frozen import FrozenTables


def _build_pair(n=400, dim=12, threshold=8):
    rng = np.random.default_rng(0)
    points = rng.normal(size=(n, dim))
    index = LSHIndex(SimHashLSH(dim, seed=1), k=4, num_tables=8, seed=2).build(points)
    frozen = LSHIndex(SimHashLSH(dim, seed=1), k=4, num_tables=8, seed=2).build(
        points
    ).freeze(refreeze_threshold=threshold)
    return points, index, frozen


def _slow_fold(monkeypatch, delay):
    """Make every compaction pay ``delay`` seconds, deterministically."""
    original = FrozenTables.folded

    def slowed(self, *args, **kwargs):
        time.sleep(delay)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FrozenTables, "folded", slowed)


class TestBackgroundRefreeze:
    def test_triggering_insert_does_not_pay_compaction_latency(self, monkeypatch):
        _, _, frozen = _build_pair(threshold=8)
        delay = 0.5
        _slow_fold(monkeypatch, delay)
        rng = np.random.default_rng(3)
        started = time.perf_counter()
        frozen.insert(rng.normal(size=(9, 12)))
        insert_seconds = time.perf_counter() - started
        # The compaction alone takes >= delay; the insert must return in
        # a fraction of that (it only rotates the overflow generation).
        assert insert_seconds < delay / 2, insert_seconds
        assert frozen.overflow_count == 9  # still being folded
        frozen.wait_for_refreeze()
        assert frozen.overflow_count == 0

    def test_queries_during_compaction_are_bit_identical(self, monkeypatch):
        points, index, frozen = _build_pair(threshold=8)
        _slow_fold(monkeypatch, 0.3)
        rng = np.random.default_rng(4)
        new = rng.normal(size=(9, 12))
        index.insert(new)
        frozen.insert(new)  # crosses the threshold -> background compaction
        assert frozen._refreeze_thread is not None
        cm = CostModel.from_ratio(6.0)
        a, b = HybridSearcher(index, cm), HybridSearcher(frozen, cm)
        queries = np.concatenate([rng.normal(size=(6, 12)), new[:3], points[:3]])
        # In flight: answers must include the compacting generation.
        for q in queries:
            ra, rb = a.query(q, 1.5), b.query(q, 1.5)
            assert np.array_equal(ra.ids, rb.ids)
            assert np.array_equal(ra.distances, rb.distances)
        frozen.wait_for_refreeze()
        for q in queries:
            ra, rb = a.query(q, 1.5), b.query(q, 1.5)
            assert np.array_equal(ra.ids, rb.ids)
            assert np.array_equal(ra.distances, rb.distances)

    def test_inserts_during_compaction_open_a_new_generation(self, monkeypatch):
        points, index, frozen = _build_pair(threshold=8)
        _slow_fold(monkeypatch, 0.3)
        rng = np.random.default_rng(5)
        first, second = rng.normal(size=(9, 12)), rng.normal(size=(5, 12))
        index.insert(first), index.insert(second)
        frozen.insert(first)  # triggers the background fold of gen 0
        frozen.insert(second)  # lands in the fresh generation
        assert frozen.overflow_count == 14
        cm = CostModel.from_ratio(6.0)
        a, b = HybridSearcher(index, cm), HybridSearcher(frozen, cm)
        for q in np.concatenate([second[:3], first[:3], points[:3]]):
            ra, rb = a.query(q, 1.5), b.query(q, 1.5)
            assert np.array_equal(ra.ids, rb.ids)
            assert np.array_equal(ra.distances, rb.distances)
        frozen.wait_for_refreeze()
        assert frozen.overflow_count == 5  # gen 1 still mutable
        frozen.refreeze()
        assert frozen.overflow_count == 0
        for q in np.concatenate([second[:3], first[:3]]):
            ra, rb = a.query(q, 1.5), b.query(q, 1.5)
            assert np.array_equal(ra.ids, rb.ids)

    def test_sketch_and_candidates_see_both_generations_mid_compaction(self, monkeypatch):
        """The merged HLL and the exact candidate set must cover every
        live overflow generation, or the cost dispatch can silently flip."""
        points, index, frozen = _build_pair(threshold=8)
        _slow_fold(monkeypatch, 0.3)
        rng = np.random.default_rng(8)
        first, second = rng.normal(size=(9, 12)), rng.normal(size=(4, 12))
        index.insert(first), index.insert(second)
        frozen.insert(first)  # triggers the slow background fold
        frozen.insert(second)  # lands in the fresh generation
        assert frozen._refreeze_thread is not None
        cm = CostModel.from_ratio(6.0)
        a, b = HybridSearcher(index, cm), HybridSearcher(frozen, cm)
        for q in np.concatenate([second[:3], first[:3], points[:3]]):
            la, lb = index.lookup(q), frozen.lookup(q)
            assert lb.overflow.shape[0] == 2  # both generations probed
            assert np.array_equal(
                index.merged_sketch(la).registers, frozen.merged_sketch(lb).registers
            )
            assert np.array_equal(index.candidate_ids(la), frozen.candidate_ids(lb))
            ra, rb = a.query(q, 1.5), b.query(q, 1.5)
            assert ra.stats.strategy == rb.stats.strategy
            assert np.array_equal(ra.ids, rb.ids)
        frozen.wait_for_refreeze()

    def test_failed_background_fold_is_retried_and_loses_nothing(self, monkeypatch):
        points, index, frozen = _build_pair(threshold=4)
        original = FrozenTables.folded
        failures = {"left": 1}

        def flaky(self, *args, **kwargs):
            if failures["left"]:
                failures["left"] -= 1
                raise MemoryError("simulated compaction failure")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FrozenTables, "folded", flaky)
        rng = np.random.default_rng(7)
        first, second = rng.normal(size=(5, 12)), rng.normal(size=(5, 12))
        index.insert(first)
        frozen.insert(first)  # triggers the fold that fails
        frozen.wait_for_refreeze()
        assert isinstance(frozen.last_refreeze_error, MemoryError)
        assert frozen.overflow_count == 5  # stuck generation still probed
        cm = CostModel.from_ratio(6.0)
        a, b = HybridSearcher(index, cm), HybridSearcher(frozen, cm)
        for q in first[:3]:  # nothing lost while the fold is stuck
            assert np.array_equal(a.query(q, 1.5).ids, b.query(q, 1.5).ids)
        index.insert(second)
        frozen.insert(second)  # next trigger retries the stuck generation
        frozen.wait_for_refreeze()
        frozen.refreeze()  # folds whatever remains, synchronously
        assert frozen.last_refreeze_error is None
        assert frozen.overflow_count == 0
        for q in np.concatenate([first[:3], second[:3], points[:3]]):
            ra, rb = a.query(q, 1.5), b.query(q, 1.5)
            assert np.array_equal(ra.ids, rb.ids)
            assert np.array_equal(ra.distances, rb.distances)

    def test_explicit_refreeze_is_synchronous(self):
        _, index, frozen = _build_pair(threshold=1024)
        rng = np.random.default_rng(6)
        new = rng.normal(size=(10, 12))
        index.insert(new)
        frozen.insert(new)
        assert frozen.overflow_count == 10
        frozen.refreeze()
        assert frozen.overflow_count == 0
        assert not frozen.live_runs  # no run holds an entry
        cm = CostModel.from_ratio(6.0)
        a, b = HybridSearcher(index, cm), HybridSearcher(frozen, cm)
        for q in new[:4]:
            ra, rb = a.query(q, 1.5), b.query(q, 1.5)
            assert np.array_equal(ra.ids, rb.ids)


class TestCloseWaitsForTheFold:
    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_close_returns_only_after_the_fold_landed(self, monkeypatch, num_shards):
        entered, gate = threading.Event(), threading.Event()
        original = FrozenTables.folded

        def held(self, *args, **kwargs):
            if threading.current_thread().name == "repro-refreeze":
                entered.set()
                assert gate.wait(timeout=60)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FrozenTables, "folded", held)
        rng = np.random.default_rng(9)
        index = Index.build(
            rng.normal(size=(300, 12)),
            IndexSpec(metric="l2", radius=1.5, num_tables=6, num_shards=num_shards, seed=4),
        )
        frozen = served_shards(index)
        for shard_index in frozen:
            shard_index.refreeze_threshold = 4
        index.insert(rng.normal(size=(5 * num_shards, 12)))  # crosses on every shard
        assert entered.wait(timeout=60)
        folds = [shard_index._refreeze_thread for shard_index in frozen]
        assert all(fold.name == "repro-refreeze" and fold.is_alive() for fold in folds)

        def generations():
            # Read off the shards: a closed pool answers no ``stats`` op.
            return sum(shard_index.refreeze_count for shard_index in frozen)

        assert generations() == 0
        seen = []
        closer = threading.Thread(
            target=lambda: (
                index.close(),
                seen.append((generations(), [fold.is_alive() for fold in folds])),
            )
        )
        try:
            closer.start()
            closer.join(timeout=0.5)
            assert closer.is_alive()  # held by the open fold
            assert seen == []
        finally:
            gate.set()
            closer.join(timeout=60)
        assert not closer.is_alive()
        # The folds landed, and their threads ended, before close returned.
        assert seen == [(num_shards, [False] * num_shards)]
