"""Background re-freeze: the triggering insert must not pay compaction.

The frozen layout's automatic re-compaction used to run inline on the
insert that crossed ``refreeze_threshold``; it now runs double-buffered
in a worker thread.  These tests pin down the three contract points:

* the triggering insert returns without waiting for the compaction
  (asserted against an artificially slowed ``FrozenTables.assemble``);
* queries issued *while* the compaction is in flight are bit-identical
  to the dict layout (both overflow generations stay probed);
* explicit :meth:`FrozenLSHIndex.refreeze` remains synchronous.
"""

import time

import numpy as np

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


def _slow_assemble(monkeypatch, delay):
    """Make every compaction pay ``delay`` seconds, deterministically."""
    original = FrozenTables.assemble.__func__

    def slowed(cls, *args, **kwargs):
        time.sleep(delay)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(FrozenTables, "assemble", classmethod(slowed))


class TestBackgroundRefreeze:
    def test_triggering_insert_does_not_pay_compaction_latency(self, monkeypatch):
        _, _, frozen = _build_pair(threshold=8)
        delay = 0.5
        _slow_assemble(monkeypatch, delay)
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
        _slow_assemble(monkeypatch, 0.3)
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
        _slow_assemble(monkeypatch, 0.3)
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

    def test_custom_estimator_sees_both_generations_mid_compaction(self, monkeypatch):
        """Estimators walking ``nonempty_buckets`` must see every live
        overflow generation, or the cost dispatch can silently flip."""
        from repro.sketches.registry import get_estimator

        points, index, frozen = _build_pair(threshold=8)
        _slow_assemble(monkeypatch, 0.3)
        rng = np.random.default_rng(8)
        first, second = rng.normal(size=(9, 12)), rng.normal(size=(4, 12))
        index.insert(first), index.insert(second)
        frozen.insert(first)  # triggers the slow background fold
        frozen.insert(second)  # lands in the fresh generation
        assert frozen._refreeze_thread is not None
        estimator = get_estimator("exact")
        cm = CostModel.from_ratio(6.0)
        a = HybridSearcher(index, cm, estimator=estimator)
        b = HybridSearcher(frozen, cm, estimator=estimator)
        for q in np.concatenate([second[:3], first[:3], points[:3]]):
            ra, rb = a.query(q, 1.5), b.query(q, 1.5)
            # The exact estimator counts distinct candidates; both
            # layouts must count the same set (both generations probed).
            assert ra.stats.estimated_candidates == rb.stats.estimated_candidates
            assert ra.stats.strategy == rb.stats.strategy
            assert np.array_equal(ra.ids, rb.ids)
        frozen.wait_for_refreeze()

    def test_failed_background_fold_is_retried_and_loses_nothing(self, monkeypatch):
        points, index, frozen = _build_pair(threshold=4)
        original = FrozenTables.assemble.__func__
        failures = {"left": 1}

        def flaky(cls, *args, **kwargs):
            if failures["left"]:
                failures["left"] -= 1
                raise MemoryError("simulated compaction failure")
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(FrozenTables, "assemble", classmethod(flaky))
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
