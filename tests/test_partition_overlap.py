"""A batch's two partitions side by side: linear rows on a helper thread.

``HybridSearcher.query_batch`` hands a batch's linear partition to the
single index's :class:`~repro.core.overlap.PartitionHelper` and runs its
LSH partition (Steps S2 + S3) on the calling thread.  Pinned here as
answers and counts, never as timings:

* ids, distances and every ``QueryStats`` field equal the inline run's
  (the helper forced off through the module-level
  ``overlap._usable_cpus`` hook), on zero-probe, multi-probe and covering
  indexes beside live overflow runs, traced and untraced;
* work units, counted as helper submits: a lone query, an all-LSH and
  an all-linear batch hand over nothing, a two-partition batch exactly
  one job, and a busy helper is passed over rather than waited for;
* the lifecycle: ``Index.close()`` joins the thread (a failed build's
  transient index included), a closed index still answers, inline, and
  an exception in the linear partition reaches the caller while the
  next batch is served as usual;
* shard engines get no helper.

CI runs this file a second time under ``taskset -c 0``; the test that
follows the host's affinity then pins the inline path.
"""

import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import max_examples, shard_states
from test_adaptive import _dispatch_case, _spec
from test_batch_steps import _serve_generations, assert_bit_identical

from repro.api import Index, QuerySpec
from repro.core import overlap
from repro.core.linear_scan import LinearScan
from repro.core.overlap import THREAD_NAME, PartitionHelper
from repro.core.results import Strategy
from repro.observability import StageTrace
from repro.service.shard_server import open_shard_state
from repro.service.workers import WorkerPool

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis"
)
from hypothesis import example, given, settings
from hypothesis import strategies as st


@contextmanager
def usable_cpus(count):
    """Every batch inside sees ``count`` usable CPUs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(overlap, "_usable_cpus", lambda: count)
        yield


def helper_threads():
    return {t for t in threading.enumerate() if t.name.startswith(THREAD_NAME)}


def helper_of(index):
    return index.engine.searcher.partition_helper


def assert_same_rows(got, expected):
    """Row by row: ids and distances bit for bit, and equal stats."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert_bit_identical((a.ids, a.distances), (b.ids, b.distances))
        assert a.stats == b.stats


def _fig1():
    """A Fig. 1 index spec, its points, and a batch that splits both ways."""
    points, queries, inserts, overrides = _dispatch_case(3, 300, "zero-probes", 0.5, 24)
    return points, np.concatenate([queries, inserts]), _spec(**overrides)


# ----------------------------------------------------------------------
# Helper == inline, bit for bit
# ----------------------------------------------------------------------


def _overlap_case(seed, n, variant, ratio, generations, scale, traced):
    """A Fig. 1 index of any variant, a batch over its dense and sparse
    parts, ``generations`` live overflow runs, and how to serve it.  The
    cost ratios put some of the rows on the scan."""
    points, queries, inserts, overrides = _dispatch_case(seed, n, variant, ratio, 24)
    batch = np.concatenate([queries, inserts[:6]])
    return points, batch, np.array_split(inserts, generations), overrides, scale, traced


@st.composite
def overlap_case(draw):
    return _overlap_case(
        seed=draw(st.integers(0, 2**16)),
        n=draw(st.integers(150, 400)),
        variant=draw(st.sampled_from(["zero-probes", "multiprobe", "covering"])),
        ratio=draw(st.sampled_from([0.5, 1.0, 2.0])),
        generations=draw(st.integers(1, 2)),
        scale=draw(st.sampled_from([0.5, 1.0, 2.0])),
        traced=draw(st.booleans()),
    )


def _serve_both_ways(case):
    """``[(rows, trace, submits)]`` of the batch inline, then on the helper."""
    points, batch, parts, overrides, scale, traced = case
    index = Index.build(points, _spec(**overrides))
    try:
        _serve_generations(index.engine.index, parts)
        radius = scale * index.spec.radius
        helper = helper_of(index)
        runs = []
        for cpus in (1, 2):
            trace = StageTrace() if traced else None
            before = helper.submits
            with usable_cpus(cpus):
                rows = index.engine.query_batch(batch, radius, trace=trace)
            runs.append((rows, trace, helper.submits - before))
        return runs
    finally:
        index.close()


PINS = (
    _overlap_case(3, 300, "zero-probes", 0.5, 1, 1.0, True),
    _overlap_case(5, 400, "multiprobe", 1.0, 2, 2.0, False),
    _overlap_case(7, 300, "covering", 0.5, 1, 1.0, True),
)


class TestHelperEqualsInline:
    @given(overlap_case())
    @example(PINS[0])
    @example(PINS[1])
    @example(PINS[2])
    @settings(max_examples=max_examples(20), deadline=None)
    def test_answers_and_stats_equal_the_inline_run(self, case):
        (inline, inline_trace, none), (overlapped, trace, submits) = _serve_both_ways(case)
        assert none == 0
        strategies = {row.stats.strategy for row in inline}
        assert submits == int(strategies == {Strategy.LSH, Strategy.LINEAR})
        assert_same_rows(overlapped, inline)
        if trace is not None:  # one span per stage either way
            assert trace.calls == inline_trace.calls

    def test_the_pins_run_both_partitions(self):
        for case in PINS:
            _, (_, trace, submits) = _serve_both_ways(case)
            assert submits == 1
            if trace is not None:
                assert {"linear", "candidates"} <= set(trace.calls)


# ----------------------------------------------------------------------
# Work units, counted as helper submits
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def landscape():
    """A Fig. 1 index, a batch that splits both ways, and the split."""
    points, batch, spec = _fig1()
    index = Index.build(points, spec)
    with usable_cpus(1):
        outcomes = index.query(QuerySpec(batch))
    linear = np.array([o.strategy == "linear" for o in outcomes])
    yield index, batch, linear
    index.close()


class TestWorkUnits:
    def test_one_partition_hands_over_nothing(self, landscape):
        index, batch, linear = landscape
        assert linear.any() and not linear.all()
        helper = helper_of(index)
        ops = {
            "lone LSH query": (batch[~linear][0], "lsh"),
            "lone linear query": (batch[linear][0], "linear"),
            "all-LSH batch": (batch[~linear], "lsh"),
            "all-linear batch": (batch[linear], "linear"),
        }
        with usable_cpus(2):
            for name, (rows, strategy) in ops.items():
                before = helper.submits
                answer = index.query(QuerySpec(rows))
                outcomes = [answer] if rows.ndim == 1 else list(answer)
                assert {o.strategy for o in outcomes} == {strategy}, name
                assert helper.submits == before, name

    def test_two_partitions_hand_over_exactly_one_job(self, landscape):
        index, batch, _ = landscape
        helper = helper_of(index)
        with usable_cpus(2):
            before = helper.submits
            index.query(QuerySpec(batch))
            assert helper.submits == before + 1

    def test_the_host_affinity_decides_by_default(self, landscape):
        """Pinned to one CPU (``taskset -c 0``) this is the inline path."""
        index, batch, _ = landscape
        helper = helper_of(index)
        before = helper.submits
        index.query(QuerySpec(batch))
        assert helper.submits - before == int(overlap._usable_cpus() >= 2)

    def test_a_busy_helper_is_passed_over(self, landscape):
        index, batch, _ = landscape
        helper = helper_of(index)
        with usable_cpus(1):
            expected = index.query(QuerySpec(batch))
        holding, release = threading.Event(), threading.Event()

        def hold():
            holding.set()
            return release.wait(timeout=30.0)

        with usable_cpus(2):
            holder = threading.Thread(target=helper.run_beside, args=(hold, lambda: None))
            holder.start()
            try:
                assert holding.wait(timeout=30.0)
                before = helper.submits
                got = index.query(QuerySpec(batch))  # inline, not queued
                assert helper.submits == before
            finally:
                release.set()
                holder.join(timeout=30.0)
        assert not holder.is_alive()
        assert_same_rows(got, expected)

    def test_four_callers_get_the_serial_answers(self, landscape):
        """4 callers x 30 two-partition batches on one index."""
        index, batch, linear = landscape
        helper = helper_of(index)
        rng = np.random.default_rng(9)
        linear_rows, lsh_rows = np.flatnonzero(linear), np.flatnonzero(~linear)
        schedule = [
            [
                np.concatenate([rng.choice(linear_rows, 2), rng.choice(lsh_rows, 4)])
                for _ in range(30)
            ]
            for _ in range(4)
        ]
        with usable_cpus(1):
            expected = [[index.query(QuerySpec(batch[rows])) for rows in ops] for ops in schedule]
        got = [None] * len(schedule)

        def caller(i):
            got[i] = [index.query(QuerySpec(batch[rows])) for rows in schedule[i]]

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(schedule))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with usable_cpus(2):
                before = helper.submits
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                submits = helper.submits - before
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert 0 < submits <= 4 * 30
        for ops_got, ops_expected in zip(got, expected):
            for g, e in zip(ops_got, ops_expected):
                assert_same_rows(g, e)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_close_joins_the_thread_and_a_closed_index_answers_inline(self):
        points, batch, spec = _fig1()
        index = Index.build(points, spec)
        helper = helper_of(index)
        known = helper_threads()
        with usable_cpus(2):
            index.query(QuerySpec(batch[:1]))
            assert helper_threads() == known  # started by the first two-partition batch
            expected = index.query(QuerySpec(batch))
            mine = helper_threads() - known
            assert len(mine) == 1 and helper.submits == 1
            index.close()
            assert not any(thread.is_alive() for thread in mine)
            got = index.query(QuerySpec(batch))
            assert helper.submits == 1
            assert helper_threads() - known == set()
            index.close()  # idempotent
        assert_same_rows(got, expected)

    def test_a_reopened_index_has_its_own_helper(self, tmp_path):
        points, batch, spec = _fig1()
        built = Index.build(points, spec)
        built.save(str(tmp_path / "idx"))
        reopened = Index.open(str(tmp_path / "idx"))
        try:
            helper = helper_of(reopened)
            assert isinstance(helper, PartitionHelper) and helper is not helper_of(built)
            with usable_cpus(2):
                expected = built.query(QuerySpec(batch))
                got = reopened.query(QuerySpec(batch))
            assert helper.submits == 1
            assert_same_rows(got, expected)
        finally:
            built.close()
            reopened.close()

    def test_a_failed_build_closes_its_helper(self, monkeypatch):
        closed = []
        close = PartitionHelper.close
        monkeypatch.setattr(
            PartitionHelper, "close", lambda helper: closed.append(helper) or close(helper)
        )

        def refuse(pool, path, **kwargs):
            raise RuntimeError("no pool today")

        monkeypatch.setattr(WorkerPool, "__init__", refuse)
        points, _, spec = _fig1()
        known = helper_threads()
        with pytest.raises(RuntimeError, match="no pool today"):
            Index.build(points, spec.with_overrides(execution="processes"))
        assert closed == []  # the shards go straight to the artifact: no helper
        assert helper_threads() - known == set()

    def test_a_failing_linear_partition_reaches_the_caller(self):
        points, batch, spec = _fig1()
        index = Index.build(points, spec)
        helper = helper_of(index)
        ran_on = []

        def failing(scan, queries, radius):
            ran_on.append(threading.current_thread().name)
            raise RuntimeError("linear partition failed")

        try:
            with usable_cpus(2):
                expected = index.query(QuerySpec(batch))
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(LinearScan, "scan_batch", failing)
                    with pytest.raises(RuntimeError, match="linear partition failed"):
                        index.query(QuerySpec(batch))
                assert len(ran_on) == 1 and ran_on[0].startswith(THREAD_NAME)
                before = helper.submits
                got = index.query(QuerySpec(batch))
                assert helper.submits == before + 1  # the helper is free again
        finally:
            index.close()
        assert_same_rows(got, expected)


class TestShardEnginesGetNoHelper:
    def test_thread_tier_and_pool_worker_shards_run_inline(self, tmp_path):
        points, batch, spec = _fig1()
        index = Index.build(points, spec.with_overrides(num_shards=2))
        known = helper_threads()
        try:
            engines = [e for state in shard_states(index) for e in state.engines.values()]
            assert [e.searcher.partition_helper for e in engines] == [None, None]
            with usable_cpus(2):
                index.query(QuerySpec(batch))
            assert helper_threads() - known == set()
            index.save(str(tmp_path / "idx"))
        finally:
            index.close()
        model = index.cost_model
        state = open_shard_state(
            str(tmp_path / "idx"), [0, 1], index.spec.to_dict(), model.alpha, model.beta
        )
        assert [e.searcher.partition_helper for e in state.engines.values()] == [None, None]
