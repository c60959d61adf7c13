"""Process-pool serving: bit-identity, crash recovery, O(mmap) startup.

The :class:`~repro.service.workers.WorkerPool` must be a drop-in
replacement for the thread fan-out: built from the same spec and seed,
``execution="processes"`` and ``execution="threads"`` answer every
radius / top-k / batch / insert request with byte-identical ids and
distances.  On top of that it carries operational guarantees the thread
path does not need: workers are respawned from the saved artifact after
a crash (with their overflow inserts replayed), and opening the pool
never rebuilds an index — startup is bounded by mmap'ing the saved
arrays.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.api import Index, IndexSpec, QuerySpec
from repro.exceptions import ConfigurationError
from repro.service.sharded import ShardedHybridIndex, default_fanout_width
from repro.service.workers import WorkerPool

N, DIM, SHARDS = 700, 12, 3


def _spec(**overrides):
    base = dict(
        metric="l2",
        radius=1.2,
        num_tables=8,
        num_shards=SHARDS,
        layout="frozen",
        cost_ratio=6.0,
        seed=7,
    )
    base.update(overrides)
    return IndexSpec(**base)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(0)
    return rng.normal(size=(N, DIM))


@pytest.fixture(scope="module")
def queries(points):
    rng = np.random.default_rng(1)
    return np.concatenate([points[:6], rng.normal(size=(6, DIM))])


@pytest.fixture(scope="module")
def thread_index(points):
    index = Index.build(points, _spec())
    yield index
    index.close()


@pytest.fixture(scope="module")
def process_index(points):
    index = Index.build(points, _spec(execution="processes"), num_workers=2)
    yield index
    index.close()


def assert_results_equal(a, b):
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.distances, b.distances)


class TestBitIdentity:
    def test_backend_is_a_worker_pool(self, process_index):
        assert isinstance(process_index.engine, WorkerPool)
        assert process_index.execution == "processes"
        assert process_index.num_shards == SHARDS

    def test_radius_batch_matches_threads(self, thread_index, process_index, queries):
        for ra, rb in zip(
            thread_index.query(queries), process_index.query(queries)
        ):
            assert_results_equal(ra, rb)

    def test_single_query_and_explicit_radius(self, thread_index, process_index, queries):
        for q in queries[:4]:
            assert_results_equal(
                thread_index.query(QuerySpec(q, radius=0.9)),
                process_index.query(QuerySpec(q, radius=0.9)),
            )

    def test_topk_matches_threads_and_is_exact(self, thread_index, process_index, queries):
        for ra, rb in zip(
            thread_index.query(QuerySpec(queries, k=5)),
            process_index.query(QuerySpec(queries, k=5)),
        ):
            assert_results_equal(ra, rb)

    def test_stats_expose_pool_width(self, process_index, thread_index):
        assert process_index.stats.pool_workers == 2
        assert process_index.stats.as_dict()["pool_workers"] == 2
        assert thread_index.stats.pool_workers == default_fanout_width(SHARDS)


class TestInserts:
    def test_insert_routing_matches_threads(self, points, queries):
        threads = Index.build(points, _spec())
        procs = Index.build(points, _spec(execution="processes"), num_workers=2)
        rng = np.random.default_rng(5)
        try:
            for batch in (rng.normal(size=(4, DIM)), rng.normal(size=(7, DIM))):
                ids_a, ids_b = threads.insert(batch), procs.insert(batch)
                assert np.array_equal(ids_a, ids_b)
                probes = np.concatenate([batch[:2], queries[:4]])
                for ra, rb in zip(
                    threads.query(probes), procs.query(probes)
                ):
                    assert_results_equal(ra, rb)
            assert procs.n == threads.n == N + 11
            # Exact top-k sees the inserted points too.
            for ra, rb in zip(
                threads.query(QuerySpec(probes, k=4)),
                procs.query(QuerySpec(probes, k=4)),
            ):
                assert_results_equal(ra, rb)
        finally:
            threads.close(), procs.close()


class TestCrashRecovery:
    def test_respawn_after_kill_preserves_answers(self, points, queries):
        procs = Index.build(points, _spec(execution="processes"), num_workers=2)
        try:
            before = procs.query(queries)
            pool = procs.engine
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            time.sleep(0.05)
            after = procs.query(queries)
            for ra, rb in zip(before, after):
                assert_results_equal(ra, rb)
        finally:
            procs.close()

    def test_inserts_concurrent_with_respawns_stay_consistent(self, points, queries):
        """Insert commits racing a crash-triggered replay lose nothing.

        A query thread that hits a dead worker respawns it and replays
        the insert log while the (single) writer thread may be
        mid-commit; the route lock makes the commit atomic with respect
        to the replay snapshot.  Afterwards the pool must answer
        exactly like a thread backend that received the same batches.
        """
        import threading

        threads = Index.build(points, _spec())
        procs = Index.build(points, _spec(execution="processes"), num_workers=2)
        rng = np.random.default_rng(23)
        batches = [rng.normal(size=(3, DIM)) for _ in range(6)]
        errors = []

        def writer():
            try:
                for batch in batches:
                    procs.insert(batch)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        try:
            pool = procs.engine
            thread = threading.Thread(target=writer)
            thread.start()
            for _ in range(3):
                os.kill(pool.worker_pids()[0], signal.SIGKILL)
                time.sleep(0.01)
                procs.query(queries[:2])  # triggers respawn + replay
            thread.join()
            assert not errors
            for batch in batches:
                threads.insert(batch)
            probes = np.concatenate([batches[0], batches[-1], queries[:4]])
            for ra, rb in zip(
                threads.query(probes), procs.query(probes)
            ):
                assert_results_equal(ra, rb)
            assert procs.n == threads.n
        finally:
            threads.close(), procs.close()

    def test_respawn_replays_overflow_inserts(self, points, queries):
        threads = Index.build(points, _spec())
        procs = Index.build(points, _spec(execution="processes"), num_workers=2)
        rng = np.random.default_rng(9)
        new = rng.normal(size=(6, DIM))
        try:
            threads.insert(new), procs.insert(new)
            pool = procs.engine
            for pid in list(pool.worker_pids()):
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.05)
            probes = np.concatenate([new[:3], queries[:3]])
            for ra, rb in zip(
                threads.query(probes), procs.query(probes)
            ):
                assert_results_equal(ra, rb)
        finally:
            threads.close(), procs.close()


class TestPersistence:
    def test_save_reopen_roundtrip_with_inserts(self, points, queries, tmp_path):
        procs = Index.build(points, _spec(execution="processes"), num_workers=2)
        rng = np.random.default_rng(11)
        procs.insert(rng.normal(size=(5, DIM)))
        path = str(tmp_path / "pool-saved")
        procs.save(path)
        reopened = Index.open(path)
        try:
            assert isinstance(reopened.engine, WorkerPool)
            assert reopened.n == procs.n
            for ra, rb in zip(
                procs.query(queries), reopened.query(queries)
            ):
                assert_results_equal(ra, rb)
        finally:
            procs.close(), reopened.close()

    def test_threads_artifact_opens_as_pool_when_spec_says_processes(
        self, points, queries, tmp_path
    ):
        # The artifact layout is identical; only the spec's execution
        # field decides which backend serves it.
        threads = Index.build(points, _spec(execution="processes"), num_workers=1)
        try:
            assert isinstance(threads.engine, WorkerPool)
            assert threads.engine.num_workers == 1
        finally:
            threads.close()

    def test_single_shard_processes_index(self, points, queries):
        single = Index.build(
            points, _spec(num_shards=1, execution="processes"), num_workers=1
        )
        reference = Index.build(points, _spec(num_shards=1))
        try:
            for ra, rb in zip(
                reference.query(queries), single.query(queries)
            ):
                assert_results_equal(ra, rb)
        finally:
            single.close(), reference.close()

    def test_checkpoint_drops_replay_log_and_survives_crash(self, points, queries):
        procs = Index.build(points, _spec(execution="processes"), num_workers=2)
        rng = np.random.default_rng(13)
        try:
            procs.insert(rng.normal(size=(6, DIM)))
            pool = procs.engine
            assert any(pool._insert_log)
            before = procs.query(queries)
            pool.checkpoint()
            assert not any(pool._insert_log)  # artifact is canonical again
            # A crash after the checkpoint recovers from disk alone.
            for pid in list(pool.worker_pids()):
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.05)
            after = procs.query(queries)
            for ra, rb in zip(before, after):
                assert_results_equal(ra, rb)
            assert procs.n == N + 6
        finally:
            procs.close()

    def test_build_rejects_workers_arg_on_thread_specs(self, points):
        with pytest.raises(ConfigurationError):
            Index.build(points, _spec(), num_workers=2)

    def test_open_rejects_workers_flag_on_thread_artifacts(self, points, tmp_path):
        index = Index.build(points, _spec())
        path = str(tmp_path / "threads-saved")
        index.save(path)
        index.close()
        with pytest.raises(ConfigurationError):
            Index.open(path, num_workers=2)

    def test_pool_rejects_dict_layout_artifacts(self, points, tmp_path):
        index = Index.build(points, _spec(layout="dict"))
        path = str(tmp_path / "dict-saved")
        index.save(path)
        index.close()
        with pytest.raises(ConfigurationError):
            WorkerPool(path)


class TestStartupIsMmapBound:
    def test_pool_open_never_rebuilds(self, tmp_path):
        """Opening K workers over a saved index must be far cheaper than
        building it — the workers only mmap the saved arrays."""
        rng = np.random.default_rng(2)
        big = rng.normal(size=(4000, 16))
        spec = IndexSpec(
            metric="l2", radius=1.5, num_tables=20, num_shards=2,
            layout="frozen", cost_ratio=6.0, seed=3,
        )
        started = time.perf_counter()
        index = Index.build(big, spec)
        build_seconds = time.perf_counter() - started
        path = str(tmp_path / "big")
        index.save(path)
        index.close()
        started = time.perf_counter()
        pool = WorkerPool(path, num_workers=2)
        open_seconds = time.perf_counter() - started
        try:
            assert pool.n == 4000
        finally:
            pool.close()
        assert open_seconds < max(0.5 * build_seconds, 0.05), (
            open_seconds,
            build_seconds,
        )


class TestDefaults:
    def test_sharded_thread_width_respects_cpu_count(self, points):
        sharded = ShardedHybridIndex(
            points, metric="l2", radius=1.2, num_shards=SHARDS,
            num_tables=6, seed=1,
        )
        try:
            assert sharded.max_workers == min(SHARDS, os.cpu_count() or 1)
        finally:
            sharded.close()

    def test_pool_width_defaults_and_clamps(self, points, tmp_path):
        index = Index.build(points, _spec(execution="processes"))
        try:
            pool = index.engine
            assert pool.num_workers == min(SHARDS, os.cpu_count() or 1)
        finally:
            index.close()


class TestPoolTelemetry:
    def test_worker_stats_op_reports_served_queries(self, points, queries):
        from repro.service.stats import ServiceStats

        procs = Index.build(points, _spec(execution="processes"), num_workers=2)
        try:
            procs.query(queries)
            procs.query(QuerySpec(queries, k=3))
            per_worker = procs.engine.worker_stats()
            assert len(per_worker) == 2
            aggregate = ServiceStats()
            for doc in per_worker:
                aggregate.merge(ServiceStats.from_dict(doc))
            # Per-worker stats describe each worker's own workload, and
            # every worker evaluates every query against its shards: the
            # pooled total is num_workers x (radius batch + top-k batch).
            assert aggregate.queries_served == 2 * 2 * len(queries)
            assert aggregate.latency.count == aggregate.queries_served
            # Workers count strategies per owned shard, so the tally
            # covers the radius batch across all shards.
            assert sum(aggregate.strategy_counts.values()) == len(queries) * SHARDS
            # Every worker shipped result arrays back over its pipe.
            assert all(doc["bytes_shipped"] > 0 for doc in per_worker)
            # Worker-local gauges (frozen overflow state) ride along.
            assert all("overflow_points" in doc["gauges"] for doc in per_worker)
        finally:
            procs.close()

    def test_parent_counts_bytes_and_respawns(self, points, queries):
        procs = Index.build(points, _spec(execution="processes"), num_workers=2)
        try:
            pool = procs.engine
            assert pool.respawns == 0
            procs.query(queries)
            assert pool.bytes_shipped > 0
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            time.sleep(0.05)
            procs.query(queries)
            assert pool.respawns == 1
            snapshot = procs.stats_snapshot()
            assert snapshot["worker_respawns"] == 1
            assert snapshot["bytes_shipped"] == pool.bytes_shipped
        finally:
            procs.close()

    def test_stats_snapshot_embeds_worker_aggregate(self, points, queries):
        procs = Index.build(points, _spec(execution="processes"), num_workers=2)
        try:
            procs.query(queries)
            snapshot = procs.stats_snapshot()
            workers = snapshot["workers"]
            assert len(workers["per_worker"]) == 2
            # Both workers evaluated the batch against their own shards;
            # the front-end's top-level counter still says len(queries).
            assert workers["aggregate"]["queries_served"] == 2 * len(queries)
            assert snapshot["queries_served"] == len(queries)
            # The snapshot must survive the wire format the stream
            # protocol and the CLI reporter use.
            import json

            json.loads(json.dumps(snapshot))
        finally:
            procs.close()

    def test_traced_pool_queries_attribute_ipc_time(self, points, queries):
        procs = Index.build(points, _spec(execution="processes"), num_workers=2)
        try:
            procs.enable_tracing(True)
            before = procs.query(queries)
            stats = procs.stats
            assert stats.stage_seconds.get("ipc", 0.0) > 0.0
            assert "merge" in stats.stage_seconds
            procs.enable_tracing(False)
            after = procs.query(queries)
            for ra, rb in zip(before, after):
                assert_results_equal(ra, rb)
        finally:
            procs.close()
