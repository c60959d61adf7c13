"""The pool's exchange loop: one request path, on the calling thread.

``WorkerPool._exchange`` scatters a fan-out's requests and gathers the
replies without starting or waking a thread.  Pinned here as counts and
bounded joins, never as timings: the healthy path submits nothing to an
executor, every op travels the one sender, a hung endpoint delays its
own slot only, and concurrent callers get the sequential answers.
"""

import concurrent.futures
import inspect
import sys
import threading

import numpy as np
import pytest

from repro.api import Index, IndexSpec
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultTolerancePolicy
from repro.service import workers as workers_module
from repro.service.workers import WorkerPool

N, DIM, SHARDS, WORKERS = 400, 12, 2, 2


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(0).normal(size=(N, DIM))


@pytest.fixture(scope="module")
def queries(points):
    rng = np.random.default_rng(1)
    return np.concatenate([points[:32], rng.normal(size=(32, DIM))])


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, points):
    spec = IndexSpec(
        metric="l2", radius=1.2, num_tables=8, num_shards=SHARDS,
        layout="frozen", execution="processes", cost_ratio=6.0, seed=7,
    )
    index = Index.build(points, spec, num_workers=WORKERS)
    path = str(tmp_path_factory.mktemp("exchange") / "idx")
    index.save(path)
    index.close()
    return path


def same_answers(got, expected):
    return len(got) == len(expected) and all(
        np.array_equal(a.ids, b.ids) and np.array_equal(a.distances, b.distances)
        for a, b in zip(got, expected)
    )


class TestHealthyPathStartsNoThread:
    def test_no_executor_submit_and_no_new_thread(self, artifact, queries, monkeypatch):
        submits = []
        submit = concurrent.futures.ThreadPoolExecutor.submit
        monkeypatch.setattr(
            concurrent.futures.ThreadPoolExecutor,
            "submit",
            lambda self, *a, **kw: submits.append(a) or submit(self, *a, **kw),
        )
        pool = WorkerPool(artifact, num_workers=WORKERS)
        try:
            exchanges = []
            exchange = pool._exchange
            monkeypatch.setattr(
                pool, "_exchange",
                lambda messages, log_entry=None: exchanges.append(sorted(messages))
                or exchange(messages, log_entry),
            )
            threads = threading.active_count()
            ops = {
                "single": lambda: pool.query_batch(queries[:1]),
                "batch": lambda: pool.query_batch(queries),
                "topk": lambda: pool.query_topk_batch(queries[:8], 5),
                "stats": pool.worker_stats,
                "shard": lambda: pool.shard_query_batch(1, queries[:2], 1.2),
                "insert": lambda: pool.insert(queries[-4:] + 0.5),
            }
            for name, op in ops.items():
                op()
                assert submits == [], name
                assert threading.active_count() == threads, name
            # _request is the loop with one entry: the fan-outs address
            # every worker, the one-shard read and each routed insert one.
            assert exchanges == [[0, 1]] * 4 + [[1]] + [[0], [1]]
            # ... and map_shards is what the executor is still for.
            assert pool.map_shards(lambda s: s) == [0, 1]
            assert len(submits) == SHARDS
        finally:
            pool.close()

    def test_one_function_sends_requests(self):
        call = "transport.send("
        assert inspect.getsource(workers_module).count(call) == 2
        assert inspect.getsource(WorkerPool._send_locked).count(call) == 1
        assert inspect.getsource(WorkerPool.close).count(call) == 1  # ("stop",)


class TestLockDiscipline:
    def test_hung_endpoint_delays_its_own_slot_only(self, artifact, queries):
        """While A waits out worker 0's deadline, worker 1 serves B at once."""
        deadline = 1.5
        pool = WorkerPool(
            artifact,
            num_workers=WORKERS,
            policy=FaultTolerancePolicy().with_overrides(
                recv_deadline=deadline, max_retries=1, backoff_base=0.01,
                backoff_max=0.02, heartbeat_interval=0.0,
            ),
            fault_plan=FaultPlan.scripted(FaultSpec(FaultKind.DROP, worker=0, op_index=1)),
        )
        try:
            expected = pool.query_batch(queries)  # op 0 everywhere: clean
            local = pool.shard_query_batch(1, queries[:4], 1.2)  # worker 1's op 1
            sent_both = threading.Event()
            send = pool._send_locked

            def traced_send(worker, replica, message):
                send(worker, replica, message)
                if worker == 1:  # ascending order: worker 0's went first
                    sent_both.set()

            pool._send_locked = traced_send
            box = {}
            a = threading.Thread(target=lambda: box.update(a=pool.query_batch(queries)))
            a.start()
            assert sent_both.wait(timeout=10.0)  # A holds both endpoints' locks
            b = threading.Thread(
                target=lambda: box.update(b=pool.shard_query_batch(1, queries[:4], 1.2))
            )
            b.start()
            b.join(timeout=deadline / 2)
            assert not b.is_alive(), "worker 1 was held hostage by worker 0's hang"
            assert a.is_alive()  # ... and A is still waiting worker 0 out
            assert same_answers(box["b"], local)
            a.join(timeout=4 * deadline + 30.0)
            assert not a.is_alive()
            assert same_answers(box["a"], expected)  # retried, bit-identical
            counters = pool.failure_counters()
            assert counters["worker_timeouts"] == 1 and counters["worker_retries"] == 1
            assert counters["respawns_by_cause"] == {"timeout": 1}
        finally:
            pool.close()

    def test_concurrent_callers_get_the_sequential_answers(self, artifact, queries):
        """8 callers x 50 mixed reads, an insert between two phases."""
        callers, per_caller = 8, 50
        rng = np.random.default_rng(99)
        schedule = [
            [
                (("single", "batch", "topk")[int(rng.integers(3))],
                 int(rng.integers(0, queries.shape[0] - 8)))
                for _ in range(per_caller)
            ]
            for _ in range(callers)
        ]
        pool = WorkerPool(artifact, num_workers=WORKERS, replicas=2)

        def run(op):
            kind, at = op
            if kind == "single":
                return pool.query_batch(queries[at : at + 1])
            if kind == "batch":
                return pool.query_batch(queries[at : at + 8])
            return pool.query_topk_batch(queries[at : at + 3], 4)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for phase in range(2):
                expected = [[run(op) for op in ops] for ops in schedule]
                got = [None] * callers

                def caller(i):
                    got[i] = [run(op) for op in schedule[i]]

                threads = [threading.Thread(target=caller, args=(i,)) for i in range(callers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                assert not any(thread.is_alive() for thread in threads)
                for i in range(callers):
                    assert all(same_answers(g, e) for g, e in zip(got[i], expected[i])), (
                        phase, i,
                    )
                if phase == 0:
                    pool.insert(queries[:16] + 0.25)
            assert pool.failure_counters()["worker_retries"] == 0
            assert pool.open_breaker_count() == 0
        finally:
            sys.setswitchinterval(interval)
            pool.close()
