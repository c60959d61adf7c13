"""Fault drills: deterministic injection, recovery, degradation, telemetry.

The contract under test (PR 8): with a scripted or seeded
:class:`~repro.faults.FaultPlan` driving worker crashes, hangs, slow and
corrupt replies, and dropped messages, the pool answers every request
within its deadline/retry budget; ``allow_partial=False`` answers are
bit-identical to a fault-free run (or raise the typed
``ShardUnavailableError``); ``allow_partial=True`` degrades instead,
tagging results with the missing shard ids; and every recovery action
shows up in the failure telemetry.
"""

import json
import time

import numpy as np
import pytest

from repro.api import Index, IndexSpec, QuerySpec
from repro.exceptions import ConfigurationError, ShardUnavailableError
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultTolerancePolicy
from repro.service.workers import WorkerPool, _CircuitBreaker

N, DIM, SHARDS, WORKERS = 400, 12, 3, 2


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


def _drill_policy(**overrides):
    """Millisecond-scale budgets so fault drills run fast."""
    base = dict(
        recv_deadline=0.5,
        startup_deadline=30.0,
        max_retries=2,
        backoff_base=0.01,
        backoff_max=0.05,
        backoff_jitter=0.25,
        breaker_threshold=3,
        breaker_cooldown=30.0,
    )
    base.update(overrides)
    return FaultTolerancePolicy(**base)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(0)
    return rng.normal(size=(N, DIM))


@pytest.fixture(scope="module")
def queries(points):
    rng = np.random.default_rng(1)
    return np.concatenate([points[:4], rng.normal(size=(4, DIM))])


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, points):
    """A saved processes-execution artifact the drills reopen cheaply."""
    index = Index.build(points, _spec(execution="processes"), num_workers=WORKERS)
    path = str(tmp_path_factory.mktemp("faults") / "idx")
    index.save(path)
    index.close()
    return path


@pytest.fixture(scope="module")
def baseline(artifact, queries):
    """Fault-free answers every drill must reproduce bit-identically."""
    pool = WorkerPool(artifact, num_workers=WORKERS)
    try:
        return {
            "radius": pool.query_batch(queries),
            "topk": pool.query_topk_batch(queries, k=5),
        }
    finally:
        pool.close()


def assert_results_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)
        assert not a.degraded
        assert a.missing_shards == ()


class TestFaultPlan:
    def test_scripted_schedule_fires_on_the_exact_request(self):
        plan = FaultPlan.scripted(
            FaultSpec(FaultKind.CRASH, worker=0, op_index=2),
            FaultSpec(FaultKind.DROP, worker=1, op_index=0, repeat=2),
        )
        w0 = plan.for_worker(0)
        assert [w0.next_fault() for _ in range(4)] == [
            None, None, plan.specs[0], None,
        ]
        w1 = plan.for_worker(1)
        assert [f.kind if f else None for f in (w1.next_fault(), w1.next_fault(), w1.next_fault())] == [
            FaultKind.DROP, FaultKind.DROP, None,
        ]

    def test_seeded_plans_are_reproducible(self):
        a = FaultPlan.seeded(seed=11, num_workers=3, num_ops=50, rate=0.2)
        b = FaultPlan.seeded(seed=11, num_workers=3, num_ops=50, rate=0.2)
        c = FaultPlan.seeded(seed=12, num_workers=3, num_ops=50, rate=0.2)
        assert a == b
        assert a != c
        assert all(spec.worker < 3 and spec.op_index < 50 for spec in a.specs)

    def test_empty_plan_is_falsy_and_injects_nothing(self):
        plan = FaultPlan.scripted()
        assert not plan
        assert plan.for_worker(0).next_fault() is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.CRASH, worker=-1, op_index=0)
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.CRASH, worker=0, op_index=0, repeat=0)
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.CRASH, worker=0, op_index=0, scope="bogus")
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.CRASH, worker=0, op_index=0, replica=-1)
        with pytest.raises(ConfigurationError):
            FaultPlan.seeded(seed=0, num_workers=0, num_ops=1)
        with pytest.raises(ConfigurationError):
            FaultPlan.seeded(seed=0, num_workers=1, num_ops=1, rate=1.5)

    def test_lifetime_scope_counts_across_injector_sessions(self):
        """``scope="lifetime"`` matches ``start + index``, not the session."""
        spec = FaultSpec(FaultKind.DROP, worker=0, op_index=3, scope="lifetime")
        plan = FaultPlan.scripted(spec)
        # First session consumed ops 0-2; the fault fires at lifetime 3.
        resumed = plan.for_worker(0, start=3)
        assert resumed.next_fault() == spec
        # A session starting past the fault index never sees it again —
        # unlike the default process scope, which restarts per session.
        later = plan.for_worker(0, start=4)
        assert [later.next_fault() for _ in range(3)] == [None, None, None]

    def test_replica_field_pins_a_fault_to_one_endpoint(self):
        pinned = FaultSpec(FaultKind.DROP, worker=0, op_index=0, replica=1)
        wildcard = FaultSpec(FaultKind.DROP, worker=0, op_index=1)
        plan = FaultPlan.scripted(pinned, wildcard)
        r0 = plan.for_worker(0, replica=0)
        assert [r0.next_fault() for _ in range(2)] == [None, wildcard]
        r1 = plan.for_worker(0, replica=1)
        assert [r1.next_fault() for _ in range(2)] == [pinned, wildcard]


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultTolerancePolicy(recv_deadline=0.0)
        with pytest.raises(ConfigurationError):
            FaultTolerancePolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            FaultTolerancePolicy(backoff_base=1.0, backoff_max=0.5)
        with pytest.raises(ConfigurationError):
            FaultTolerancePolicy(breaker_threshold=0)

    def test_backoff_is_exponential_capped_and_jittered(self):
        policy = FaultTolerancePolicy(
            backoff_base=0.1, backoff_max=0.3, backoff_jitter=0.5
        )
        assert policy.backoff_seconds(1, 0.0) == pytest.approx(0.1)
        assert policy.backoff_seconds(2, 0.0) == pytest.approx(0.2)
        assert policy.backoff_seconds(5, 0.0) == pytest.approx(0.3)  # capped
        assert policy.backoff_seconds(1, 1.0) == pytest.approx(0.15)

    def test_with_overrides_revalidates(self):
        policy = FaultTolerancePolicy().with_overrides(max_retries=5)
        assert policy.max_retries == 5
        with pytest.raises(ConfigurationError):
            FaultTolerancePolicy().with_overrides(recv_deadline=-1.0)


class TestCircuitBreaker:
    def test_opens_at_threshold_and_admits_half_open_probe(self):
        breaker = _CircuitBreaker(threshold=2, cooldown=0.05)
        assert breaker.allow() and not breaker.is_open
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # this call opened it
        assert breaker.is_open and not breaker.allow()
        time.sleep(0.06)
        assert breaker.allow()  # half-open probe admitted
        assert breaker.record_failure() is False  # probe failed: re-opened
        assert not breaker.allow()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_success()
        assert not breaker.is_open and breaker.allow()


class TestRecovery:
    """Transient faults: the answer is bit-identical to the fault-free run.

    Faults are scheduled at ``op_index=1`` (after a clean warmup
    request): request indices count per worker *process*, so a fault at
    index 0 would re-fire on the fresh process's retry and model a
    persistent outage instead (see :class:`TestDegradation`).
    """

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec(FaultKind.CRASH, worker=0, op_index=1),
            FaultSpec(FaultKind.HANG, worker=0, op_index=1, seconds=0.05),
            FaultSpec(FaultKind.DROP, worker=1, op_index=1),
            FaultSpec(FaultKind.CORRUPT, worker=0, op_index=1),
        ],
        ids=["crash", "hang", "drop", "corrupt"],
    )
    def test_transient_fault_recovers_bit_identically(
        self, artifact, queries, baseline, spec
    ):
        pool = WorkerPool(
            artifact,
            num_workers=WORKERS,
            policy=_drill_policy(),
            fault_plan=FaultPlan.scripted(spec),
        )
        try:
            # Warmup: request 0 on every worker is clean by schedule.
            assert_results_equal(pool.query_batch(queries), baseline["radius"])
            # Request 1 trips the fault; recovery must be invisible.
            assert_results_equal(pool.query_batch(queries), baseline["radius"])
            counters = pool.counters()
            assert counters["worker_retries"] >= 1
            assert sum(counters["respawns_by_cause"].values()) >= 1
            if spec.kind in (FaultKind.HANG, FaultKind.DROP):
                assert counters["worker_timeouts"] >= 1
        finally:
            pool.close()

    def test_slow_reply_within_deadline_needs_no_recovery(
        self, artifact, queries, baseline
    ):
        pool = WorkerPool(
            artifact,
            num_workers=WORKERS,
            policy=_drill_policy(recv_deadline=5.0),
            fault_plan=FaultPlan.scripted(
                FaultSpec(FaultKind.SLOW, worker=0, op_index=0, seconds=0.05)
            ),
        )  # SLOW never respawns, so op_index=0 is safe here
        try:
            assert_results_equal(pool.query_batch(queries), baseline["radius"])
            counters = pool.counters()
            assert counters["worker_retries"] == 0
            assert counters["respawns_by_cause"] == {}
        finally:
            pool.close()

    def test_lifetime_scope_crash_at_index_zero_still_recovers(
        self, artifact, queries, baseline
    ):
        """The outage-vs-transient distinction is the ``scope`` field.

        A *process*-scoped crash at request index 0 re-fires on every
        respawn (a persistent outage; see :class:`TestDegradation`).
        The same crash with ``scope="lifetime"`` fires exactly once in
        the endpoint's life — the respawned process resumes at the
        lifetime op count, past the fault — so even an index-0 crash
        recovers bit-identically.
        """
        pool = WorkerPool(
            artifact,
            num_workers=WORKERS,
            policy=_drill_policy(),
            fault_plan=FaultPlan.scripted(
                FaultSpec(
                    FaultKind.CRASH, worker=0, op_index=0, scope="lifetime"
                )
            ),
        )
        try:
            assert_results_equal(pool.query_batch(queries), baseline["radius"])
            assert_results_equal(pool.query_batch(queries), baseline["radius"])
            counters = pool.counters()
            assert counters["respawns_by_cause"].get("crash", 0) == 1
        finally:
            pool.close()

    def test_topk_recovers_bit_identically(self, artifact, queries, baseline):
        pool = WorkerPool(
            artifact,
            num_workers=WORKERS,
            policy=_drill_policy(),
            fault_plan=FaultPlan.scripted(
                FaultSpec(FaultKind.CRASH, worker=1, op_index=1)
            ),
        )
        try:
            assert_results_equal(
                pool.query_topk_batch(queries, k=5), baseline["topk"]
            )
            assert_results_equal(
                pool.query_topk_batch(queries, k=5), baseline["topk"]
            )
        finally:
            pool.close()


def _always_down(worker: int) -> FaultPlan:
    """A persistently sick worker: crashes on every request, forever."""
    return FaultPlan.scripted(
        FaultSpec(FaultKind.CRASH, worker=worker, op_index=0, repeat=1_000_000)
    )


class TestDegradation:
    def test_strict_mode_raises_typed_error_naming_the_shards(
        self, artifact, queries
    ):
        pool = WorkerPool(
            artifact,
            num_workers=WORKERS,
            policy=_drill_policy(max_retries=1),
            fault_plan=_always_down(0),
        )
        try:
            with pytest.raises(ShardUnavailableError) as excinfo:
                pool.query_batch(queries)
            assert excinfo.value.shards == tuple(pool.worker_shards(0))
        finally:
            pool.close()

    def test_allow_partial_degrades_with_missing_shard_ids(
        self, artifact, queries, baseline
    ):
        pool = WorkerPool(
            artifact,
            num_workers=WORKERS,
            policy=_drill_policy(max_retries=1),
            fault_plan=_always_down(0),
        )
        try:
            results = pool.query_batch(queries, allow_partial=True)
            missing = tuple(pool.worker_shards(0))
            live = set(np.concatenate([pool._shard_gids[1]]).tolist())
            for got, full in zip(results, baseline["radius"]):
                assert got.degraded
                assert got.missing_shards == missing
                # The degraded answer is exactly the fault-free answer
                # restricted to the shards that stayed reachable.
                keep = np.isin(full.ids, np.fromiter(live, dtype=np.int64, count=len(live)))
                assert np.array_equal(got.ids, full.ids[keep])
                assert np.array_equal(got.distances, full.distances[keep])
        finally:
            pool.close()

    def test_allow_partial_topk_serves_the_reachable_shards(
        self, artifact, queries
    ):
        pool = WorkerPool(
            artifact,
            num_workers=WORKERS,
            policy=_drill_policy(max_retries=1),
            fault_plan=_always_down(1),
        )
        try:
            results = pool.query_topk_batch(queries, k=5, allow_partial=True)
            missing = tuple(pool.worker_shards(1))
            live_gids = np.concatenate(
                [pool._shard_gids[s] for s in pool.worker_shards(0)]
            )
            for got in results:
                assert got.degraded
                assert got.missing_shards == missing
                assert got.ids.size == 5
                assert np.isin(got.ids, live_gids).all()
        finally:
            pool.close()

    def test_breaker_opens_and_fails_fast(self, artifact, queries):
        pool = WorkerPool(
            artifact,
            num_workers=WORKERS,
            policy=_drill_policy(max_retries=0, breaker_threshold=1),
            fault_plan=_always_down(0),
        )
        try:
            with pytest.raises(ShardUnavailableError):
                pool.query_batch(queries)
            assert pool.open_breaker_count() == 1
            counters = pool.counters()
            assert counters["breaker_opens"] == 1
            # While open (30s cooldown) the worker fails fast: the
            # degraded path answers without paying another deadline.
            started = time.perf_counter()
            results = pool.query_batch(queries, allow_partial=True)
            assert time.perf_counter() - started < 0.4  # < one deadline
            assert all(r.degraded for r in results)
        finally:
            pool.close()

    def test_all_shards_missing_raises_even_with_allow_partial(
        self, artifact, queries
    ):
        plan = FaultPlan.scripted(
            FaultSpec(FaultKind.CRASH, worker=0, op_index=0, repeat=1_000_000),
            FaultSpec(FaultKind.CRASH, worker=1, op_index=0, repeat=1_000_000),
        )
        pool = WorkerPool(
            artifact,
            num_workers=WORKERS,
            policy=_drill_policy(max_retries=0),
            fault_plan=plan,
        )
        try:
            with pytest.raises(ShardUnavailableError):
                pool.query_batch(queries, allow_partial=True)
        finally:
            pool.close()


class TestFacadeAndStream:
    def test_index_open_threads_policy_and_plan(self, artifact, queries):
        index = Index.open(
            artifact,
            num_workers=WORKERS,
            fault_policy=_drill_policy(max_retries=1),
            fault_plan=_always_down(0),
        )
        try:
            request = QuerySpec(queries, allow_partial=True)
            results = index.query(request)
            assert all(r.degraded for r in results)
            snapshot = index.stats_snapshot()
            assert snapshot["degraded_responses"] == len(queries)
            assert sum(snapshot["respawns_by_cause"].values()) >= 1
            assert snapshot["gauges"]["breaker_open_workers"] >= 0.0
        finally:
            index.close()

    def test_fault_args_rejected_for_non_process_indexes(self, points, tmp_path):
        index = Index.build(points, _spec())
        path = str(tmp_path / "threads-idx")
        index.save(path)
        index.close()
        with pytest.raises(ConfigurationError):
            Index.open(path, fault_policy=_drill_policy())

    def test_stream_protocol_degrades_and_exposes_failure_metrics(
        self, artifact, queries
    ):
        from repro.service import serve_stream

        index = Index.open(
            artifact,
            num_workers=WORKERS,
            fault_policy=_drill_policy(max_retries=1),
            fault_plan=_always_down(0),
        )
        try:
            script = [
                json.dumps(
                    {"query": queries[0].tolist(), "radius": 1.2,
                     "allow_partial": True}
                ),
                json.dumps({"query": queries[0].tolist(), "radius": 1.2}),
                json.dumps({"op": "metrics"}),
            ]
            partial, strict, metrics = (
                json.loads(line) for line in serve_stream(index, script)
            )
            assert partial["degraded"] is True
            assert partial["missing_shards"] == sorted(
                index.engine.worker_shards(0)
            )
            assert "error" in strict and "unavailable" in strict["error"]
            assert "degraded" not in strict
            text = metrics["metrics"]
            for name in (
                "repro_worker_timeouts_total",
                "repro_worker_retries_total",
                "repro_degraded_responses_total",
                "repro_breaker_opens_total",
                "repro_worker_respawns_by_cause_total",
            ):
                assert name in text
        finally:
            index.close()

    def test_heartbeat_respawns_a_silently_dead_worker(self, artifact):
        import os
        import signal

        pool = WorkerPool(
            artifact,
            num_workers=WORKERS,
            policy=_drill_policy(heartbeat_interval=0.05),
        )
        try:
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                counters = pool.counters()
                if counters["respawns_by_cause"].get("heartbeat", 0) >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("heartbeat never respawned the killed worker")
            assert victim not in pool.worker_pids()
        finally:
            pool.close()

    def test_heartbeat_respawn_reaches_facade_stats_and_prometheus(
        self, artifact
    ):
        """The heartbeat cause must survive the full telemetry pipeline.

        Pool counter -> facade ``stats_snapshot`` -> Prometheus
        exposition: an operator watching the scrape endpoint sees the
        silent-death respawn with its cause label, no pool access
        needed.
        """
        import os
        import signal

        from repro.observability.prometheus import prometheus_text

        index = Index.open(
            artifact,
            num_workers=WORKERS,
            fault_policy=_drill_policy(heartbeat_interval=0.05),
        )
        try:
            victim = index.engine.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            # Poll the passive parent-side counter: a stats_snapshot()
            # here would itself round-trip to the dead endpoint and
            # respawn it with cause "crash" before the heartbeat runs.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                counters = index.engine.counters()
                if counters["respawns_by_cause"].get("heartbeat", 0) >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("heartbeat never respawned the killed worker")
            snapshot = index.stats_snapshot()
            assert snapshot["respawns_by_cause"].get("heartbeat", 0) >= 1
            text = prometheus_text(snapshot)
            assert (
                'repro_worker_respawns_by_cause_total{cause="heartbeat"}'
                in text
            )
        finally:
            index.close()


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class TestChaosSoak:
    """Seeded chaos schedules: never deadlock, never lose bit-identity."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_seeded_schedule_recovers_within_budget(
        self, seed, artifact, queries, baseline
    ):
        policy = _drill_policy(recv_deadline=0.4)
        plan = FaultPlan.seeded(
            seed=seed,
            num_workers=WORKERS,
            num_ops=4,
            rate=0.3,
            max_delay=0.05,
        )
        assert plan == FaultPlan.seeded(
            seed=seed, num_workers=WORKERS, num_ops=4, rate=0.3, max_delay=0.05
        )
        # Shift every fault off request index 0: indices count per
        # worker *process*, so an index-0 fault re-fires on each
        # post-respawn retry — a persistent outage, which the strict
        # bit-identity contract is allowed to fail on.  With index 0
        # clean, one respawn always reaches a healthy request.
        shifted = FaultPlan.scripted(
            *(
                FaultSpec(
                    s.kind,
                    worker=s.worker,
                    op_index=s.op_index + 1,
                    seconds=s.seconds,
                    repeat=s.repeat,
                )
                for s in plan.specs
            )
        )
        # Worst case per batch: every attempt pays the full deadline on
        # both workers plus backoff and respawn overhead.
        budget = (
            (policy.max_retries + 1) * policy.recv_deadline * WORKERS + 5.0
        )
        pool = WorkerPool(
            artifact, num_workers=WORKERS, policy=policy, fault_plan=shifted
        )
        try:
            for _ in range(3):
                started = time.monotonic()
                results = pool.query_batch(queries)
                assert time.monotonic() - started < budget
                assert_results_equal(results, baseline["radius"])
        finally:
            pool.close()
