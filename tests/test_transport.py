"""Networked shard tier: frame codec, TCP bit-identity, replica failover.

The contract under test (PR 9): the worker wire is a
:class:`~repro.service.transport.ShardTransport`, and the TCP path —
standalone :class:`~repro.service.shard_server.ShardServer` processes
serving mmap'd frozen shards — answers every request **bit-identically**
to the duplex-pipe path and the thread fan-out.  Replica sets per shard
slot add fault tolerance on top: reads round-robin across healthy
replicas and fail over on classified transport errors (disconnect,
corrupt frame, corrupt payload, dropped reply, slow link past the
deadline) without losing bit-identity; inserts broadcast to every
replica of the owning slot, and the replay log reconverges a replica
that reconnects after missing inserts.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.api import Index, IndexSpec, QuerySpec
from repro.exceptions import ConfigurationError, ShardUnavailableError
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultTolerancePolicy
from repro.service.shard_server import ShardServer
from repro.service.transport import (
    FrameError,
    corrupt_frame,
    decode_frame,
    encode_frame,
    frame_bytes,
)
from repro.service.workers import WorkerPool

N, DIM, SHARDS = 400, 10, 2
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
    base = dict(
        recv_deadline=0.5,
        startup_deadline=30.0,
        max_retries=2,
        backoff_base=0.01,
        backoff_max=0.05,
        backoff_jitter=0.25,
        breaker_threshold=10,
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
    index = Index.build(points, _spec(execution="processes"), num_workers=2)
    path = str(tmp_path_factory.mktemp("transport") / "idx")
    index.save(path)
    index.close()
    return path


@pytest.fixture(scope="module")
def thread_index(points):
    index = Index.build(points, _spec())
    yield index
    index.close()


@pytest.fixture(scope="module")
def pipe_pool(artifact):
    pool = WorkerPool(artifact, num_workers=2)
    yield pool
    pool.close()


@pytest.fixture(scope="module")
def tcp_pool(artifact):
    """A pool connected to two in-process shard servers (one per slot)."""
    servers = [ShardServer(artifact, shard_ids=[s]).start() for s in range(SHARDS)]
    pool = WorkerPool(
        artifact,
        endpoints=[f"127.0.0.1:{server.port}" for server in servers],
    )
    yield pool
    pool.close()
    for server in servers:
        server.close()


def assert_results_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)


class TestFrameCodec:
    def test_roundtrip(self):
        message = ("radius", [0, 1], np.arange(6.0).reshape(2, 3), 1.5)
        frame = encode_frame(message)
        decoded = decode_frame(frame[:12], frame[12:])
        assert decoded[0] == "radius" and decoded[3] == 1.5
        assert np.array_equal(decoded[2], message[2])

    def test_truncated_payload_is_rejected_by_length(self):
        frame = encode_frame(("ping",))
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(frame[:12], frame[12:-1])

    def test_corrupt_frame_fails_the_checksum_gate(self):
        frame = corrupt_frame(("ping",))
        with pytest.raises(FrameError, match="checksum"):
            decode_frame(frame[:12], frame[12:])

    def test_truncated_pickle_fails_at_deserialise(self):
        # The CORRUPT fault ships a checksummed-but-truncated pickle:
        # the CRC gate passes and the unpickle step reports the damage.
        import pickle

        payload = pickle.dumps(("stats",))[:4]
        frame = frame_bytes(payload)
        with pytest.raises(FrameError, match="deserialise"):
            decode_frame(frame[:12], frame[12:])


class TestEndpointConfig:
    def test_parse_endpoint_group_forms(self):
        parse = WorkerPool._parse_endpoint_group
        assert parse("127.0.0.1:7401") == [("127.0.0.1", 7401)]
        assert parse("a:1,b:2") == [("a", 1), ("b", 2)]
        assert parse([("a", 1), "b:2"]) == [("a", 1), ("b", 2)]

    @pytest.mark.parametrize("bad", ["localhost", "host:", ":7401", "host:port"])
    def test_malformed_endpoint_is_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="HOST:PORT"):
            WorkerPool._parse_endpoint_group(bad)

    def test_empty_group_list_is_rejected(self, artifact):
        with pytest.raises(ConfigurationError, match="at least one"):
            WorkerPool(artifact, endpoints=[])

    def test_more_groups_than_shards_is_rejected(self, artifact):
        with pytest.raises(ConfigurationError, match="exceed"):
            WorkerPool(
                artifact, endpoints=["a:1", "b:2", "c:3"]
            )

    def test_fault_plan_cannot_ride_remote_endpoints(self, artifact):
        plan = FaultPlan.scripted(FaultSpec(FaultKind.CRASH, worker=0, op_index=0))
        with pytest.raises(ConfigurationError, match="shard servers"):
            WorkerPool(artifact, endpoints=["a:1"], fault_plan=plan)

    def test_num_workers_must_match_group_count(self, artifact):
        with pytest.raises(ConfigurationError, match="conflicts"):
            WorkerPool(artifact, num_workers=2, endpoints=["a:1"])

    def test_replicas_field_requires_processes(self):
        with pytest.raises(ConfigurationError, match="processes"):
            _spec(replicas=2)


class TestTcpBitIdentity:
    def test_radius_matches_pipe_and_threads(
        self, tcp_pool, pipe_pool, thread_index, queries
    ):
        tcp = tcp_pool.query_batch(queries)
        assert_results_equal(tcp, pipe_pool.query_batch(queries))
        assert_results_equal(tcp, thread_index.query(queries))

    def test_topk_matches_pipe_and_threads(
        self, tcp_pool, pipe_pool, thread_index, queries
    ):
        tcp = tcp_pool.query_topk_batch(queries, k=5)
        assert_results_equal(tcp, pipe_pool.query_topk_batch(queries, k=5))
        assert_results_equal(tcp, thread_index.query(QuerySpec(queries, k=5)))

    def test_facade_open_with_endpoints(self, artifact, pipe_pool, queries):
        with ShardServer(artifact).start() as server:
            index = Index.open(
                artifact, endpoints=[f"127.0.0.1:{server.port}"]
            )
            try:
                assert isinstance(index.engine, WorkerPool)
                assert index.engine.replicas == 1
                assert_results_equal(
                    index.query(queries), pipe_pool.query_batch(queries)
                )
            finally:
                index.close()

    def test_partial_server_is_rejected_at_connect(self, artifact):
        """A server missing shards the slot needs fails fast at handshake."""
        with ShardServer(artifact, shard_ids=[0]).start() as server:
            with pytest.raises(Exception, match="needs"):
                WorkerPool(artifact, endpoints=[f"127.0.0.1:{server.port}"])


class TestReplicatedPipes:
    def test_spec_replicas_builds_a_replicated_pool(self, points, queries, thread_index):
        index = Index.build(
            points, _spec(execution="processes", replicas=2), num_workers=2
        )
        try:
            pool = index.engine
            assert pool.replicas == 2
            assert len(pool.worker_pids()) == 4  # 2 slots x 2 replicas
            assert_results_equal(
                index.query(queries), thread_index.query(queries)
            )
        finally:
            index.close()

    def test_killed_replica_fails_over_bit_identically(
        self, artifact, queries, pipe_pool
    ):
        expected = pipe_pool.query_batch(queries)
        pool = WorkerPool(
            artifact, num_workers=2, replicas=2, policy=_drill_policy()
        )
        try:
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            for _ in range(4):
                assert_results_equal(pool.query_batch(queries), expected)
            counters = pool.failure_counters()
            assert counters["replica_failovers"] >= 1
        finally:
            pool.close()


#: one transport-fault drill per injected kind; every one must stay
#: bit-identical by failing over to the clean replica.
_FAILOVER_KINDS = [
    FaultSpec(FaultKind.DISCONNECT, worker=0, op_index=1, replica=0),
    FaultSpec(FaultKind.CORRUPT_FRAME, worker=0, op_index=1, replica=0),
    FaultSpec(FaultKind.CORRUPT, worker=0, op_index=1, replica=0),
    FaultSpec(FaultKind.DROP, worker=0, op_index=1, replica=0),
    FaultSpec(FaultKind.SLOW_LINK, worker=0, op_index=1, seconds=1.5, replica=0),
]


class TestTcpReplicaFailover:
    @pytest.mark.parametrize(
        "spec", _FAILOVER_KINDS, ids=lambda s: s.kind.value
    )
    def test_transport_fault_fails_over_bit_identically(
        self, artifact, queries, pipe_pool, spec
    ):
        expected = pipe_pool.query_batch(queries)
        plan = FaultPlan.scripted(spec)
        # Replica 0 carries the plan, replica 1 is clean; both serve all
        # shards as one slot's replica set.
        faulty = ShardServer(artifact, fault_plan=plan, worker=0, replica=0).start()
        clean = ShardServer(artifact, worker=0, replica=1).start()
        pool = WorkerPool(
            artifact,
            endpoints=[f"127.0.0.1:{faulty.port},127.0.0.1:{clean.port}"],
            policy=_drill_policy(),
        )
        try:
            for _ in range(4):
                assert_results_equal(pool.query_batch(queries), expected)
            assert pool.failure_counters()["replica_failovers"] >= 1
        finally:
            pool.close()
            faulty.close()
            clean.close()

    def test_insert_replays_into_a_reconnecting_replica(self, artifact, points):
        """The replay log reconverges a replica that missed inserts.

        A ``lifetime``-scoped disconnect downs replica 0 exactly once;
        inserts landing while it is inside its reconnect backoff reach
        only replica 1 (plus the replay log).  When the pool reconnects
        replica 0 it must replay the missed inserts — observable
        directly in the in-process server's shard state.
        """
        plan = FaultPlan.scripted(
            FaultSpec(
                FaultKind.DISCONNECT, worker=0, op_index=0, replica=0,
                scope="lifetime",
            )
        )
        lagging = ShardServer(artifact, fault_plan=plan, worker=0, replica=0).start()
        clean = ShardServer(artifact, worker=0, replica=1).start()
        # A long-ish backoff holds replica 0 down across the inserts.
        pool = WorkerPool(
            artifact,
            endpoints=[f"127.0.0.1:{lagging.port},127.0.0.1:{clean.port}"],
            policy=_drill_policy(backoff_base=0.5, backoff_max=1.0),
        )
        rng = np.random.default_rng(9)
        try:
            # First read hits replica 0's one-shot disconnect and fails
            # over; replica 0 is now down, backing off.
            pool.query_batch(points[:2])
            ids = pool.insert(rng.normal(size=(5, DIM)))
            assert len(ids) == 5
            assert sum(lagging.state.sizes().values()) == N  # missed them
            assert sum(clean.state.sizes().values()) == N + 5
            # Drive reads until the pool reconnects replica 0 (rotation
            # retries it once the backoff expires) and replays the log.
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                pool.query_batch(points[:2])
                if sum(lagging.state.sizes().values()) == N + 5:
                    break
                time.sleep(0.1)
            assert sum(lagging.state.sizes().values()) == N + 5
        finally:
            pool.close()
            lagging.close()
            clean.close()

    def test_duplicate_insert_seq_is_idempotent(self, artifact):
        """The seq-numbered insert dedup that makes replay safe."""
        server = ShardServer(artifact)
        try:
            before = server.state.sizes()[0]
            point = np.zeros((1, DIM))
            first = server.state.handle(("insert", 0, point, 17))
            again = server.state.handle(("insert", 0, point, 17))
            # The reply is the shard's size: unchanged on the duplicate.
            assert first == before + 1
            assert again == before + 1
            assert server.state.sizes()[0] == before + 1
        finally:
            server.close()


def _spawn_shard_server(artifact, shard=None):
    """Launch ``repro.cli shard-serve`` and parse its startup line."""
    argv = [sys.executable, "-m", "repro.cli", "shard-serve", "--artifact", artifact]
    if shard is not None:
        argv += ["--shards", str(shard)]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    if not line:
        proc.wait(timeout=10)
        raise RuntimeError(f"shard-serve exited {proc.returncode} without a banner")
    return proc, json.loads(line)


class TestKilledReplicaProcesses:
    """Out-of-process servers, actually killed — the deployment drill."""

    def test_strict_reads_survive_killing_one_replica(
        self, artifact, queries, pipe_pool
    ):
        expected = pipe_pool.query_batch(queries)
        proc_a, banner_a = _spawn_shard_server(artifact)
        proc_b, banner_b = _spawn_shard_server(artifact)
        pool = WorkerPool(
            artifact,
            endpoints=[
                f"127.0.0.1:{banner_a['port']},127.0.0.1:{banner_b['port']}"
            ],
            policy=_drill_policy(),
        )
        try:
            assert_results_equal(pool.query_batch(queries), expected)
            proc_a.kill()
            proc_a.wait(timeout=10)
            # Strict mode: every read must still answer, bit-identically.
            for _ in range(6):
                assert_results_equal(pool.query_batch(queries), expected)
        finally:
            pool.close()
            for proc in (proc_a, proc_b):
                if proc.poll() is None:
                    proc.send_signal(signal.SIGINT)
                    proc.wait(timeout=10)

    def test_whole_replica_set_down_raises_or_degrades(self, artifact, queries):
        proc_a, banner_a = _spawn_shard_server(artifact, shard=0)
        proc_b, banner_b = _spawn_shard_server(artifact, shard=1)
        pool = WorkerPool(
            artifact,
            endpoints=[
                f"127.0.0.1:{banner_a['port']}",
                f"127.0.0.1:{banner_b['port']}",
            ],
            policy=_drill_policy(max_retries=1),
        )
        try:
            pool.query_batch(queries)  # healthy first
            proc_a.kill()
            proc_a.wait(timeout=10)
            # Strict mode refuses to serve with shard 0's set down.
            with pytest.raises(ShardUnavailableError):
                pool.query_batch(queries)
            # allow_partial degrades instead: shard 1 still contributes.
            degraded = pool.query_batch(queries, allow_partial=True)
            assert all(r.degraded for r in degraded)
            assert all(r.missing_shards == (0,) for r in degraded)
            # ...but when *no* slot answers, even allow_partial raises.
            proc_b.kill()
            proc_b.wait(timeout=10)
            with pytest.raises(ShardUnavailableError):
                pool.query_batch(queries, allow_partial=True)
        finally:
            pool.close()
            for proc in (proc_a, proc_b):
                if proc.poll() is None:
                    proc.kill()


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class TestTransportEquivalenceProperty:
    """Hypothesis: TCP == pipe == threads on arbitrary query batches."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_all_three_transports_agree(
        self, seed, tcp_pool, pipe_pool, thread_index, points
    ):
        rng = np.random.default_rng(seed)
        batch = np.concatenate(
            [points[rng.integers(0, N, size=2)], rng.normal(size=(3, DIM))]
        )
        tcp = tcp_pool.query_batch(batch)
        assert_results_equal(tcp, pipe_pool.query_batch(batch))
        assert_results_equal(tcp, thread_index.query(batch))
        tcp_k = tcp_pool.query_topk_batch(batch, k=4)
        assert_results_equal(tcp_k, pipe_pool.query_topk_batch(batch, k=4))
        assert_results_equal(tcp_k, thread_index.query(QuerySpec(batch, k=4)))
