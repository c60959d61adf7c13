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
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import Index, IndexSpec, QuerySpec
from repro.core.results import STATS_COLUMNS, STRATEGY_CODES, QueryResult, QueryStats
from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    ShardUnavailableError,
)
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultTolerancePolicy
from repro.service.shard_server import ShardServer
from repro.service.transport import (
    _PREFIX,
    WIRE_VERSION,
    FrameError,
    PipeTransport,
    corrupt_frame,
    decode_frame,
    encode_frame,
    truncated_frame,
)
from repro.service.workers import (
    _MISSING_STATS,
    WorkerError,
    WorkerPool,
    _checked_block,
    _TransportFailure,
)

from conftest import merge_radius_results, shard_states, unpack_block

N, DIM, SHARDS = 400, 10, 2
PREFIX = _PREFIX.size
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


def _split(frame: bytes) -> tuple[bytes, bytes]:
    """A frame as its prefix and the rest (the zero-copy split)."""
    return frame[:PREFIX], frame[PREFIX:]


def assert_results_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)


class TestFrameCodec:
    def test_roundtrip(self):
        message = ("radius", [0, 1], np.arange(6.0).reshape(2, 3), 1.5)
        frame = encode_frame(message)
        decoded = decode_frame(frame[:PREFIX], frame[PREFIX:])
        assert decoded[0] == "radius" and decoded[3] == 1.5
        assert np.array_equal(decoded[2], message[2])

    def test_truncated_payload_is_rejected_by_length(self):
        frame = encode_frame(("ping",))
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(frame[:PREFIX], frame[PREFIX:-1])
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(frame[: PREFIX - 1], b"")

    def test_corrupt_frame_fails_the_checksum_gate(self):
        frame = corrupt_frame(("ping",))
        with pytest.raises(FrameError, match="checksum"):
            decode_frame(frame[:PREFIX], frame[PREFIX:])

    @pytest.mark.parametrize("checksum", [False, True])
    def test_truncated_body_fails_at_decode(self, checksum):
        # The CORRUPT fault ships a prefix that agrees with a body cut to
        # a third: length and CRC gates pass, the decode step reports it.
        frame = truncated_frame(("stats",), checksum=checksum)
        with pytest.raises(FrameError, match="failed to decode"):
            decode_frame(frame[:PREFIX], frame[PREFIX:], require_checksum=checksum)

    @pytest.mark.parametrize("message", [None, 0, 10_032, 2.5, True, "pong", ("stats",)])
    def test_truncated_small_frames_never_decode(self, message):
        """A cut header never parses as a smaller value (``10032`` -> ``10``)."""
        frame = truncated_frame(message)
        with pytest.raises(FrameError):
            decode_frame(frame[:PREFIX], frame[PREFIX:])

    def test_none_is_four_body_bytes(self):
        """Callers split frames at ``len(encode_frame(None)) - 4``."""
        assert len(encode_frame(None)) - 4 == PREFIX

    def test_types_survive_the_wire(self):
        message = (
            "ready",
            {0: 10, 1: (2, [3, None]), "k": {"nested": True}},
            WIRE_VERSION,
            float("inf"),
        )
        decoded = decode_frame(*_split(encode_frame(message)))
        assert decoded == message
        assert type(decoded) is tuple and type(decoded[1][1]) is tuple
        assert list(decoded[1]) == [0, 1, "k"]

    def test_arrays_are_views_of_the_received_body(self):
        block = (
            np.arange(3, dtype=np.int64),
            np.empty(0),
            np.ones((2, 8)),
            np.array(5, dtype=np.int32),
            np.array([True, False]),
            np.arange(12.0).reshape(3, 4)[:, 1],  # non-contiguous
            np.arange(4, dtype=">i4"),  # big-endian
        )
        head, body = _split(encode_frame({7: block}))
        decoded = decode_frame(head, body)[7]
        for got, sent in zip(decoded, block):
            assert got.shape == sent.shape
            assert np.array_equal(got, sent)
            assert got.dtype == sent.dtype.newbyteorder("<")
            if got.size:
                assert np.shares_memory(got, np.frombuffer(body, np.uint8))
                assert got.ctypes.data % 8 == (
                    np.frombuffer(body, np.uint8).ctypes.data % 8
                )

    @pytest.mark.parametrize(
        "value", [{1, 2}, np.array([object()]), np.zeros(2, np.complex128), b"raw"]
    )
    def test_unframeable_values_are_refused(self, value):
        with pytest.raises(FrameError, match="cannot frame"):
            encode_frame(("reply", value))

    def test_tcp_reader_requires_a_checksum(self):
        head, body = _split(encode_frame(("ping",)))
        assert decode_frame(head, body) == ("ping",)
        with pytest.raises(FrameError, match="no checksum"):
            decode_frame(head, body, require_checksum=True)

    def test_other_wire_version_is_named(self):
        frame = bytearray(encode_frame(("ping",)))
        frame[4:6] = (WIRE_VERSION + 1).to_bytes(2, "little")
        with pytest.raises(FrameError, match=f"version {WIRE_VERSION + 1}.*{WIRE_VERSION}"):
            decode_frame(*_split(bytes(frame)))

    def test_oversized_array_claim_is_refused_without_allocating(self):
        header = b'{"a":["<f8",[1099511627776],0]}'
        frame = _PREFIX.pack(b"HLSW", WIRE_VERSION, 0, 0, len(header), 8) + header + bytes(8)
        tracemalloc.start()
        try:
            with pytest.raises(FrameError, match="overruns"):
                decode_frame(*_split(frame))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _random_block(rng, q: int, shard_size: int) -> tuple:
    """A shard's radius-reply block with sorted local ids per query."""
    counts = rng.integers(0, 6, size=q)
    ids = np.concatenate(
        [np.sort(rng.choice(shard_size, size=c, replace=False)) for c in counts]
    ).astype(np.uint32)  # the wire's id dtype
    stats = rng.random((q, 8)) * 50
    stats[:, [0, 2, 6]] = rng.integers(-1, 40, size=(q, 3))
    stats[:, 1][rng.random(q) < 0.3] = np.nan
    stats[:, 5] = rng.integers(0, 2, size=q)
    stats[:, 7] = rng.integers(0, 2, size=q)
    return counts, ids, rng.random(ids.size), stats


def _block_with(column=None, value=0.0, distances=np.float64, stats=np.float64) -> dict:
    """A valid two-row radius reply of shard 0, with ``value`` written
    into row 0's ``column`` and the given distance / stats dtypes."""
    matrix = np.zeros((2, len(STATS_COLUMNS)), dtype=stats)
    if column is not None:
        matrix[0, STATS_COLUMNS.index(column)] = value
    return {0: (np.array([1, 1]), np.array([0, 4], np.uint32), np.zeros(2, distances), matrix)}


class TestFlatRadiusReply:
    @pytest.mark.parametrize("missing", [(), (1,)])
    def test_batch_merge_equals_the_per_query_merge(self, missing):
        rng = np.random.default_rng(5)
        q, shards = 7, 3
        gids = [np.arange(s, 90, shards, dtype=np.int64) for s in range(shards)]
        fake_pool = SimpleNamespace(
            n=90, num_shards=shards, _shard_gids=gids
        )
        blocks = {
            s: _random_block(rng, q, gids[s].size)
            for s in range(shards) if s not in missing
        }
        merged = WorkerPool._merge_blocks(fake_pool, blocks, q, 1.5, missing)
        parts = {s: unpack_block(block, 1.5) for s, block in blocks.items()}
        absent = QueryResult(ids=np.empty(0, np.int64), distances=np.empty(0), radius=1.5)
        for i, got in enumerate(merged):
            expected = merge_radius_results(
                gids, [parts[s][i] if s in parts else absent for s in range(shards)], 1.5
            )
            assert np.array_equal(got.ids, expected.ids)
            assert np.array_equal(got.distances, expected.distances)
            assert repr(got.stats) == repr(expected.stats)  # nan-aware, type-exact
            assert got.degraded == bool(missing) and got.missing_shards == missing

    @pytest.mark.parametrize(
        "reply",
        [
            {},
            None,
            ["not", "a", "dict"],
            {0: (np.zeros(3, np.int64),)},
            {0: (np.array([1, 1]), np.arange(3), np.zeros(3), np.zeros((2, 8)))},
            {0: (np.array([1, 1]), np.arange(2), np.zeros(2), np.zeros((2, 7)))},
            {0: (np.array([1, 1]), np.zeros(2), np.zeros(2), np.zeros((2, 8)))},
            # Every stats cell that a merged row reads back as an int
            # must be an integral value in its column's range, and the
            # float columns must be float64 (no silent upcast).
            _block_with("num_collisions", np.nan),
            _block_with("exact_candidates", np.inf),
            _block_with("num_collisions", 1e300),
            _block_with(distances=np.float32),
            _block_with(stats=np.float32),
            _block_with("num_collisions", -1.0),
            _block_with("exact_candidates", -2.0),
            _block_with("probes_used", 1.5),
            _block_with("probes_used", -2.0),
            _block_with("strategy", float(len(STRATEGY_CODES))),
            _block_with("strategy", -1.0),
            _block_with("exact", 2.0),
            _block_with("exact", 0.5),
        ],
    )
    def test_malformed_blocks_are_refused(self, reply):
        with pytest.raises(WorkerError, match="malformed"):
            _checked_block(reply, 0, 2)

    @pytest.mark.parametrize(
        "column, value",
        [("num_collisions", 2.0**53 - 1), ("exact_candidates", -1.0), ("strategy", 2.0),
         ("probes_used", -1.0), ("exact", 1.0), ("estimated_candidates", np.nan),
         ("estimated_lsh_cost", np.inf)],
    )
    def test_edge_cells_are_accepted(self, column, value):
        reply = _block_with(column, value)
        assert _checked_block(reply, 0, 2) is reply[0]

    def test_a_malformed_reply_fails_the_query_with_a_typed_error(self):
        """The check runs before the merge, inside ``Index.query``: a bad
        cell is a ``WorkerError``, not a ``ValueError`` or an
        ``OverflowError`` from a row read later."""
        rng = np.random.default_rng(3)
        index = Index.build(rng.normal(size=(N, DIM)), _spec())
        try:
            state = shard_states(index)[1]
            honest = state.handle

            def lying(message):
                reply = honest(message)
                if message[0] == "radius":
                    counts, ids, distances, stats = reply[1]
                    stats = stats.copy()
                    stats[0, STATS_COLUMNS.index("num_collisions")] = np.nan
                    reply[1] = (counts, ids, distances, stats)
                return reply

            state.handle = lying
            with pytest.raises(WorkerError, match="malformed radius block"):
                index.query(QuerySpec(rng.normal(size=(4, DIM))))
        finally:
            index.close()

    def test_missing_shard_stats_are_the_query_stats_defaults(self):
        defaults = QueryStats()
        assert _MISSING_STATS.shape == (len(STATS_COLUMNS),)
        for column, name in enumerate(STATS_COLUMNS):
            value = getattr(defaults, name)
            if name == "strategy":
                value = STRATEGY_CODES[value]
            np.testing.assert_equal(_MISSING_STATS[column], float(value), err_msg=name)

    def test_negative_ids_and_counts_are_refused(self):
        """A negative local id would ``take`` the shard's last global id,
        and a negative count shifts every later query's slice; ids ship
        unsigned, so a signed id array is refused outright."""
        stats = np.zeros((2, 8))
        good = (np.array([1, 1]), np.array([0, 4], np.uint32), np.zeros(2), stats)
        assert _checked_block({0: good}, 0, 2) is good
        negative_id = (np.array([1, 1]), np.array([0, -1]), np.zeros(2), stats)
        negative_count = (np.array([3, -1]), np.array([0, 4], np.uint32), np.zeros(2), stats)
        for block in (negative_id, negative_count):
            with pytest.raises(WorkerError, match="malformed"):
                _checked_block({0: block}, 0, 2)


class TestBoundedPipeReads:
    def test_a_stalled_frame_times_out_within_the_deadline(self):
        """The deadline bounds the whole reply, not just its first byte."""
        ours, theirs = socket.socketpair()
        frame = encode_frame(("ready", {0: 1}, WIRE_VERSION))
        theirs.sendall(frame[: PREFIX + 3])  # a prefix, then a stall
        transport = PipeTransport(None, ours)
        fake_pool = SimpleNamespace(
            _eps=[[SimpleNamespace(transport=transport)]]
        )
        try:
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                transport.recv_within(0.3, "reply")
            assert time.monotonic() - started < 1.0
            with pytest.raises(_TransportFailure) as failure:
                WorkerPool._recv_locked(fake_pool, 0, 0, 0.2)
            assert failure.value.cause == "timeout"
        finally:
            transport.kill()
            theirs.close()


class TestVersionHandshake:
    def test_a_peer_on_another_wire_version_is_refused(self, artifact):
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10.0)

        def fake_server():
            sock, _ = listener.accept()
            with sock:
                ack = ("ready", {0: N // 2, 1: N // 2}, WIRE_VERSION + 1)
                sock.sendall(encode_frame(ack, checksum=True))
                sock.settimeout(10.0)
                sock.recv(1)  # hold the line until the pool hangs up

        server = threading.Thread(target=fake_server, daemon=True)
        server.start()
        try:
            port = listener.getsockname()[1]
            with pytest.raises(WorkerError) as refused:
                WorkerPool(artifact, endpoints=[f"127.0.0.1:{port}"])
            message = str(refused.value)
            assert f"wire version {WIRE_VERSION + 1}" in message
            assert f"wire version {WIRE_VERSION}" in message
        finally:
            server.join(timeout=10.0)
            listener.close()


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

    def test_fault_plan_cannot_ride_inline_endpoints(self, thread_index):
        """A crash fault would end the serving process itself."""
        plan = FaultPlan.scripted(FaultSpec(FaultKind.CRASH, worker=0, op_index=0))
        with pytest.raises(ConfigurationError, match="in-process"):
            WorkerPool(thread_index.engine.path, fault_plan=plan)

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
            counters = pool.counters()
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
            assert pool.counters()["replica_failovers"] >= 1
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
from conftest import max_examples  # noqa: E402
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
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


def _valid_frames() -> dict[str, object]:
    """One message of each wire shape the decoder must survive damage to."""
    rng = np.random.default_rng(3)
    counts = np.array([2, 0, 3], dtype=np.int64)
    block = (
        counts,
        rng.integers(0, 200, size=5),
        rng.random(5),
        rng.random((3, 8)),
    )
    return {
        "radius-reply": {0: block, 2: block},
        "insert": ("insert", 1, rng.random((2, 4)), 17),
        "stats": {"queries_served": 12, "latency": {"buckets": [0, 3, 1]},
                  "qps": 41.5, "respawns_by_cause": {}},
        "error": ("error", "KeyError: 9"),
    }


VALID_FRAMES = _valid_frames()


def _decodes_or_frame_error(head, body, **kwargs) -> bool:
    """True when the frame decoded, False on FrameError; anything else fails."""
    try:
        decode_frame(head, body, **kwargs)
    except FrameError:
        return False
    return True


def _headed(header: bytes, buffers: bytes, flags: int = 0) -> bytes:
    """A frame whose prefix agrees with the given header and buffers."""
    return _PREFIX.pack(
        b"HLSW", WIRE_VERSION, flags, 0, len(header), len(buffers)
    ) + header + buffers


#: JSON header documents built from the codec's own tags, nested.
_TAGGED_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True) | st.text(max_size=8)
    | st.lists(
        st.sampled_from(["<f8", "<i8", "|u1", "<f2", "|O"])
        | st.integers(-8, 2**40) | st.lists(st.integers(-1, 2**33), max_size=3),
        max_size=3,
    ),
    lambda inner: st.lists(inner, max_size=4)
    | st.builds(lambda tag, value: {tag: value}, st.sampled_from(["t", "d", "a", "n"]), inner)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=16,
)


class TestDecoderFuzz:
    """Hostile bytes raise :class:`FrameError` and nothing else.

    The decoder is the trust boundary of the TCP carrier: whatever a
    peer sends, it must answer with a value or a ``FrameError`` —
    promptly, and without allocating more than it was handed.
    """

    @settings(max_examples=max_examples(300), deadline=500)
    @given(data=st.binary(max_size=2048))
    @example(data=b"")
    @example(data=_PREFIX.pack(b"HLSW", WIRE_VERSION, 1, 2**32 - 1, 2**32 - 1, 2**64 - 1))
    @example(data=_PREFIX.pack(b"HLSW", WIRE_VERSION, 0, 0, 4, 0) + b"nul")
    def test_arbitrary_bytes(self, data):
        tracemalloc.start()
        try:
            _decodes_or_frame_error(*_split(data))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * len(data) + (1 << 20)

    @settings(max_examples=max_examples(300), deadline=500)
    @given(
        header=_TAGGED_JSON.map(lambda doc: json.dumps(doc).encode()) | st.binary(max_size=64),
        buffers=st.binary(max_size=256),
    )
    @example(header=b"[" * 100_000, buffers=b"")  # nesting past the recursion limit
    @example(header=b'{"d":[1]}', buffers=b"")  # a pair that is no pair
    @example(header=b'{"d":[[[1],2]]}', buffers=b"")  # an unhashable key
    @example(header=b'{"a":["<f8",[0,18446744073709551616],0]}', buffers=b"")
    @example(header=b'{"n":' + b"9" * 5000 + b"}", buffers=b"")  # past int digit limits
    def test_well_framed_hostile_headers(self, header, buffers):
        _decodes_or_frame_error(*_split(_headed(header, buffers)))

    @pytest.mark.parametrize("name", sorted(VALID_FRAMES))
    @pytest.mark.parametrize("checksum", [False, True])
    def test_every_truncation_is_rejected(self, name, checksum):
        frame = encode_frame(VALID_FRAMES[name], checksum=checksum)
        for size in range(len(frame)):
            assert not _decodes_or_frame_error(frame[:PREFIX], frame[PREFIX:size])

    @pytest.mark.parametrize("name", sorted(VALID_FRAMES))
    def test_every_bit_flip_of_a_checksummed_frame_is_rejected(self, name):
        frame = encode_frame(VALID_FRAMES[name], checksum=True)
        for bit in range(8 * len(frame)):
            flipped = bytearray(frame)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert not _decodes_or_frame_error(
                *_split(bytes(flipped)), require_checksum=True
            ), f"bit {bit} of the {name} frame went unnoticed"

    @pytest.mark.parametrize("name", sorted(VALID_FRAMES))
    def test_every_bit_flip_of_a_pipe_frame_decodes_or_raises(self, name):
        # No checksum: a flipped distance bit is a different float, but
        # a flip can never raise anything but FrameError.
        frame = encode_frame(VALID_FRAMES[name])
        for bit in range(8 * len(frame)):
            flipped = bytearray(frame)
            flipped[bit // 8] ^= 1 << (bit % 8)
            _decodes_or_frame_error(*_split(bytes(flipped)))
