"""The shard-serving loop and its two hosts: pipe worker and TCP server.

Local worker processes and networked shard servers run the *same* loop —
same ops, same fault hooks, same telemetry — so this module owns it:

* :class:`ShardState` — the opened shards: mmap'd frozen indexes,
  per-shard batch engines, worker-local :class:`~repro.service.stats.ServiceStats`,
  and the applied-seq sets that make replicated inserts idempotent
  (an in-process pool answers from one directly, through
  :class:`~repro.service.transport.InlineTransport`).
* :func:`open_shard_state` — reopen saved frozen shards
  (``np.load(mmap_mode="r")``; O(mmap) startup).
* :func:`serve_connection` — the request/reply loop over a
  :class:`~repro.service.transport.ServerConnection` (frames over a
  socketpair end or a TCP socket), fault injection included.
* :func:`serve_pipe_worker` — the entry point of a process
  :class:`~repro.service.workers.WorkerPool` spawns behind a socketpair.
* :class:`ShardServer` — a TCP listener serving :func:`serve_connection`
  sessions (``repro.cli shard-serve``); clients connect with
  :class:`~repro.service.transport.TcpTransport`.

A radius request is answered with one flat block per shard: the
columns of the shard engine's :class:`~repro.core.results.ResultBlock`
(:meth:`~repro.core.results.ResultBlock.columns`: counts, shard-local
ids, distances and the stats matrix), which the frame carries as four
raw buffers and the pool merges once per batch.  No row object is made
on the way.

Insert idempotence
------------------
With replica sets, one logical insert reaches a shard's state through
up to three paths: the serving request, the parent's broadcast to the
other replicas, and the replay log on reconnect.  The parent stamps
every insert with a per-shard monotonically increasing ``seq``;
:class:`ShardState` keeps the set of applied seqs per shard and applies
each at most once, so overlapping delivery paths *converge* instead of
double-inserting.  Seq-less inserts (the pre-replica wire shape) are
applied unconditionally.

The TCP server outlives client connections: its fault-plan op indices
are counted across sessions (the plan's ``lifetime`` scope), and its
applied-seq sets persist across reconnects — which is exactly what lets
the replay log re-converge a replica without double-applying the
inserts it already saw.

Multi-host caveat: ``save_shard`` writes to a path on the *server's*
filesystem.  Saves and checkpoints through a :class:`TcpTransport` are
therefore only meaningful when client and server share that filesystem
(single host, NFS); a failed multi-shard insert batch likewise can only
be rolled back on locally spawned replicas — remote endpoints that may
have applied part of it are quarantined instead (see
``WorkerPool.insert``).
"""

from __future__ import annotations

import contextlib
import os
import socket
import threading
import time

import numpy as np

from repro.core.cost_model import CostModel
from repro.distances import get_metric
from repro.distances.matrix import pairwise_distances
from repro.faults import send_reply, swallow_request
from repro.index.frozen import load_frozen_index, save_frozen_index
from repro.service.stats import ServiceStats
from repro.service.transport import WIRE_VERSION, FrameError, ServerConnection

__all__ = [
    "ShardState",
    "ShardServer",
    "open_shard_state",
    "serve_connection",
    "serve_pipe_worker",
]


def _shard_dir(path: str, shard: int) -> str:
    """Absolute shard directory, named by the one true layout source.

    The artifact layout (meta file, gids archive, shard dir scheme) is
    owned by :mod:`repro.api.persist`; imported lazily to keep this
    module free of api-layer imports at load time.
    """
    from repro.api.persist import _frozen_shard_dir

    return os.path.join(path, _frozen_shard_dir(shard))


def _payload_nbytes(obj) -> int:
    """Array bytes inside a wire message/reply (the dominant wire cost).

    Counts every ndarray reachable through the tuples/lists/dicts the
    worker protocol ships; the frame's prefix and JSON header are
    ignored — the counter answers "how much data crossed the wire", not
    "how many frame bytes".
    """
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple | list):
        return sum(_payload_nbytes(item) for item in obj)
    if isinstance(obj, dict):
        return sum(_payload_nbytes(value) for value in obj.values())
    return 0


class ShardState:
    """Opened shards plus the session-spanning serving state.

    ``lock`` serialises op execution: a pipe worker is single-threaded,
    but the TCP server may briefly overlap an old and a new connection
    around a reconnect, and the engines are not thread-safe.
    """

    def __init__(self, shard_ids: list[int], indexes: dict, engines: dict,
                 metric, stats: ServiceStats) -> None:
        self.shard_ids = list(shard_ids)
        self.indexes = indexes
        self.engines = engines
        self.metric = metric
        self.stats = stats
        self.lock = threading.Lock()
        #: per-shard set of applied insert seqs (idempotence under
        #: broadcast + replay delivery; see module docstring).
        self.applied_seqs: dict[int, set[int]] = {s: set() for s in shard_ids}

    def sizes(self) -> dict[int, int]:
        return {s: self.indexes[s].n for s in self.shard_ids}

    def handle(self, message) -> object:
        """Execute one protocol op; application errors become replies."""
        try:
            op = message[0]
            with self.lock:
                if op == "radius":
                    # Length-tolerant: the pre-adaptive wire shape has 4
                    # elements; current parents append the adaptive
                    # policy document (or None) as a 5th.
                    _, shards, queries, radius = message[:4]
                    adaptive = None
                    if len(message) > 4 and message[4] is not None:
                        from repro.core.adaptive import AdaptivePolicy

                        adaptive = AdaptivePolicy.from_dict(message[4])
                    started = time.perf_counter()
                    reply = {}
                    # Strategy counts tally the *shard-local* dispatch
                    # decisions, so with multiple owned shards they sum
                    # to queries x shards, not queries_served.
                    strategies: dict[str, int] = {}
                    for s in shards:
                        block = self.engines[s].query_batch(
                            queries, radius, adaptive=adaptive
                        )
                        counts, ids, distances, stats = block.columns()
                        # The ids ship as ``uint32``, the shard's own id
                        # width (a shard holds fewer than ``2**32`` points).
                        reply[s] = (counts, ids.astype(np.uint32), distances, stats)
                        for name, count in block.strategy_counts().items():
                            strategies[name] = strategies.get(name, 0) + count
                    self.stats.record_batch(
                        queries.shape[0], time.perf_counter() - started,
                        strategies=strategies,
                    )
                    return reply
                if op == "topk_block":
                    _, shards, queries = message
                    started = time.perf_counter()
                    reply = {
                        s: pairwise_distances(
                            queries, self.indexes[s].points, self.metric
                        )
                        for s in shards
                    }
                    self.stats.record_batch(
                        queries.shape[0], time.perf_counter() - started
                    )
                    return reply
                if op == "insert":
                    if len(message) == 4:
                        _, s, points, seq = message
                    else:
                        _, s, points = message
                        seq = None
                    applied = self.applied_seqs[s]
                    if seq is None or seq not in applied:
                        self.indexes[s].insert(points)
                        if seq is not None:
                            applied.add(seq)
                    return self.indexes[s].n
                if op == "save_shard":
                    _, s, target = message
                    save_frozen_index(self.indexes[s], target)
                    return True
                if op == "shard_sizes":
                    return self.sizes()
                if op == "stats":
                    self.stats.set_counters({
                        "recalibrations": sum(
                            e.counters()["recalibrations"] for e in self.engines.values()
                        )
                    })
                    return self.stats.as_dict()
                if op == "reset":
                    # Zero this endpoint's worker-local stats; the pool's
                    # reset_stats broadcasts this so a snapshot right
                    # after a reset reads all-zero workers too.
                    for engine in self.engines.values():
                        engine.reset_stats()
                    self.stats.reset()
                    return True
                if op == "ping":
                    return "pong"
                return ("error", f"unknown worker op: {op!r}")
        except Exception as exc:
            return ("error", f"{type(exc).__name__}: {exc}")


def open_shard_state(path: str, shard_ids: list[int], spec_doc: dict,
                     alpha: float, beta: float) -> ShardState:
    """Reopen saved frozen shards via mmap — every endpoint's startup path.

    Lazy api-layer imports keep module load light (and keep ``spawn``
    start-method workers importable without the full facade).
    """
    from repro.api.spec import IndexSpec
    from repro.core.hybrid import HybridSearcher
    from repro.service.batch import BatchQueryEngine

    spec = IndexSpec.from_dict(spec_doc)
    cost_model = CostModel(alpha=alpha, beta=beta)
    metric = get_metric(spec.metric)
    indexes = {}
    engines = {}
    for s in shard_ids:
        index = load_frozen_index(_shard_dir(path, s))
        searcher = HybridSearcher(index, cost_model)
        indexes[s] = index
        engines[s] = BatchQueryEngine(
            searcher, radius=spec.radius, dedup=spec.dedup
        )
    # Worker-local telemetry: latency histogram + counters for the
    # batches *this* endpoint answers, a bytes counter for its wire
    # payloads, and live gauges over its frozen shards.  The parent
    # fetches and exactly merges these via the ``stats`` op.
    stats = ServiceStats()
    frozen = list(indexes.values())
    stats.gauge_hooks["overflow_points"] = lambda: float(
        sum(ix.overflow_count for ix in frozen)
    )
    stats.gauge_hooks["refreeze_generations"] = lambda: float(
        sum(ix.refreeze_count for ix in frozen)
    )
    stats.gauge_hooks["refreeze_seconds_total"] = lambda: float(
        sum(ix.refreeze_seconds_total for ix in frozen)
    )
    return ShardState(shard_ids, indexes, engines, metric, stats)


def serve_connection(conn, state: ShardState, injector) -> int:
    """Answer ops on ``conn`` until stop/EOF; returns ops consumed.

    ``conn`` is a :class:`~repro.service.transport.ServerConnection`
    (bounded ``poll`` + ``recv`` / ``send`` of frames) over either
    carrier, or anything shaped like one.  ``injector`` is the per-session
    :class:`~repro.faults.FaultInjector` (or None): consulted once per
    received request — except ``stop``, which is honoured before the
    schedule so drills cannot block shutdown.  The return value lets a
    session-spanning host (:class:`ShardServer`) carry the op count
    into the next session's injector for ``lifetime``-scoped plans.
    """
    consumed = 0
    while True:
        # The idle wait is bounded so this loop re-checks the wire
        # instead of blocking forever on a parent that vanished without
        # a clean ``stop`` (the poll also satisfies the
        # ``deadline-required`` lint contract for service code).
        try:
            if not conn.poll(1.0):
                continue
            message = conn.recv()
        except (EOFError, OSError, FrameError):
            break
        if isinstance(message, tuple) and message and message[0] == "stop":
            break
        fault = injector.next_fault() if injector is not None else None
        consumed += 1
        if fault is not None and swallow_request(fault):
            continue
        reply = state.handle(message)
        state.stats.bytes_shipped += (
            _payload_nbytes(message) + _payload_nbytes(reply)
        )
        try:
            if fault is not None:
                send_reply(conn, reply, fault)
            else:
                conn.send(reply)
        except OSError:
            break
    with contextlib.suppress(OSError):
        conn.close()
    return consumed


def serve_pipe_worker(sock: socket.socket, worker: int, path: str,
                      shard_ids: list[int], spec_doc: dict, alpha: float,
                      beta: float, fault_plan, replica: int = 0,
                      fault_start: int = 0) -> None:
    """A pool worker process's entry point: open shards via mmap, answer ops.

    ``sock`` is the worker's end of the pool's socketpair, spoken in
    frames without a checksum (the bytes never leave the host).
    The pipe twin of :class:`ShardServer`; module-level so the ``spawn``
    start method can import it (under ``fork`` the open is dominated by
    the ``np.load(mmap_mode="r")`` calls).  ``fault_plan`` is the opt-in
    chaos hook (:mod:`repro.faults`); ``replica`` and ``fault_start``
    thread this endpoint's identity and lifetime op count into the plan so
    replica-pinned and ``scope="lifetime"`` specs resolve across respawns.
    """
    conn = ServerConnection(sock, checksum=False)
    try:
        state = open_shard_state(path, shard_ids, spec_doc, alpha, beta)
        injector = (
            fault_plan.for_worker(worker, replica=replica, start=fault_start)
            if fault_plan
            else None
        )
        conn.send(("ready", state.sizes(), WIRE_VERSION))
    except BaseException as exc:
        with contextlib.suppress(OSError):
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        return
    serve_connection(conn, state, injector)


class ShardServer:
    """A standalone TCP host for one artifact's shards.

    Opens ``shard_ids`` (default: all shards) from the saved artifact at
    ``path`` exactly like a pool worker, listens on ``host:port``
    (``port=0`` picks a free one, published as :attr:`port`), and runs
    one :func:`serve_connection` session per accepted client.  Each
    session starts with a ``("ready", {shard: n}, WIRE_VERSION)`` ack —
    the same handshake a spawned worker sends — so
    :class:`~repro.service.workers.WorkerPool` treats connect and spawn
    uniformly.

    ``fault_plan`` / ``worker`` / ``replica`` wire the server into
    deterministic drills: the plan is filtered to this (worker, replica)
    endpoint and its op indices are counted across client sessions, so
    ``scope="lifetime"`` faults behave identically whether the endpoint
    is a process the pool respawns or a server clients reconnect to.
    """

    def __init__(
        self,
        path: str,
        shard_ids: list[int] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        fault_plan=None,
        worker: int = 0,
        replica: int = 0,
    ) -> None:
        from repro.api.persist import _META_FILE, _read_meta

        meta = _read_meta(os.path.join(path, _META_FILE))
        num_shards = int(meta["num_shards"])
        if shard_ids is None:
            shard_ids = list(range(num_shards))
        for s in shard_ids:
            if not 0 <= s < num_shards:
                from repro.exceptions import ConfigurationError

                raise ConfigurationError(
                    f"shard {s} out of range for a {num_shards}-shard artifact"
                )
        self.path = path
        self.shard_ids = list(shard_ids)
        self._fault_plan = fault_plan
        self._worker = worker
        self._replica = replica
        self._state = open_shard_state(
            path,
            self.shard_ids,
            meta["spec"],
            float(meta["cost_model"]["alpha"]),
            float(meta["cost_model"]["beta"]),
        )
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.host, self.port = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._ops_lock = threading.Lock()
        self._ops_total = 0
        self._accept_thread: threading.Thread | None = None

    @property
    def state(self) -> ShardState:
        return self._state

    def start(self) -> ShardServer:
        """Serve in a background thread (in-process tests); returns self."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, name="repro-shard-server", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept clients until :meth:`close`; one thread per session."""
        # The accept wait is bounded so shutdown is prompt and the
        # listener never parks forever (deadline-required contract).
        self._listener.settimeout(0.5)
        while not self._stop.is_set():
            try:
                sock, _addr = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            session = threading.Thread(
                target=self._serve_one, args=(sock,), daemon=True
            )
            session.start()

    def _serve_one(self, sock: socket.socket) -> None:
        conn = ServerConnection(sock)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.send(("ready", self._state.sizes(), WIRE_VERSION))
        except OSError:
            conn.close()
            return
        injector = None
        if self._fault_plan:
            with self._ops_lock:
                start = self._ops_total
            injector = self._fault_plan.for_worker(
                self._worker, replica=self._replica, start=start
            )
        consumed = serve_connection(conn, self._state, injector)
        with self._ops_lock:
            self._ops_total += consumed

    def close(self) -> None:
        """Stop accepting and release the listener (idempotent)."""
        self._stop.set()
        with contextlib.suppress(OSError):
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> ShardServer:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardServer(shards={self.shard_ids}, "
            f"addr={self.host}:{self.port})"
        )
