"""The shard coordinator: every sharded index is served by :class:`WorkerPool`.

In the paper a sharded index runs Algorithm 2 on each shard and merges
the answers by exact disjoint union.  :class:`WorkerPool` is the one
place that does it: it serves a saved artifact (the layout written by
:meth:`repro.api.Index.save`: each shard a directory of plain ``.npy``
files reopened with ``np.load(mmap_mode="r")``), sends every request
to the endpoints that own the shards, and merges their answers
(:meth:`WorkerPool._merge_blocks` /
:func:`~repro.core.linear_scan.exact_topk_results`).  Answers therefore
have one code path whatever the host; ``spec.execution`` chooses only
where the endpoints run:

* ``"threads"`` — in this process: each slot's shards are opened by
  :func:`~repro.service.shard_server.open_shard_state` and answered on
  the caller's thread behind an
  :class:`~repro.service.transport.InlineTransport` (no frames, no
  codec, no threads);
* ``"processes"`` — spawned worker processes behind socketpair pipes;
* ``endpoints=[...]`` — standalone shard servers over TCP.

:class:`repro.api.Index` calls the pool directly: it presents the
same surface as the unsharded :class:`~repro.service.batch.BatchQueryEngine`
(queries, inserts, saves, its own counters, gauges and shutdown), so the
facade never asks which engine serves it.

Transports and replica sets
---------------------------
Each worker *slot* ``w`` owns shards ``w, w + W, w + 2W, ...`` and is
backed by one or more replica endpoints:

* an ``execution="threads"`` artifact opens one inline endpoint per
  slot (no replicas: the shards cannot fail apart from this process);
* the default carrier spawns ``replicas`` local worker processes per
  slot behind socketpair pipes (:class:`~repro.service.transport.PipeTransport`),
  each mmap'ing the same frozen artifact;
* with ``endpoints=[...]`` the slots connect to standalone shard
  servers (:class:`~repro.service.shard_server.ShardServer`,
  ``repro.cli shard-serve``) over checksummed TCP frames
  (:class:`~repro.service.transport.TcpTransport`) — same wire tuples,
  same deadlines, shards on other hosts.

Inserts are broadcast to every replica of the owning slot; the
per-shard ``seq`` stamp makes delivery idempotent (see
:mod:`repro.service.shard_server`) and the replay log re-converges a
replica that was down when the insert happened.

The exchange loop
-----------------
Every request — radius, top-k, ``stats``, ``reset``, insert, save —
travels :meth:`WorkerPool._exchange`, scatter and
gather both on the calling thread: no thread is started or woken on the
way.  Per attempt round, in ascending worker order, it picks one replica
per still-pending worker (reads rotate round-robin across a slot's
healthy replicas), takes that endpoint's lock, re-validates its breaker,
revives it if it is down and sends; then it reads the replies *as they
become ready* — one ``multiprocessing.connection.wait`` over the
in-flight endpoints, bounded by the nearest of their own deadlines.

Locks: an endpoint's lock covers everything done to its transport and is
released the moment its reply is read — breaker success and the
insert-log commit recorded under it (endpoint lock -> route lock, never
the reverse) — or its deadline passes and it is marked down, so a hung
endpoint delays its own slot only.  The loop never waits for a lock, and
never revives an endpoint, while it is owed a reply: that worker is
deferred until the replies are in.  No caller therefore holds one
endpoint lock while waiting for another (the ascending order is for
determinism, not deadlock freedom), and no lock is held between rounds.

A classified failure (``crash`` / ``timeout`` / ``corrupt`` /
``disconnect``) marks that endpoint down and carries its worker into the
next round, within the ``1 + max_retries`` budget every worker has.  With
one replica the next round first sleeps the jittered exponential
backoff; with several it *fails over* at once to a surviving replica —
a replica loss costs one round trip, not a backoff window — while the
broken one heals behind its own reconnect backoff.  A worker out of
budget, or out of admissible replicas, records a breaker failure on its
last-tried endpoint and ends in
:class:`~repro.exceptions.ShardUnavailableError`; a worker-side
``("error", ...)`` reply is an *application* error — the transport is
healthy, so it counts as breaker success, is never retried and ends in
:class:`WorkerError`.

Operational contract:

* **startup is O(mmap)** — workers reopen saved arrays, never rebuild
  or rehash; the pool is ready once every endpoint acks its shards;
* **every blocking transport read carries a deadline** (see
  :class:`~repro.faults.FaultTolerancePolicy`): an endpoint that
  crashes, hangs, disconnects, drops a reply or ships a corrupt payload
  is detected within ``recv_deadline``, torn down and revived from the
  artifact (respawn for pipes, reconnect for TCP, a reopened state
  inline — the parent's per-slot insert log replayed each way);
* **per-endpoint circuit breakers** open after ``breaker_threshold``
  consecutive exhausted-retry failures, fail that endpoint fast during
  ``breaker_cooldown``, then admit one half-open probe;
* **partial results are opt-in** (``allow_partial=True``, see
  :meth:`WorkerPool.query_batch`); without it a *successful* answer is
  always bit-identical to the fault-free run;
* **fault drills are deterministic and opt-in** (:mod:`repro.faults`);
  with no plan installed the request path is the production one;
* **shutdown** is explicit (:meth:`WorkerPool.close`) and idempotent;
  spawned workers are daemonic so an abandoned pool cannot outlive the
  parent (remote shard servers, by design, do outlive their clients).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import os
import shutil
import socket
import threading
import time
import weakref
from dataclasses import replace as _dc_replace
from itertools import accumulate

import numpy as np

from repro.core.cost_model import CostModel
from repro.core.linear_scan import exact_topk_results
from repro.core.results import (
    STATS_COLUMNS,
    STRATEGY_CODES,
    QueryResult,
    QueryStats,
    ResultBlock,
    Strategy,
    stats_row,
)
from repro.distances import get_metric
from repro.exceptions import (
    ConfigurationError,
    CorruptArtifactError,
    DeadlineExceededError,
    ShardUnavailableError,
)
from repro.faults import FaultTolerancePolicy
from repro.observability import StageTrace, stage_timer
from repro.service.shard_server import (
    _payload_nbytes,
    _shard_dir,
    open_shard_state,
    serve_pipe_worker,
)
from repro.service.transport import (
    WIRE_VERSION,
    FrameError,
    InlineTransport,
    PipeTransport,
    ShardTransport,
    TcpTransport,
)
from repro.utils.fsio import write_json_atomic
from repro.utils.validation import check_matrix, check_positive_int

__all__ = ["WorkerPool", "WorkerError", "default_fanout_width"]


def default_fanout_width(num_shards: int) -> int:
    """The default pool width: ``min(K, cpu count)`` worker slots.

    More slots than cores only adds scheduling overhead — each shard
    task is CPU-bound — and more slots than shards would sit idle.
    """
    return max(1, min(int(num_shards), os.cpu_count() or 1))


class WorkerError(RuntimeError):
    """An operation failed inside a worker process (the worker survives)."""


class _TransportFailure(Exception):
    """One transport attempt failed; ``cause`` labels why.

    Internal to the retry loop — callers of :meth:`WorkerPool._request`
    only ever see :class:`WorkerError` (application errors) or
    :class:`~repro.exceptions.ShardUnavailableError` (exhausted
    recovery).  ``cause`` is one of ``"crash"`` (EOF / broken pipe),
    ``"timeout"`` (deadline expired: hang or dropped reply),
    ``"corrupt"`` (reply failed its checksum or frame decode) or
    ``"disconnect"`` (a socket peer closed the connection — the
    endpoint is retried after reconnect, not declared dead).
    """

    def __init__(self, cause: str, detail: str) -> None:
        super().__init__(detail)
        self.cause = cause


class _CircuitBreaker:
    """Per-endpoint failure gate; accessed only under that endpoint's lock.

    Counts consecutive *final* failures (retry budget exhausted, not
    individual attempts).  At ``threshold`` the breaker opens: requests
    fail fast without burning deadlines.  After ``cooldown`` seconds one
    half-open probe is admitted — success closes the breaker, failure
    re-opens it for another cooldown.
    """

    def __init__(self, threshold: int, cooldown: float) -> None:
        self._threshold = threshold
        self._cooldown = cooldown
        self._failures = 0
        self._opened_at: float | None = None

    @property
    def is_open(self) -> bool:
        return self._opened_at is not None

    def allow(self) -> bool:
        """Whether a request may proceed (True while closed or probing)."""
        if self._opened_at is None:
            return True
        return time.monotonic() - self._opened_at >= self._cooldown

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None

    def record_failure(self) -> bool:
        """Count a final failure; True when this call *opened* the breaker."""
        self._failures += 1
        if self._opened_at is not None:
            # A failed half-open probe re-opens for another cooldown.
            self._opened_at = time.monotonic()
            return False
        if self._failures >= self._threshold:
            self._opened_at = time.monotonic()
            return True
        return False


class _Endpoint:
    """One replica's connection slot: transport plus health bookkeeping.

    ``lock`` serialises all use of the transport; the other fields are
    written under it and read optimistically by
    :meth:`WorkerPool._select_replica`, which re-validates under the
    lock before acting.  ``ops`` counts requests *sent* over this
    slot's lifetime — the ``start`` a reconnect hands the fault plan so
    ``scope="lifetime"`` specs survive respawns.
    """

    __slots__ = (
        "lock",
        "breaker",
        "transport",
        "down_cause",
        "retry_at",
        "consecutive",
        "ops",
        "poisoned",
    )

    def __init__(self, threshold: int, cooldown: float) -> None:
        self.lock = threading.Lock()
        self.breaker = _CircuitBreaker(threshold, cooldown)
        self.transport: ShardTransport | None = None
        self.down_cause: str | None = None
        self.retry_at = 0.0
        self.consecutive = 0
        self.ops = 0
        self.poisoned = False


#: the stats row a missing shard contributes to a degraded merge: the
#: :class:`~repro.core.results.QueryStats` defaults, in
#: :data:`~repro.core.results.STATS_COLUMNS` order.
_MISSING_STATS = np.array(stats_row(QueryStats()), dtype=np.float64)
_EXACT_CANDIDATES, _STRATEGY, _PROBES, _EXACT = (
    STATS_COLUMNS.index(name)
    for name in ("exact_candidates", "strategy", "probes_used", "exact")
)
#: each integer stats column's range ``[low, high)``: counts are exact
#: in a float64 below ``2**53``, and -1 marks an untracked one.
_INTEGER_RANGES = {
    "num_collisions": (0, 2**53), "exact_candidates": (-1, 2**53),
    "strategy": (0, len(Strategy)), "probes_used": (-1, 2**53), "exact": (0, 2),
}
_INTEGER_COLUMNS = [STATS_COLUMNS.index(name) for name in _INTEGER_RANGES]
_INTEGER_LOW, _INTEGER_HIGH = np.array(list(_INTEGER_RANGES.values()), np.float64).T


def _checked_block(reply, shard: int, q: int) -> tuple:
    """Shard ``shard``'s block of a radius ``reply``, checked against ``q`` rows.

    The arrays must agree with each other before any is indexed: a
    remote endpoint's reply is outside input.  Counts must be
    non-negative integers and ids unsigned (the wire ships ``uint32``):
    ``take`` would wrap a negative local id to the shard's last point.
    Distances and stats must be float64, and every integer stats column
    must hold integral values in its range: the merged rows are made
    from these cells only when a row is read, so this is the last place
    a bad cell fails with a typed error.
    """
    try:
        block = counts, ids, distances, stats = reply[shard]
        ok = (
            counts.shape == (q,)
            and counts.dtype.kind in "iu"
            and not (counts < 0).any()
            and stats.shape == (q, len(STATS_COLUMNS))
            and stats.dtype == np.float64
            and distances.dtype == np.float64
            and ids.shape == distances.shape == (int(counts.sum()),)
            and ids.dtype.kind == "u"
        )
        if ok:
            cells = stats[:, _INTEGER_COLUMNS]
            ok = bool(((cells >= _INTEGER_LOW) & (cells < _INTEGER_HIGH)).all())
            ok = ok and bool((cells == np.floor(cells)).all())
    except (LookupError, TypeError, ValueError, AttributeError):
        ok = False
    if not ok:
        raise WorkerError(f"shard {shard} sent a malformed radius block")
    return block


class WorkerPool:
    """``K`` frozen shards served by replicated worker endpoints.

    Parameters
    ----------
    path:
        A saved index directory (:meth:`repro.api.Index.save`) — the
        frozen shard arrays the workers mmap.
        With remote ``endpoints`` the parent still reads the metadata
        and id maps from it (shared filesystem or a copied artifact).
    num_workers:
        Pool width; defaults to ``min(num_shards, os.cpu_count())``.
        Worker slot ``w`` owns shards ``w, w + W, w + 2W, ...``.  With
        ``endpoints`` the width is the number of endpoint groups.
    owns_path:
        When True the artifact directory is deleted on :meth:`close`, or
        at interpreter exit if the pool is never closed (used for the
        transient artifact ``Index.build`` writes for a sharded or
        process-served spec).
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``
        (instant worker start, inherited imports) and falls back to
        ``spawn`` where fork is unavailable.
    policy:
        The :class:`~repro.faults.FaultTolerancePolicy` governing recv
        deadlines, the retry/backoff schedule, heartbeat cadence and
        circuit-breaker thresholds; defaults are production-lenient.
    fault_plan:
        An optional deterministic :class:`~repro.faults.FaultPlan`
        shipped to every spawned worker — chaos drills only; ``None``
        (the default) keeps workers on the production path.  Rejected
        with remote ``endpoints`` (install the plan on the servers) and
        with inline endpoints (a crash fault would end this process).
    replicas:
        Endpoints per worker slot (default: the spec's ``replicas``).
        Each replica of slot ``w`` serves the same shards; reads rotate
        across them and fail over, inserts reach all of them.
    endpoints:
        Remote shard servers instead of spawned processes: one group
        per worker slot, each group a ``"host:port,host:port"`` string
        (or list) naming that slot's replicas.  Every server in group
        ``w`` must serve (at least) slot ``w``'s shards.

    The host of the endpoints is the artifact's ``spec.execution``
    (module docstring) unless ``endpoints`` names shard servers.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.api import Index, IndexSpec, QuerySpec
    >>> rng = np.random.default_rng(0)
    >>> points = rng.normal(size=(600, 12))
    >>> index = Index.build(points, IndexSpec(
    ...     metric="l2", radius=1.0, num_shards=3, num_tables=6, seed=1))
    >>> pool = index.engine
    >>> int(pool.query_batch(points[17:18])[0].ids[0]), pool.shard_sizes()
    (17, [200, 200, 200])
    >>> index.close()
    """

    def __init__(
        self,
        path: str,
        num_workers: int | None = None,
        owns_path: bool = False,
        start_method: str | None = None,
        policy: FaultTolerancePolicy | None = None,
        fault_plan=None,
        replicas: int | None = None,
        endpoints=None,
    ) -> None:
        from repro.api.persist import _META_FILE, _read_meta, read_shard_gids
        from repro.api.spec import IndexSpec

        meta_path = os.path.join(path, _META_FILE)
        if not os.path.exists(meta_path):
            raise ConfigurationError(
                f"no saved index at {path!r} (missing {_META_FILE})"
            )
        meta = _read_meta(meta_path)
        self.path = path
        #: an owned artifact is removed on close, or at exit if the pool
        #: is never closed (a finalizer holds no reference to the pool).
        self._remove_artifact = (
            weakref.finalize(self, shutil.rmtree, path, ignore_errors=True)
            if owns_path
            else None
        )
        self.policy = policy if policy is not None else FaultTolerancePolicy()
        self._fault_plan = fault_plan
        self.spec = IndexSpec.from_dict(meta["spec"])
        self.metric_name = self.spec.metric
        self.metric = get_metric(self.metric_name)
        self.radius = float(self.spec.radius)
        self.cost_model = CostModel(
            alpha=float(meta["cost_model"]["alpha"]),
            beta=float(meta["cost_model"]["beta"]),
        )
        self.num_shards = int(meta["num_shards"])
        self._dim = int(meta["dim"])
        if self.num_shards > 1:
            self._shard_gids = read_shard_gids(path, self.num_shards)
        else:
            self._shard_gids = [np.arange(int(meta["n"]), dtype=np.int64)]
        self._inline = endpoints is None and self.spec.execution == "threads"
        if self._inline and fault_plan is not None:
            raise ConfigurationError(
                "fault_plan cannot be installed on in-process shards "
                '(a crash fault would end this process); serve execution="processes"'
            )
        if endpoints is not None:
            if fault_plan is not None:
                raise ConfigurationError(
                    "fault_plan cannot be shipped to remote endpoints; "
                    "install the plan on the shard servers instead"
                )
            groups = [self._parse_endpoint_group(g) for g in endpoints]
            if not groups:
                raise ConfigurationError(
                    "endpoints must name at least one HOST:PORT group"
                )
            if len(groups) > self.num_shards:
                raise ConfigurationError(
                    f"{len(groups)} endpoint groups exceed the artifact's "
                    f"{self.num_shards} shards"
                )
            if num_workers is not None and num_workers != len(groups):
                raise ConfigurationError(
                    f"num_workers={num_workers} conflicts with "
                    f"{len(groups)} endpoint groups"
                )
            self._endpoints_cfg: list[list[tuple[str, int]]] | None = groups
            self.num_workers = len(groups)
            widths = [len(group) for group in groups]
            self.replicas = max(widths)
        else:
            self._endpoints_cfg = None
            if replicas is None:
                replicas = getattr(self.spec, "replicas", 1)
            self.replicas = check_positive_int(replicas, "replicas")
            if num_workers is None:
                num_workers = default_fanout_width(self.num_shards)
            self.num_workers = min(
                check_positive_int(num_workers, "num_workers"), self.num_shards
            )
            widths = [self.replicas] * self.num_workers
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._ctx = multiprocessing.get_context(start_method)
        self._closed = False
        #: replica endpoints per worker slot; each _Endpoint carries its
        #: own lock, breaker and transport (see _Endpoint).
        self._eps: list[list[_Endpoint]] = [
            [
                _Endpoint(self.policy.breaker_threshold, self.policy.breaker_cooldown)
                for _ in range(width)
            ]
            for width in widths
        ]
        #: parent-side transport + failure counters (lifetime of the
        #: pool), all guarded by ``_counter_lock``: payload bytes,
        #: respawns (total and by cause), deadline hits, request
        #: retries, replica failovers, breaker-open transitions — plus
        #: the per-slot read rotation cursors.
        self._counter_lock = threading.Lock()
        self.bytes_shipped = 0
        self.respawns = 0
        self.worker_timeouts = 0
        self.worker_retries = 0
        self.breaker_opens = 0
        self.replica_failovers = 0
        self.respawns_by_cause: dict[str, int] = {}
        self._rr = [0] * self.num_workers
        #: deterministic jitter stream for retry backoff (seeded so two
        #: runs of the same fault drill sleep identically).
        self._jitter_rng = np.random.default_rng(self.policy.jitter_seed)
        #: per-slot replay log of (shard, points, seq) inserts, in
        #: order — the only state a revived endpoint cannot recover
        #: from disk.  Guarded by ``_route_lock`` together with the
        #: routing state (``_shard_gids``, ``_insert_seq``; a new point
        #: goes to shard ``id % K``): a query thread can trigger a respawn —
        #: which replays this log — while an insert commit is appending
        #: to it.  Lock order is endpoint lock -> route lock, never the
        #: reverse.
        self._route_lock = threading.Lock()
        self._insert_log: list[list] = [[] for _ in range(self.num_workers)]
        self._insert_seq = [0] * self.num_shards
        self._hb_stop = threading.Event()
        self._hb_thread: threading.Thread | None = None
        try:
            for w, row in enumerate(self._eps):
                for r, ep in enumerate(row):
                    ep.transport = self._connect(w, r)
        except BaseException:
            self.close()
            raise
        if self.policy.heartbeat_interval > 0:
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop,
                name="repro-heartbeat",
                daemon=True,
            )
            self._hb_thread.start()

    # ------------------------------------------------------------------
    # Endpoint management
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_endpoint_group(group) -> list[tuple[str, int]]:
        """One slot's replica addresses from ``"host:port,..."`` or a list."""
        if isinstance(group, str):
            entries: list = [e.strip() for e in group.split(",") if e.strip()]
        else:
            entries = list(group)
        parsed: list[tuple[str, int]] = []
        for entry in entries:
            if isinstance(entry, str):
                host, _, port = entry.rpartition(":")
                if not host or not port.isdigit():
                    raise ConfigurationError(
                        f"endpoint {entry!r} is not HOST:PORT"
                    )
                parsed.append((host, int(port)))
            else:
                host, port = entry
                parsed.append((str(host), int(port)))
        if not parsed:
            raise ConfigurationError(
                "an endpoint group must name at least one HOST:PORT"
            )
        return parsed

    def worker_shards(self, worker: int) -> list[int]:
        """Shard ids owned by slot ``worker`` (round-robin assignment)."""
        return list(range(worker, self.num_shards, self.num_workers))

    def _owner(self, shard: int) -> int:
        return shard % self.num_workers

    def _connect(self, worker: int, replica: int) -> ShardTransport:
        """A ready transport to one endpoint: open (inline), spawn (pipes)
        or connect (TCP)."""
        if self._endpoints_cfg is not None:
            return self._connect_tcp(worker, replica)
        if self._inline:
            return self._open_inline(worker)
        return self._spawn_pipe(worker, replica)

    def _open_inline(self, worker: int) -> InlineTransport:
        """Open one slot's shards in this process, as a worker opens them."""
        state = open_shard_state(
            self.path,
            self.worker_shards(worker),
            self.spec.to_dict(),
            self.cost_model.alpha,
            self.cost_model.beta,
        )
        transport = InlineTransport(state)
        self._await_ready(transport, worker)
        return transport

    def _spawn_pipe(self, worker: int, replica: int) -> PipeTransport:
        """Start one local worker process and await its ready ack."""
        ep = self._eps[worker][replica]
        parent_sock, child_sock = socket.socketpair()
        process = self._ctx.Process(
            target=serve_pipe_worker,
            args=(
                child_sock,
                worker,
                self.path,
                self.worker_shards(worker),
                self.spec.to_dict(),
                self.cost_model.alpha,
                self.cost_model.beta,
                self._fault_plan,
                replica,
                ep.ops,
            ),
            name=f"repro-worker-{worker}-{replica}",
            daemon=True,
        )
        try:
            process.start()
        finally:
            child_sock.close()
        transport = PipeTransport(
            process,
            parent_sock,
            endpoint=f"pid {process.pid}",
            send_deadline=max(self.policy.recv_deadline, self.policy.startup_deadline),
        )
        self._await_ready(transport, worker)
        return transport

    def _connect_tcp(self, worker: int, replica: int) -> TcpTransport:
        """Connect to one remote shard server that serves this slot's shards."""
        host, port = self._endpoints_cfg[worker][replica]
        try:
            transport = TcpTransport(
                host,
                port,
                connect_timeout=self.policy.startup_deadline,
                send_deadline=max(
                    self.policy.recv_deadline, self.policy.startup_deadline
                ),
            )
        except OSError as exc:
            raise WorkerError(
                f"shard server {host}:{port} refused the connection: {exc}"
            ) from exc
        sizes = self._await_ready(transport, worker)
        owned = set(self.worker_shards(worker))
        if not owned <= set(sizes):
            transport.kill()
            raise WorkerError(
                f"shard server {host}:{port} serves shards {sorted(sizes)} "
                f"but slot {worker} needs {sorted(owned)}"
            )
        return transport

    def _await_ready(self, transport: ShardTransport, worker: int) -> dict:
        """Wait for the ``("ready", sizes, version)`` handshake both carriers send.

        A peer that speaks another wire version is refused here, naming
        both versions, before any request reaches it.
        """
        try:
            ack = transport.recv_within(
                self.policy.startup_deadline, f"worker {worker} startup ack"
            )
        except DeadlineExceededError as exc:
            transport.kill()
            raise WorkerError(
                f"worker {worker} failed to start within "
                f"{self.policy.startup_deadline}s"
            ) from exc
        except FrameError as exc:
            transport.kill()
            raise WorkerError(f"worker {worker} sent an unreadable ack: {exc}") from exc
        except Exception as exc:
            transport.kill()
            raise WorkerError(f"worker {worker} died during startup") from exc
        if not (isinstance(ack, tuple) and ack and ack[0] == "ready"):
            transport.kill()
            detail = ack[1] if isinstance(ack, tuple) and len(ack) > 1 else ack
            if isinstance(detail, str) and "CorruptArtifactError" in detail:
                # The worker's open failed on a torn artifact: surface
                # the typed error the in-process open path raises.
                raise CorruptArtifactError(
                    f"worker {worker} failed to open shards: {detail}"
                )
            raise WorkerError(f"worker {worker} failed to open shards: {ack!r}")
        version = ack[2] if len(ack) > 2 else None
        if version != WIRE_VERSION:
            transport.kill()
            raise WorkerError(
                f"worker {worker} ({transport.endpoint}) speaks wire version "
                f"{version}; this pool speaks wire version {WIRE_VERSION}"
            )
        return dict(ack[1])

    def _respawn_locked(
        self, worker: int, replica: int, cause: str = "crash"
    ) -> None:
        """Revive one endpoint and replay its slot's insert log (lock held).

        ``cause`` labels the event in :attr:`respawns_by_cause`
        (``crash`` / ``timeout`` / ``corrupt`` / ``disconnect`` /
        ``heartbeat`` / ``rollback`` / ``reconnect``).  Killing the old
        transport first is what recovers a *hung* endpoint: the stale
        channel is closed, so a late reply can never desynchronise a
        future request.  Pipes respawn a fresh process and an inline
        endpoint reopens its state from the artifact; TCP endpoints
        reconnect to a server whose state survived — the seq-stamped
        replay makes both converge, and a TCP endpoint is additionally
        checked against the parent's committed shard sizes (a restarted
        server that lost inserts must not serve short answers).
        """
        ep = self._eps[worker][replica]
        if ep.poisoned:
            raise WorkerError(
                f"worker {worker}[{replica}] is quarantined after a failed "
                "insert rollback; restart the endpoint to clear it"
            )
        if ep.transport is not None:
            with contextlib.suppress(Exception):
                ep.transport.kill()
            ep.transport = None
        ep.transport = transport = self._connect(worker, replica)
        ep.down_cause = None
        ep.retry_at = 0.0
        ep.consecutive = 0
        with self._counter_lock:
            self.respawns += 1
            self.respawns_by_cause[cause] = (
                self.respawns_by_cause.get(cause, 0) + 1
            )
        # Snapshot under the route lock: this slot's log cannot grow
        # mid-replay (appends hold the endpoint lock, which this
        # method's caller already holds), but ``save_shards`` may swap
        # the whole log list out from another thread.
        with self._route_lock:
            pending = list(self._insert_log[worker])
        try:
            for shard, points, seq in pending:
                reply = self._roundtrip_locked(
                    worker,
                    replica,
                    ("insert", shard, points, seq),
                    self.policy.startup_deadline,
                )
                if isinstance(reply, tuple) and reply and reply[0] == "error":
                    raise WorkerError(
                        f"worker {worker} failed to replay inserts: {reply[1]}"
                    )
            if self._endpoints_cfg is not None:
                self._verify_tcp_state_locked(worker, replica)
        except BaseException:
            with contextlib.suppress(Exception):
                transport.kill()
            ep.transport = None
            ep.down_cause = cause
            raise

    def _verify_tcp_state_locked(self, worker: int, replica: int) -> None:
        """A reconnected server must cover everything the parent committed.

        ``>=`` rather than ``==``: an in-flight insert may have reached
        the server before the parent committed its id maps, and the
        seq-dedup makes that benign — but a *smaller* size means the
        server restarted from the stale artifact and would serve short
        answers for ids the parent already handed out.
        """
        reply = self._roundtrip_locked(
            worker, replica, ("shard_sizes",), self.policy.recv_deadline
        )
        if isinstance(reply, tuple) and reply and reply[0] == "error":
            raise WorkerError(
                f"worker {worker} shard_sizes failed: {reply[1]}"
            )
        with self._route_lock:
            committed = {
                s: int(self._shard_gids[s].size)
                for s in self.worker_shards(worker)
            }
        for s, size in committed.items():
            if int(reply.get(s, -1)) < size:
                raise WorkerError(
                    f"shard server for worker {worker} is serving a stale "
                    f"artifact: shard {s} has {reply.get(s)} points but the "
                    f"parent committed {size}"
                )

    def _send_locked(self, worker: int, replica: int, message) -> None:
        """Send one request (lock held) — the only sender; failures classified.

        Raises :class:`_TransportFailure` with the carrier's cause
        vocabulary (see :mod:`repro.service.transport`).  The endpoint's
        lifetime op count advances on every successful send — the
        best-effort mirror of the op indices the peer's fault injector
        counts, used as ``start`` when a revived endpoint re-installs
        the plan.
        """
        ep = self._eps[worker][replica]
        transport = ep.transport
        try:
            transport.send(message)
        except Exception as exc:
            raise _TransportFailure(
                transport.classify_send_error(exc),
                f"send to worker {worker}[{replica}] ({transport.endpoint}) failed: {exc}",
            ) from exc
        ep.ops += 1

    def _recv_locked(self, worker: int, replica: int, deadline: float):
        """Read one reply within ``deadline`` s (lock held); expiry is ``timeout``."""
        transport = self._eps[worker][replica].transport
        who = f"worker {worker}[{replica}] ({transport.endpoint})"
        try:
            return transport.recv_within(deadline, f"{who} reply")
        except DeadlineExceededError as exc:
            raise _TransportFailure("timeout", str(exc)) from exc
        except Exception as exc:
            raise _TransportFailure(
                transport.classify_recv_error(exc), f"{who} reply stream broke: {exc!r}"
            ) from exc

    def _roundtrip_locked(self, worker: int, replica: int, message, deadline: float):
        """One send/recv on one endpoint (replay, broadcast, heartbeat)."""
        self._send_locked(worker, replica, message)
        return self._recv_locked(worker, replica, deadline)

    def _mark_down_locked(self, worker: int, replica: int, cause: str) -> None:
        """Tear an endpoint down and schedule its reconnect (lock held).

        With replicas the reconnect backs off exponentially in
        ``consecutive`` (jittered from the shared deterministic stream)
        so a dead server is not hammered while its peers serve; a lone
        endpoint stays immediately retriable — the request loop's own
        backoff sleep paces it, preserving the single-replica schedule.
        """
        ep = self._eps[worker][replica]
        if ep.transport is not None:
            with contextlib.suppress(Exception):
                ep.transport.kill()
            ep.transport = None
        ep.down_cause = cause
        ep.consecutive += 1
        if len(self._eps[worker]) > 1:
            with self._counter_lock:
                jitter = float(self._jitter_rng.random())
            ep.retry_at = time.monotonic() + self.policy.backoff_seconds(
                min(ep.consecutive, 16), jitter
            )
        else:
            ep.retry_at = 0.0

    def _select_replica(self, worker: int, rotation: int) -> int | None:
        """The next admissible replica for a read, or None if all are out.

        Rotates from ``rotation`` so concurrent readers spread across
        healthy replicas; skips quarantined endpoints, open breakers,
        and endpoints still inside their reconnect backoff.  Reads are
        optimistic (no locks) — the request loop re-validates under the
        endpoint lock before acting.
        """
        replicas = self._eps[worker]
        now = time.monotonic()
        for k in range(len(replicas)):
            r = (rotation + k) % len(replicas)
            ep = replicas[r]
            if ep.poisoned:
                continue
            if not ep.breaker.allow():
                continue
            if (
                ep.transport is None
                and ep.down_cause is not None
                and now < ep.retry_at
            ):
                continue
            return r
        return None

    def _op_deadline(self, message) -> float:
        """The recv deadline for one op; slow ops borrow the startup budget."""
        if message[0] in ("insert", "save_shard"):
            return max(self.policy.recv_deadline, self.policy.startup_deadline)
        return self.policy.recv_deadline

    def _exchange(self, messages: dict[int, tuple], log_entry=None):
        """Scatter ``messages`` (worker -> request), gather ``(replies, failures)``.

        The one request path (module docstring: the exchange loop);
        ``failures`` holds the :class:`~repro.exceptions.ShardUnavailableError`
        or :class:`WorkerError` each unanswered worker ended in.  This
        half owns the budget — replica choice per round, failure
        counters, backoff sleep, breaker verdict — and
        :meth:`_exchange_round` the wire and the locks.
        """
        if self._closed:
            raise ConfigurationError("the worker pool has been closed")
        attempts = 1 + self.policy.max_retries
        with self._counter_lock:
            rotation = {w: self._rr[w] for w in messages}
            for w in messages:
                self._rr[w] += 1
        replies: dict[int, object] = {}
        failures: dict[int, Exception] = {}
        #: worker -> (replica, failure) of its latest attempt, while failing.
        last: dict[int, tuple[int, _TransportFailure]] = {}
        pending = sorted(messages)
        for attempt in range(1, attempts + 1):
            targets: dict[int, int] = {}
            for w in pending:
                r = self._select_replica(w, rotation[w] + attempt - 1)
                if r is not None:
                    targets[w] = r
                elif w not in last:
                    # Fail fast: nothing was tried, so no breaker verdict.
                    opened = any(not ep.breaker.allow() for ep in self._eps[w])
                    failures[w] = ShardUnavailableError(
                        f"worker {w} circuit breaker is open "
                        f"(cooldown {self.policy.breaker_cooldown}s)"
                        if opened
                        else f"worker {w} has no admissible replica "
                        "(every endpoint is down or backing off)",
                        shards=tuple(self.worker_shards(w)),
                    )
            answered, failed = self._exchange_round(messages, targets, log_entry)
            nbytes = 0
            for w, reply in answered.items():
                last.pop(w, None)
                if not self._inline:  # an inline reply crosses no wire
                    nbytes += _payload_nbytes(messages[w]) + _payload_nbytes(reply)
                if isinstance(reply, tuple) and reply and reply[0] == "error":
                    failures[w] = WorkerError(reply[1])
                else:
                    replies[w] = reply
            pending = sorted(failed)
            backoff = 0.0
            with self._counter_lock:
                self.bytes_shipped += nbytes
                for w in pending:
                    last[w] = (targets[w], failed[w])
                    if failed[w].cause == "timeout":
                        self.worker_timeouts += 1
                    if attempt == attempts:
                        continue
                    self.worker_retries += 1
                    if len(self._eps[w]) > 1:
                        self.replica_failovers += 1
                    else:
                        jitter = float(self._jitter_rng.random())
                        backoff = max(backoff, self.policy.backoff_seconds(attempt, jitter))
            if not pending:
                break
            time.sleep(backoff)  # 0.0 with replicas: fail over at once
        for w, (r, failure) in sorted(last.items()):
            ep = self._eps[w][r]
            with ep.lock:
                if ep.breaker.record_failure():
                    with self._counter_lock:
                        self.breaker_opens += 1
                if self._endpoints_cfg is None and len(self._eps[w]) == 1:
                    # Best-effort respawn so the *next* request (or the
                    # breaker's half-open probe) meets a fresh worker
                    # and a clean pipe rather than a stale, late reply.
                    with contextlib.suppress(Exception):
                        self._respawn_locked(w, r, cause=failure.cause)
            failures[w] = ShardUnavailableError(
                f"worker {w} unavailable after {attempts} attempt(s) "
                f"({failure.cause}): {failure}",
                shards=tuple(self.worker_shards(w)),
            )
        return replies, failures

    def _exchange_round(self, messages, targets: dict[int, int], log_entry):
        """One attempt at ``targets`` (worker -> replica): ``(replies, failed)``.

        Raw replies and classified :class:`_TransportFailure` per worker.
        ``log_entry`` (an insert-log record) is appended to the slot's
        replay log atomically with a successful reply, *inside* the
        endpoint lock: a crash-triggered replay in another thread holds
        the same lock, so a batch can never fall between an endpoint's
        ack and its log commit (the replay would miss it) or be both
        replayed and re-sent (the seq stamp would dedup it anyway, but
        the log must stay an exact history).
        """
        replies: dict[int, object] = {}
        failed: dict[int, _TransportFailure] = {}
        #: transport -> (worker, replica, expiry) of the requests sent;
        #: this thread holds the lock of every endpoint in here.
        inflight: dict[ShardTransport, tuple[int, int, float]] = {}
        waiting = sorted(targets)
        try:
            while waiting or inflight:
                deferred = []
                for w in waiting:
                    r = targets[w]
                    ep = self._eps[w][r]
                    if not inflight:
                        ep.lock.acquire()
                    elif ep.transport is None or not ep.lock.acquire(blocking=False):
                        # Nothing slow — a contended lock, a revive —
                        # while replies are owed to this thread.
                        deferred.append(w)
                        continue
                    try:
                        failure = self._admit_locked(w, r, messages[w])
                    except BaseException:
                        ep.lock.release()
                        raise
                    if failure is None:
                        expiry = time.monotonic() + self._op_deadline(messages[w])
                        inflight[ep.transport] = (w, r, expiry)
                    else:
                        ep.lock.release()
                        failed[w] = failure
                waiting = deferred
                if not inflight:
                    continue
                nearest = min(expiry for _, _, expiry in inflight.values())
                ready = multiprocessing.connection.wait(
                    list(inflight), timeout=max(nearest - time.monotonic(), 0.0)
                )
                now = time.monotonic()
                overdue = [t for t, (_, _, expiry) in inflight.items() if expiry <= now]
                for transport in ready or overdue:
                    w, r, expiry = inflight[transport]
                    ep = self._eps[w][r]
                    try:
                        if not ready:
                            raise _TransportFailure(
                                "timeout",
                                f"worker {w}[{r}] ({transport.endpoint}) reply exceeded "
                                f"its {self._op_deadline(messages[w]):.3f}s deadline",
                            )
                        reply = self._recv_locked(w, r, max(expiry - now, 0.0))
                        ep.breaker.record_success()
                        if log_entry is not None and not (
                            isinstance(reply, tuple) and reply and reply[0] == "error"
                        ):
                            with self._route_lock:
                                self._insert_log[w].append(log_entry)
                        replies[w] = reply
                    except _TransportFailure as exc:
                        failed[w] = exc
                        self._mark_down_locked(w, r, exc.cause)
                    del inflight[transport]
                    ep.lock.release()
        finally:
            # Only an unexpected error leaves requests in flight (or half
            # read); their late replies would desynchronise the next
            # caller, so the channels go down with the locks.
            for w, r, _ in inflight.values():
                self._mark_down_locked(w, r, "crash")
                self._eps[w][r].lock.release()
        return replies, failed

    def _admit_locked(self, worker: int, replica: int, message) -> _TransportFailure | None:
        """Re-validate, revive if down, send (lock held); the failure, if any."""
        ep = self._eps[worker][replica]
        if not ep.breaker.allow():
            return _TransportFailure(
                "crash", f"worker {worker}[{replica}] breaker opened concurrently"
            )
        if ep.transport is None:
            try:
                self._respawn_locked(worker, replica, cause=ep.down_cause or "reconnect")
            except Exception as exc:
                return _TransportFailure("crash", f"worker {worker} respawn failed: {exc}")
        try:
            self._send_locked(worker, replica, message)
        except _TransportFailure as exc:
            self._mark_down_locked(worker, replica, exc.cause)
            return exc
        return None

    def _request(self, worker: int, message, log_entry=None):
        """:meth:`_exchange` with one entry: the reply, or its failure raised."""
        replies, failures = self._exchange({worker: message}, log_entry)
        if failures:
            raise failures[worker]
        return replies[worker]

    def _broadcast_insert(self, worker: int, entry) -> None:
        """Deliver one logged insert to every replica of its owning slot.

        Best-effort by design: the insert already succeeded on one
        replica (and is in the replay log), the seq stamp makes
        duplicate delivery a set-lookup no-op, and a replica that is
        down right now converges through the log replay when it
        reconnects.  A replica that fails mid-broadcast is simply
        marked down — never the caller's problem.
        """
        replicas = self._eps[worker]
        if len(replicas) == 1:
            return
        shard, points, seq = entry
        message = ("insert", shard, points, seq)
        deadline = self._op_deadline(message)
        for r, ep in enumerate(replicas):
            with ep.lock:
                if ep.transport is None or ep.poisoned:
                    continue
                try:
                    reply = self._roundtrip_locked(worker, r, message, deadline)
                except _TransportFailure as exc:
                    self._mark_down_locked(worker, r, exc.cause)
                    continue
                if isinstance(reply, tuple) and reply and reply[0] == "error":
                    self._mark_down_locked(worker, r, "corrupt")

    def _rollback_endpoints(self, worker: int) -> None:
        """Restore (pipes) or quarantine (TCP) a slot after a failed insert.

        A respawned pipe worker reloads the artifact and replays the
        (already popped) log, restoring the exact pre-batch state.  A
        remote server cannot be rolled back — it may have durably
        applied part of the batch — so its endpoints are *poisoned*:
        excluded from selection and revival until a fresh pool (or an
        operator restart of the server) re-anchors state.
        """
        for r, ep in enumerate(self._eps[worker]):
            with ep.lock:
                if self._endpoints_cfg is None:
                    with contextlib.suppress(Exception):
                        self._respawn_locked(worker, r, cause="rollback")
                else:
                    if ep.transport is not None:
                        with contextlib.suppress(Exception):
                            ep.transport.kill()
                        ep.transport = None
                    ep.poisoned = True
                    ep.down_cause = "rollback"

    def _heartbeat_loop(self) -> None:
        """Background liveness probe: ping idle endpoints, revive the dead.

        Runs only when ``policy.heartbeat_interval > 0``.  An endpoint
        whose lock is busy is serving a request — the request path's
        own deadline covers it — so the probe only pings endpoints it
        can lock without waiting, keeping the heartbeat invisible to
        foreground latency.  Downed replicas past their backoff are
        revived here too, so a replica set heals without waiting for a
        read to rotate onto the dead endpoint.
        """
        while not self._hb_stop.wait(self.policy.heartbeat_interval):
            for w in range(self.num_workers):
                for r, ep in enumerate(self._eps[w]):
                    if self._closed or self._hb_stop.is_set():
                        return
                    if not ep.lock.acquire(blocking=False):
                        continue
                    try:
                        if self._closed:
                            return
                        if ep.poisoned:
                            continue
                        if ep.transport is None:
                            if (
                                ep.down_cause is not None
                                and time.monotonic() >= ep.retry_at
                            ):
                                with contextlib.suppress(Exception):
                                    self._respawn_locked(
                                        w, r, cause=ep.down_cause
                                    )
                            continue
                        try:
                            pong = self._roundtrip_locked(
                                w, r, ("ping",), self.policy.recv_deadline
                            )
                            if pong != "pong":
                                raise WorkerError(
                                    f"worker {w} heartbeat answered {pong!r}"
                                )
                        except Exception as exc:
                            if (
                                isinstance(exc, _TransportFailure)
                                and exc.cause == "timeout"
                            ):
                                with self._counter_lock:
                                    self.worker_timeouts += 1
                            with contextlib.suppress(Exception):
                                self._respawn_locked(w, r, cause="heartbeat")
                    finally:
                        ep.lock.release()

    def worker_pids(self) -> list[int]:
        """Live spawned-worker process ids (diagnostics and crash tests).

        Flat across slots then replicas; remote TCP endpoints have no
        local process and contribute nothing.
        """
        pids = []
        for row in self._eps:
            for ep in row:
                transport = ep.transport
                if (
                    isinstance(transport, PipeTransport)
                    and transport.process is not None
                ):
                    pids.append(transport.process.pid)
        return pids

    def worker_stats(self) -> list[dict]:
        """Every *reachable* slot's stats snapshot, via the ``stats`` op.

        Each entry is an endpoint-local ``ServiceStats.as_dict()``
        document — latency histogram, counters, bytes shipped over
        *its* wire, and live gauges over its frozen shards (overflow
        size, re-freeze counters).  One replica answers per slot (the
        read rotation picks it); a respawned endpoint starts from
        zeroed counters, and the parent's :attr:`respawns` records the
        event.  Slots that are down are skipped — telemetry must not
        take the service with it.  Merge with ``ServiceStats.from_dict``
        + ``merge`` for the pool-wide aggregate (exact: shared histogram
        buckets).
        """
        replies, _ = self._exchange({w: ("stats",) for w in range(self.num_workers)})
        return [replies[w] for w in sorted(replies)]

    def counters(self) -> dict:
        """The pool's own :class:`~repro.service.stats.ServiceStats`
        counters (thread-safe): payload bytes shipped, respawns (total
        and by cause) and the failure counters, since the pool opened
        or its last :meth:`reset_stats`."""
        with self._counter_lock:
            return {
                "bytes_shipped": self.bytes_shipped,
                "worker_respawns": self.respawns,
                "worker_timeouts": self.worker_timeouts,
                "worker_retries": self.worker_retries,
                "breaker_opens": self.breaker_opens,
                "replica_failovers": self.replica_failovers,
                "respawns_by_cause": dict(self.respawns_by_cause),
            }

    def reset_stats(self) -> None:
        """Zero every reachable endpoint's stats, then :meth:`counters`.

        The endpoints hear a broadcast ``reset`` op (unreachable slots
        are skipped: a respawned one starts from zero anyway); the
        counters are zeroed after it, so the broadcast's own bytes and
        any respawn it triggered are not counted either.
        """
        self._exchange({w: ("reset",) for w in range(self.num_workers)})
        with self._counter_lock:
            self.bytes_shipped = 0
            self.respawns = 0
            self.worker_timeouts = 0
            self.worker_retries = 0
            self.breaker_opens = 0
            self.replica_failovers = 0
            self.respawns_by_cause = {}

    def open_breaker_count(self) -> int:
        """How many endpoints' circuit breakers are currently open.

        Read without the endpoint locks: a racing transition flips a
        single reference, so the count is only ever one step stale —
        fine for a gauge, and it keeps metrics scrapes from queueing
        behind a hung request's deadline.
        """
        return sum(
            1 for row in self._eps for ep in row if ep.breaker.is_open
        )

    def gauge_hooks(self) -> dict:
        """The pool's live gauge: its open breakers.  The endpoints keep
        the overflow and re-freeze gauges of their own shards (the
        ``stats`` op)."""
        return {"breaker_open_workers": lambda: float(self.open_breaker_count())}

    def close(self) -> None:
        """Stop every endpoint and release the artifact (idempotent).

        Spawned workers get a clean ``stop`` then a join-or-terminate;
        TCP endpoints get the same ``stop`` (ending the server's
        session, not the server) and a socket close.
        """
        if self._closed:
            return
        self._closed = True
        self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=5.0)
        for row in self._eps:
            for ep in row:
                if ep.transport is None:
                    continue
                with contextlib.suppress(Exception):
                    ep.transport.send(("stop",))
        for row in self._eps:
            for ep in row:
                if ep.transport is None:
                    continue
                with contextlib.suppress(Exception):
                    ep.transport.shutdown()
                ep.transport = None
        if self._remove_artifact is not None:
            self._remove_artifact()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Total number of served points across all shards."""
        return sum(gids.size for gids in self._shard_gids)

    @property
    def dim(self) -> int:
        """Dimensionality of the served points."""
        return self._dim

    def shard_sizes(self) -> list[int]:
        """Current per-shard point counts (from the parent's id maps)."""
        return [int(gids.size) for gids in self._shard_gids]

    @property
    def pool_workers(self) -> int:
        """The worker-slot count."""
        return self.num_workers

    #: the parent holds no points: the endpoints do.
    local_points = None

    def resolve_radius(self, radius: float | None) -> float:
        return self.radius if radius is None else float(radius)

    def peek_assignment(self, count: int) -> np.ndarray:
        """Shard ids the next ``count`` inserted points would be routed
        to: new id ``i`` goes to shard ``i % K``."""
        return (self.n + np.arange(count)) % self.num_shards

    # ------------------------------------------------------------------
    # Radius queries
    # ------------------------------------------------------------------
    def query_batch(
        self,
        queries: np.ndarray,
        radius: float | None = None,
        trace: StageTrace | None = None,
        allow_partial: bool = False,
        adaptive=None,
    ) -> ResultBlock:
        """Answer a ``(q, d)`` matrix: one round trip per worker slot.

        Each endpoint runs the same per-shard
        :class:`~repro.service.batch.BatchQueryEngine` batch and ships
        its block's columns, so the merged answers are bit-identical
        whatever the host — inline, pipes or TCP, replicated or not.
        The merged answer is one :class:`~repro.core.results.ResultBlock`
        whose rows are made on read.

        With ``allow_partial=True`` an unrecoverable slot (every
        replica's retries exhausted or breaker open) degrades the
        answer instead of failing it: its shards contribute empty
        candidate sets and the block (every row of it) is tagged
        ``degraded=True`` with the sorted missing shard ids.  Without
        it — the default — such a slot raises
        :class:`~repro.exceptions.ShardUnavailableError`, so a
        *successful* return is always bit-identical to a fault-free
        run.  If no slot answers at all, the error is raised even
        under ``allow_partial``.

        With ``trace``, the fan-out round trip is attributed to the
        ``ipc`` stage — which *includes* the workers' compute, since the
        parent only observes the blocking request/reply — and the
        parent-side merge to ``merge``.  Per-stage attribution inside
        the workers lives in their own stats (:meth:`worker_stats`).
        """
        radius = self.resolve_radius(radius)
        queries = check_matrix(queries, dim=self.dim, name="queries")
        # The adaptive policy ships as its JSON document, a fifth
        # element of the message only when a policy is set.
        if adaptive is not None:
            message_tail = (radius, adaptive.to_dict())
        else:
            message_tail = (radius,)
        with stage_timer(trace, "ipc"):
            replies, failures = self._exchange(
                {
                    w: ("radius", self.worker_shards(w), queries, *message_tail)
                    for w in range(self.num_workers)
                }
            )
        if failures and (not allow_partial or not replies):
            raise failures[min(failures)]
        with stage_timer(trace, "merge"):
            blocks = {
                s: _checked_block(reply, s, queries.shape[0])
                for w, reply in replies.items()
                for s in self.worker_shards(w)
            }
            missing = tuple(
                sorted(s for w in failures for s in self.worker_shards(w))
            )
            return self._merge_blocks(blocks, queries.shape[0], radius, missing)

    def _merge_blocks(
        self, blocks: dict, q: int, radius: float, missing: tuple
    ) -> ResultBlock:
        """Every query's global answer from the shards' flat reply blocks.

        The shards partition the dataset, so a query's answer is the
        disjoint union of the shards' local answers translated through
        the id maps, its stats summed and labelled
        :attr:`~repro.core.results.Strategy.HYBRID`.  Per shard, one
        ``take`` translates the local ids and the ``(q, 8)`` stats
        matrices are summed in shard order, as Python's ``sum`` would
        add them; per query, a concatenate and a stable argsort remain.
        A shard absent from ``blocks`` (one of the ``missing``)
        contributes no neighbours and the default stats.  The answer is
        one :class:`~repro.core.results.ResultBlock`; no row object is
        made until a row is read.
        """
        parts = []
        total = lowest = None
        for s in range(self.num_shards):
            if s in blocks:
                counts, ids, distances, stats = blocks[s]
                try:
                    gids = self._shard_gids[s].take(ids)
                except IndexError as exc:
                    raise WorkerError(f"shard {s} answered an unknown id: {exc}") from exc
                parts.append((gids, distances, list(accumulate(counts.tolist(), initial=0))))
            else:
                stats = np.broadcast_to(_MISSING_STATS, (q, len(STATS_COLUMNS)))
            if total is None:
                total, lowest = stats + 0.0, stats  # 0 + x, as sum() starts
            else:
                total = total + stats
                lowest = np.minimum(lowest, stats)
        # An untracked (-1) count anywhere poisons the sum, and the
        # merged answer is exact only if every shard's part was.
        for column in (_EXACT_CANDIDATES, _PROBES):
            total[:, column] = np.where(lowest[:, column] >= 0, total[:, column], -1.0)
        total[:, _STRATEGY] = STRATEGY_CODES[Strategy.HYBRID]
        total[:, _EXACT] = lowest[:, _EXACT] > 0
        ids, distances = [], []
        for i in range(q):
            row_ids = np.concatenate([gids[b[i]:b[i + 1]] for gids, _, b in parts])
            row_distances = np.concatenate([dist[b[i]:b[i + 1]] for _, dist, b in parts])
            order = np.argsort(row_ids, kind="stable")
            ids.append(row_ids[order])
            distances.append(row_distances[order])
        return ResultBlock(
            radius, tuple(ids), tuple(distances), total,
            degraded=bool(missing), missing_shards=missing,
        )

    def merge_radius(self, parts: list[QueryResult], radius: float) -> QueryResult:
        """Merge one query's per-shard local results into the global
        answer: :meth:`_merge_blocks` over one-row blocks.

        No product path calls it: its one caller is the benchmark's
        ``--trace 1`` layer replay (``benchmarks/perf/layers.py``), and
        ROADMAP item 16(d) deletes it along with that replay.
        """
        blocks = {s: ResultBlock.from_rows([part]).columns() for s, part in enumerate(parts)}
        return self._merge_blocks(blocks, 1, radius, ())[0]

    # ------------------------------------------------------------------
    # Top-k queries (exact)
    # ------------------------------------------------------------------
    def query_topk_batch(
        self,
        queries: np.ndarray,
        k: int,
        trace: StageTrace | None = None,
        allow_partial: bool = False,
    ) -> list[QueryResult]:
        """Exact k-NN: workers compute local distance blocks, parent selects.

        The merge kernel is the unsharded index's
        (:func:`~repro.core.linear_scan.exact_topk_results`), so the
        deterministic ``(distance, id)`` tie-breaking is shared.

        Under ``allow_partial=True`` a dead slot shrinks the candidate
        pool to the reachable shards: results carry up to
        ``min(k, reachable points)`` neighbors and are tagged
        ``degraded=True`` with the missing shard ids.  Without it, a
        dead slot raises
        :class:`~repro.exceptions.ShardUnavailableError`.
        """
        k = check_positive_int(k, "k")
        queries = check_matrix(queries, dim=self.dim, name="queries")
        if k > self.n:
            raise ConfigurationError(
                f"k ({k}) must not exceed the index size ({self.n})"
            )
        with stage_timer(trace, "ipc"):
            replies, failures = self._exchange(
                {
                    w: ("topk_block", self.worker_shards(w), queries)
                    for w in range(self.num_workers)
                }
            )
        if failures and (not allow_partial or not replies):
            raise failures[min(failures)]
        with stage_timer(trace, "merge"):
            blocks_by_shard = {}
            for reply in replies.values():
                blocks_by_shard.update(reply)
            if not failures:
                blocks = [blocks_by_shard[s] for s in range(self.num_shards)]
                return exact_topk_results(
                    np.concatenate(self._shard_gids), blocks, k, self.n
                )
            available = sorted(blocks_by_shard)
            missing = tuple(
                s for s in range(self.num_shards) if s not in blocks_by_shard
            )
            gids = np.concatenate([self._shard_gids[s] for s in available])
            n_avail = int(gids.size)
            if n_avail == 0:
                raise failures[min(failures)]
            blocks = [blocks_by_shard[s] for s in available]
            results = exact_topk_results(
                gids, blocks, min(k, n_avail), n_avail
            )
            return [
                _dc_replace(result, degraded=True, missing_shards=missing)
                for result in results
            ]

    # ------------------------------------------------------------------
    # Incremental inserts
    # ------------------------------------------------------------------
    def insert(self, new_points: np.ndarray) -> np.ndarray:
        """Insert points round-robin; each lands in its owner's overflow.

        The receiving endpoint's frozen shard absorbs the points through
        its overflow run (background re-freeze included); the
        parent stamps each routed batch with a per-shard ``seq``,
        extends the global id maps and logs the batches so a revived
        endpoint can be replayed into the same state.  With replicas
        the batch is then *broadcast* to the slot's other endpoints —
        best-effort, idempotent under the seq stamp, with the replay
        log converging any replica that was down.

        The replay log grows with every insert until a save makes the
        artifact canonical again — insert-heavy long-running deployments
        should call :meth:`checkpoint` (or ``save`` to the source path)
        periodically to re-anchor recovery on disk and drop the log.

        If any shard's primary delivery fails, the batch is rolled
        back: its log entries are popped and every touched slot is
        restored (pipes respawn to the exact pre-batch state; remote
        TCP endpoints, which may have durably applied part of the
        batch, are quarantined instead — see :meth:`_rollback_endpoints`).
        """
        new_points = check_matrix(new_points, dim=self.dim, name="new_points")
        m = new_points.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.int64)
        start = self.n
        global_ids = np.arange(start, start + m, dtype=np.int64)
        assignment = global_ids % self.num_shards
        routed_by_shard = []
        for s in range(self.num_shards):
            rows = np.flatnonzero(assignment == s)
            if rows.size:
                routed_by_shard.append(
                    (s, rows, np.ascontiguousarray(new_points[rows]))
                )
        # Phase 1: apply on the owning endpoints.  Each shard's
        # replay-log entry commits atomically with the primary ack (see
        # ``_request``) — a concurrent crash-triggered replay can never
        # observe an acked-but-unlogged batch.
        touched: list[int] = []
        appended: list[int] = []
        try:
            for s, _, routed in routed_by_shard:
                worker = self._owner(s)
                touched.append(worker)
                with self._route_lock:
                    seq = self._insert_seq[s]
                    self._insert_seq[s] += 1
                entry = (s, routed, seq)
                self._request(worker, ("insert", s, routed, seq), log_entry=entry)
                appended.append(worker)
                self._broadcast_insert(worker, entry)
        except BaseException:
            with self._route_lock:
                for worker in reversed(appended):
                    self._insert_log[worker].pop()
            for worker in dict.fromkeys(touched):
                self._rollback_endpoints(worker)
            raise
        # Phase 2: all owners accepted — commit the routing state.
        with self._route_lock:
            for s, rows, routed in routed_by_shard:
                self._shard_gids[s] = np.concatenate(
                    [self._shard_gids[s], global_ids[rows]]
                )
        return global_ids

    # ------------------------------------------------------------------
    # Persistence support
    # ------------------------------------------------------------------
    def save_shards(self, path: str) -> None:
        """Have each owner write its shards under ``path`` (frozen dirs),
        and write the id maps beside them when there are several shards.

        Workers compact their overflow first (``save_frozen_index``
        does), so the artifact is pure CSR arrays; the caller writes
        ``index.json`` around them.  One serving replica per
        shard performs the save — replicas hold converged state, so any
        of them may.  Note the multi-host caveat in
        :mod:`repro.service.shard_server`: through a TCP endpoint the
        write lands on the *server's* filesystem.
        """
        for w in range(self.num_workers):
            for s in self.worker_shards(w):
                self._request(
                    w, ("save_shard", s, _shard_dir(path, s))
                )
        if self.num_shards > 1:
            from repro.api.persist import write_shard_gids

            write_shard_gids(path, self._shard_gids)
        if os.path.realpath(path) == os.path.realpath(self.path):
            # Saving in place makes the artifact canonical: a respawned
            # worker now loads the inserts from disk, so replaying the
            # log on top of it would double them.
            with self._route_lock:
                self._insert_log = [[] for _ in range(self.num_workers)]

    def checkpoint(self) -> None:
        """Fold all inserts into the source artifact and drop the replay log.

        Each worker compacts and re-saves its shards in place, making
        the on-disk artifact the recovery point again; without periodic
        checkpoints an insert-heavy parent accumulates a copy of every
        routed batch for crash replay.  Queries keep working throughout
        (shard saves stage a complete sibling directory and atomically
        swap it in under the live mmaps; the metadata rewrite is a
        fsync'd rename too).
        """
        from repro.api.persist import _META_FILE, _read_meta

        self.save_shards(self.path)
        # Keep the metadata honest: n grows with inserts, and a
        # reopened single-shard pool derives its id map from it.
        meta_path = os.path.join(self.path, _META_FILE)
        meta = _read_meta(meta_path)
        meta["n"] = self.n
        meta["next_shard"] = self.n % self.num_shards
        write_json_atomic(meta_path, meta)

    def __repr__(self) -> str:
        return (
            f"WorkerPool(W={self.num_workers}, R={self.replicas}, "
            f"K={self.num_shards}, n={self.n}, dim={self.dim}, "
            f"metric={self.metric_name}, r={self.radius})"
        )
