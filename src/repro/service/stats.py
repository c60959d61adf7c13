"""Serving counters kept by :class:`repro.api.Index` and by each worker.

Depends only on :mod:`repro.observability` (numpy + stdlib), so the
facade and worker subprocesses can import it without ordering
constraints.

A stats object carries flat counters, a mergeable per-query
:class:`~repro.observability.LatencyHistogram`, per-stage wall-time
attributions fed by the opt-in tracing layer,
worker-pool transport counters (``bytes_shipped``, ``worker_respawns``),
and two gauge channels: ``gauges`` holds point-in-time values shipped
from another process (e.g. a worker's overflow size), while
``gauge_hooks`` holds zero-arg callables the owning backend registers so
:meth:`ServiceStats.read_gauges` always reads live values (frozen-index
overflow size, background re-freeze counters).  Hooks are process-local
by nature and are deliberately excluded from serialisation, merging,
and equality.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.observability import LatencyHistogram, StageTrace

__all__ = ["ServiceStats"]


@dataclass(eq=False)
class ServiceStats:
    """Running counters, histograms, and gauges of a served index.

    One stats object is shared by every thread of a concurrent serving
    front-end (``serve_stream_concurrent`` fans batches out to a thread
    pool and every worker accounts into the same object), so all
    mutating accessors take an internal lock.  Reads of a single
    counter are atomic anyway; :meth:`as_dict` locks so a snapshot is
    internally consistent.  The object never crosses a process boundary
    directly — workers ship :meth:`as_dict` documents — so holding a
    lock is safe.
    """

    queries_served: int = 0
    batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: queries answered by an identical batch-mate's fresh result —
    #: engine work avoided, but not by the cache store.
    deduplicated: int = 0
    elapsed_seconds: float = 0.0
    #: chosen shard fan-out width — thread-pool threads or worker
    #: processes serving the shards; 0 for an unpartitioned engine.
    pool_workers: int = 0
    strategy_counts: dict[str, int] = field(default_factory=dict)
    #: bytes of query/result payload that crossed worker-pool pipes.
    bytes_shipped: int = 0
    #: pool workers respawned after a crash (parent-side counter).
    worker_respawns: int = 0
    #: worker replies that missed their recv deadline (hangs, dropped
    #: replies) before the worker was killed and respawned.
    worker_timeouts: int = 0
    #: request re-sends after a transport failure (each preceded by a
    #: backoff sleep and a kill-and-respawn of the worker).
    worker_retries: int = 0
    #: responses served with ``degraded=True`` — one or more shards
    #: were unavailable and the caller opted into partial results.
    degraded_responses: int = 0
    #: closed-to-open circuit-breaker transitions across all workers.
    breaker_opens: int = 0
    #: reads re-routed to a surviving replica of the same shard slot
    #: after a transport failure (replicated pools only).
    replica_failovers: int = 0
    #: worker respawns keyed by what triggered them (``crash``,
    #: ``timeout``, ``corrupt``, ``heartbeat``, ``rollback``); sums to
    #: ``worker_respawns`` when the pool is the only writer.
    respawns_by_cause: dict[str, int] = field(default_factory=dict)
    #: queries answered under a bounded per-query probe budget (the
    #: adaptive policy's ``target_candidates`` was in force).
    adaptive_probes: int = 0
    #: top-k queries attempted through radius-from-k estimation instead
    #: of the exact scan (whether or not they certified).
    radius_estimates: int = 0
    #: completed online cost-model coefficient updates (synced from the
    #: engines at snapshot time, like the transport counters).
    recalibrations: int = 0
    #: per-query latency distribution; each query in a batch is charged
    #: the batch's wall time, so ``latency.count == queries_served``.
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: accumulated per-stage attribution from traced calls.
    stage_seconds: dict[str, float] = field(default_factory=dict)
    stage_calls: dict[str, int] = field(default_factory=dict)
    #: point-in-time gauge values (used when shipping snapshots across
    #: process boundaries; merged by summation).
    gauges: dict[str, float] = field(default_factory=dict)
    #: live gauge callables registered by the owning backend; read at
    #: snapshot time, never serialised or merged.
    gauge_hooks: dict[str, Callable[[], float]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Created here rather than as a field: the lock is process-local
        # plumbing, not data — it must stay out of repr/eq and can never
        # be serialised.  RLock so a gauge hook that reads back into the
        # stats object cannot self-deadlock during a snapshot.
        self._lock = threading.RLock()

    @property
    def qps(self) -> float:
        """Average queries per second over the measured time."""
        return self.queries_served / self.elapsed_seconds if self.elapsed_seconds else 0.0

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def record_batch(
        self,
        count: int,
        seconds: float,
        strategies: dict[str, int] | None = None,
        trace: StageTrace | None = None,
    ) -> None:
        """Account one answered batch of ``count`` queries.

        Every query in the batch is charged the batch's wall time in
        the latency histogram — the latency a caller of that batch
        actually observed.
        """
        with self._lock:
            self.queries_served += count
            self.batches += 1
            self.elapsed_seconds += seconds
            if count:
                self.latency.record(seconds, count=count)
            if strategies:
                for name, n in strategies.items():
                    self.strategy_counts[name] = self.strategy_counts.get(name, 0) + n
            if trace is not None:
                self._add_stages_locked(trace)

    def add_stages(self, trace: StageTrace) -> None:
        """Fold a completed trace's per-stage attribution into the totals."""
        with self._lock:
            self._add_stages_locked(trace)

    def _add_stages_locked(self, trace: StageTrace) -> None:
        for stage, seconds in trace.seconds.items():
            self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds
            self.stage_calls[stage] = self.stage_calls.get(stage, 0) + trace.calls.get(stage, 0)

    def record_cache(self, hits: int = 0, misses: int = 0, deduplicated: int = 0) -> None:
        """Account one batch's cache outcome (front-end cache layer)."""
        with self._lock:
            self.cache_hits += hits
            self.cache_misses += misses
            self.deduplicated += deduplicated

    def set_transport(
        self,
        bytes_shipped: int,
        worker_respawns: int,
        worker_timeouts: int = 0,
        worker_retries: int = 0,
        breaker_opens: int = 0,
        replica_failovers: int = 0,
        respawns_by_cause: dict[str, int] | None = None,
    ) -> None:
        """Sync the worker-pool transport/failure counters into a snapshot.

        The pool owns the live counters; the facade copies them over
        just before reading a snapshot, so they all land atomically.
        """
        with self._lock:
            self.bytes_shipped = bytes_shipped
            self.worker_respawns = worker_respawns
            self.worker_timeouts = worker_timeouts
            self.worker_retries = worker_retries
            self.breaker_opens = breaker_opens
            self.replica_failovers = replica_failovers
            if respawns_by_cause is not None:
                self.respawns_by_cause = dict(respawns_by_cause)

    def record_degraded(self, count: int = 1) -> None:
        """Account ``count`` responses served with missing shards."""
        with self._lock:
            self.degraded_responses += count

    def record_adaptive(
        self, probe_queries: int = 0, radius_estimates: int = 0
    ) -> None:
        """Account adaptive-execution activity for one batch."""
        with self._lock:
            self.adaptive_probes += probe_queries
            self.radius_estimates += radius_estimates

    def set_recalibrations(self, count: int) -> None:
        """Sync the engines' recalibration total into a snapshot.

        The engines own the live counter (one per completed EWMA
        coefficient update); the facade copies it over just before
        reading a snapshot, exactly like :meth:`set_transport`.
        """
        with self._lock:
            self.recalibrations = count

    def merge(self, other: ServiceStats) -> ServiceStats:
        """Fold another stats object (e.g. a worker's) into this one.

        Counters and histograms add; ``pool_workers`` keeps this
        object's value (it describes the aggregating front-end, not the
        contributor); gauges add (each worker reports its own share);
        gauge hooks stay local.  Returns self.
        """
        with self._lock:
            self.queries_served += other.queries_served
            self.batches += other.batches
            self.cache_hits += other.cache_hits
            self.cache_misses += other.cache_misses
            self.deduplicated += other.deduplicated
            self.elapsed_seconds += other.elapsed_seconds
            self.bytes_shipped += other.bytes_shipped
            self.worker_respawns += other.worker_respawns
            self.worker_timeouts += other.worker_timeouts
            self.worker_retries += other.worker_retries
            self.degraded_responses += other.degraded_responses
            self.breaker_opens += other.breaker_opens
            self.replica_failovers += other.replica_failovers
            for cause, n in other.respawns_by_cause.items():
                self.respawns_by_cause[cause] = (
                    self.respawns_by_cause.get(cause, 0) + n
                )
            self.adaptive_probes += other.adaptive_probes
            self.radius_estimates += other.radius_estimates
            self.recalibrations += other.recalibrations
            self.latency.merge(other.latency)
            for name, n in other.strategy_counts.items():
                self.strategy_counts[name] = self.strategy_counts.get(name, 0) + n
            for stage, seconds in other.stage_seconds.items():
                self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds
                self.stage_calls[stage] = (
                    self.stage_calls.get(stage, 0) + other.stage_calls.get(stage, 0)
                )
            for name, value in other.gauges.items():
                self.gauges[name] = self.gauges.get(name, 0.0) + value
            return self

    def reset(self) -> None:
        """Zero all measurements in place.

        Structural attributes survive: ``pool_workers`` (a property of
        the backend, not of traffic) and the registered ``gauge_hooks``.
        Keeping reset here — instead of re-creating the object at each
        call site — means new fields can't be silently dropped.
        """
        with self._lock:
            self.queries_served = 0
            self.batches = 0
            self.cache_hits = 0
            self.cache_misses = 0
            self.deduplicated = 0
            self.elapsed_seconds = 0.0
            self.bytes_shipped = 0
            self.worker_respawns = 0
            self.worker_timeouts = 0
            self.worker_retries = 0
            self.degraded_responses = 0
            self.breaker_opens = 0
            self.replica_failovers = 0
            self.respawns_by_cause = {}
            self.adaptive_probes = 0
            self.radius_estimates = 0
            self.recalibrations = 0
            self.strategy_counts = {}
            self.latency = LatencyHistogram()
            self.stage_seconds = {}
            self.stage_calls = {}
            self.gauges = {}

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def read_gauges(self) -> dict[str, float]:
        """Static gauge values plus one reading of every registered hook."""
        values = dict(self.gauges)
        for name, hook in self.gauge_hooks.items():
            values[name] = float(hook())
        return values

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot.

        The flat counter keys (including ``strategy_*``) keep their
        original names and types for existing consumers; the histogram,
        stage attribution, and gauges ride along as nested documents.
        """
        with self._lock:
            doc: dict[str, object] = {
                "queries_served": self.queries_served,
                "batches": self.batches,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "deduplicated": self.deduplicated,
                "elapsed_seconds": self.elapsed_seconds,
                "qps": self.qps,
                "pool_workers": self.pool_workers,
                "bytes_shipped": self.bytes_shipped,
                "worker_respawns": self.worker_respawns,
                "worker_timeouts": self.worker_timeouts,
                "worker_retries": self.worker_retries,
                "degraded_responses": self.degraded_responses,
                "breaker_opens": self.breaker_opens,
                "replica_failovers": self.replica_failovers,
                "respawns_by_cause": dict(self.respawns_by_cause),
                "adaptive_probes": self.adaptive_probes,
                "radius_estimates": self.radius_estimates,
                "recalibrations": self.recalibrations,
                **{
                    f"strategy_{name}": count
                    for name, count in sorted(self.strategy_counts.items())
                },
            }
            doc["latency"] = self.latency.to_dict()
            doc["stages"] = {
                stage: {
                    "seconds": self.stage_seconds[stage],
                    "calls": self.stage_calls.get(stage, 0),
                }
                for stage in sorted(self.stage_seconds)
            }
            doc["gauges"] = self.read_gauges()
            return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> ServiceStats:
        """Rebuild from :meth:`as_dict` output (derived keys ignored).

        The symmetric half of the worker-aggregation round-trip: a
        worker ships ``as_dict()`` over its pipe, the parent rebuilds
        with ``from_dict`` and folds it in with :meth:`merge`.
        """
        stats = cls(
            queries_served=int(doc.get("queries_served", 0)),
            batches=int(doc.get("batches", 0)),
            cache_hits=int(doc.get("cache_hits", 0)),
            cache_misses=int(doc.get("cache_misses", 0)),
            deduplicated=int(doc.get("deduplicated", 0)),
            elapsed_seconds=float(doc.get("elapsed_seconds", 0.0)),
            pool_workers=int(doc.get("pool_workers", 0)),
            bytes_shipped=int(doc.get("bytes_shipped", 0)),
            worker_respawns=int(doc.get("worker_respawns", 0)),
            worker_timeouts=int(doc.get("worker_timeouts", 0)),
            worker_retries=int(doc.get("worker_retries", 0)),
            degraded_responses=int(doc.get("degraded_responses", 0)),
            breaker_opens=int(doc.get("breaker_opens", 0)),
            replica_failovers=int(doc.get("replica_failovers", 0)),
            respawns_by_cause={
                str(cause): int(n)
                for cause, n in (doc.get("respawns_by_cause") or {}).items()
            },
            adaptive_probes=int(doc.get("adaptive_probes", 0)),
            radius_estimates=int(doc.get("radius_estimates", 0)),
            recalibrations=int(doc.get("recalibrations", 0)),
            strategy_counts={
                key[len("strategy_"):]: int(value)
                for key, value in doc.items()
                if key.startswith("strategy_")
            },
        )
        if doc.get("latency"):
            stats.latency = LatencyHistogram.from_dict(doc["latency"])
        for stage, entry in (doc.get("stages") or {}).items():
            stats.stage_seconds[stage] = float(entry["seconds"])
            stats.stage_calls[stage] = int(entry.get("calls", 0))
        stats.gauges = {name: float(value) for name, value in (doc.get("gauges") or {}).items()}
        return stats
