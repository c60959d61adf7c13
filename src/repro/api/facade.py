"""The ``Index`` facade: one spec-driven front door for every workload.

:class:`Index` is the package's serving surface:

* :meth:`Index.build` consumes an :class:`~repro.api.spec.IndexSpec`
  and assembles the right engine underneath (a batched single index,
  or the :class:`~repro.service.workers.WorkerPool` that serves every
  sharded or process-served index), the cost model (fixed ratio or
  timing-calibrated), and the optional result cache;
* :meth:`Index.query` answers a :class:`~repro.api.spec.QuerySpec` —
  radius, exact top-k, single or batch — through one method, returning
  the engine's own frozen :class:`~repro.core.results.QueryResult` (a
  tuple of them for a batch);
* :meth:`Index.insert` routes new points in and drops every cached
  answer (the cache stores whole answers, which any insert can change);
* :meth:`Index.save` / :meth:`Index.open` persist everything —
  per-shard tables and sketches, shard id maps, the spec, and the
  calibrated cost model — so a process restart never rebuilds.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, cast

import numpy as np

from repro.api.spec import IndexSpec, QuerySpec, check_probe_budget
from repro.core.adaptive import AdaptivePolicy
from repro.core.calibration import (
    DistanceProfile,
    calibrate_cost_model,
    measure_distance_profile,
)
from repro.core.cost_model import CostModel
from repro.core.hybrid import HybridSearcher
from repro.core.overlap import PartitionHelper
from repro.core.presets import _PSTABLE_PRESETS, paper_parameters
from repro.core.results import QueryResult
from repro.distances import get_metric
from repro.exceptions import ConfigurationError
from repro.faults import FaultPlan, FaultTolerancePolicy
from repro.hashing.base import family_for_metric, get_family
from repro.hashing.params import concatenation_width
from repro.index.frozen import FrozenLSHIndex
from repro.index.frozen_probing import FrozenCoveringLSHIndex
from repro.observability import StageTrace
from repro.service.batch import BatchQueryEngine
from repro.service.cache import QueryResultCache
from repro.service.stats import ServiceStats
from repro.service.workers import WorkerPool, default_fanout_width
from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_matrix, check_positive_int

__all__ = ["Index", "ServiceStats"]


def _resolve_cost_model(spec: IndexSpec, points: np.ndarray) -> CostModel:
    if spec.cost_ratio is not None:
        return CostModel.from_ratio(spec.cost_ratio)
    return calibrate_cost_model(points, get_metric(spec.metric), seed=spec.seed).model


def _resolve_family_and_k(spec: IndexSpec, dim: int, seed: Any = None) -> tuple[Any, int]:
    """Resolve (family, k) for one index build.

    The default spec reproduces :func:`~repro.core.presets.paper_parameters`
    exactly (identical hash draws for a given seed); any override —
    named family, explicit ``k``, bucket width, extra factory kwargs —
    switches to direct registry-driven construction.  ``seed`` is the
    randomness for *this* index's family draw — the spec's own seed for
    a single index, a spawned per-shard stream for sharded builds.
    """
    customised = (
        spec.hash_family is not None
        or spec.k is not None
        or spec.bucket_width is not None
        or spec.family_params
    )
    if not customised:
        params = paper_parameters(
            spec.metric,
            dim=dim,
            radius=spec.radius,
            num_tables=spec.num_tables,
            delta=spec.delta,
            seed=seed,
        )
        return params.family, params.k
    kwargs = dict(spec.family_params or {})
    metric_name = get_metric(spec.metric).name
    preset = _PSTABLE_PRESETS.get(metric_name)
    if spec.bucket_width is not None:
        kwargs.setdefault("w", spec.bucket_width)
    elif preset is not None and spec.hash_family is None:
        kwargs.setdefault("w", preset[1] * spec.radius)
    if spec.hash_family is not None:
        family = get_family(spec.hash_family)(dim, seed=seed, **kwargs)
    else:
        family = family_for_metric(spec.metric, dim, seed=seed, **kwargs)
    k = spec.k
    if k is None:
        if preset is not None and spec.hash_family is None:
            k = preset[0]
        else:
            k = concatenation_width(
                spec.num_tables, spec.delta, family.collision_probability(spec.radius)
            )
    return family, k


def _build_single_index(spec: IndexSpec, points: np.ndarray, seed: Any) -> FrozenLSHIndex:
    """Build the frozen index the spec describes — one index, or one shard.

    ``variant`` selects the index class: ``"multiprobe"`` draws the
    family and ``k`` resolved above and probes ``1 + num_probes``
    buckets per table; ``"covering"`` derives its ``r + 1`` block
    tables from the spec radius instead of drawing a hash family.
    ``seed`` drives the draw (the spec's own seed for one index, a
    spawned stream per shard).
    :meth:`~repro.index.frozen.FrozenLSHIndex.build` hashes the points
    straight into the CSR arrays: byte for byte what the dict-layout
    ``LSHIndex`` of the same spec and seed freezes into, the reference
    the served index is checked against.
    """
    if spec.variant == "covering":
        index = FrozenCoveringLSHIndex(
            dim=points.shape[1],
            radius=int(spec.radius),
            hll_precision=spec.hll_precision,
            hll_seed=spec.hll_seed,
            lazy_threshold=spec.lazy_threshold,
            seed=seed,
        )
    else:
        family, k = _resolve_family_and_k(spec, points.shape[1], seed=seed)
        index = FrozenLSHIndex(
            family,
            k=k,
            num_tables=spec.num_tables,
            hll_precision=spec.hll_precision,
            hll_seed=spec.hll_seed,
            lazy_threshold=spec.lazy_threshold,
            num_probes=spec.num_probes,
        )
    return index.build(points)


def _build_shards(
    spec: IndexSpec, points: np.ndarray
) -> tuple[list[FrozenLSHIndex], list[np.ndarray]]:
    """The spec's shards and their global-id maps.

    Partitions ``points`` round-robin over ``spec.num_shards`` shards
    and builds them concurrently, shard ``s`` from the ``s``-th stream
    spawned off the spec's seed (one shard uses the seed itself).
    Shard ``s`` owns global rows ``s, s + K, s + 2K, ...`` (balanced to
    within one point, and insert routing stays trivial).  The builds are
    numpy kernels that release the GIL, so they overlap on
    :func:`~repro.service.workers.default_fanout_width` threads.
    """
    num_shards, n = spec.num_shards, points.shape[0]
    if num_shards > n:
        raise ConfigurationError(
            f"num_shards ({num_shards}) must not exceed the dataset size ({n})"
        )
    gids = [np.arange(s, n, num_shards, dtype=np.int64) for s in range(num_shards)]
    if num_shards == 1:
        return [_build_single_index(spec, points, seed=spec.seed)], gids
    rngs = spawn_rngs(spec.seed, num_shards)
    with ThreadPoolExecutor(
        max_workers=default_fanout_width(num_shards), thread_name_prefix="repro-shard-build"
    ) as pool:
        shards = list(
            pool.map(
                lambda s: _build_single_index(spec, points[gids[s]], seed=rngs[s]),
                range(num_shards),
            )
        )
    return shards, gids


def _serve_through_pool(
    spec: IndexSpec,
    points: np.ndarray,
    cost_model: CostModel,
    num_workers: int | None,
    fault_policy: FaultTolerancePolicy | None,
    fault_plan: FaultPlan | None,
) -> Index:
    """Build the spec's shards into a transient artifact and serve it
    through a :class:`~repro.service.workers.WorkerPool`.

    The artifact is what the endpoints open, wherever they run; it is
    deleted when the returned index is closed, or at once if the write
    or the pool fails.
    """
    from repro.api.persist import write_artifact

    shards, gids = _build_shards(spec, points)
    path = tempfile.mkdtemp(prefix="repro-shards-")
    try:
        write_artifact(path, spec, cost_model, shards, gids)
        del shards  # the endpoints map the written copy; drop the built one first
        pool = WorkerPool(
            path,
            num_workers=num_workers,
            owns_path=True,
            policy=fault_policy,
            fault_plan=fault_plan,
            replicas=spec.replicas,
        )
    except BaseException:
        shutil.rmtree(path, ignore_errors=True)
        raise
    return Index(pool, spec)


def _serve_index(index: FrozenLSHIndex, spec: IndexSpec, cost_model: CostModel) -> Index:
    """Serve one frozen index in this process: the one assembly of an
    unsharded :class:`Index`, for :meth:`Index.build` and
    :meth:`Index.open`.

    The engine's searcher gets a :class:`~repro.core.overlap.PartitionHelper`,
    the thread a batch's linear partition runs on beside its LSH
    partition (the engine's ``close`` joins it).  Shard engines get
    none: their sibling shards already occupy the cores.
    """
    searcher = HybridSearcher(index, cost_model)
    searcher.partition_helper = PartitionHelper()
    return Index(BatchQueryEngine(searcher, radius=spec.radius, dedup=spec.dedup), spec)


def _refuse_pool_arguments(spec: IndexSpec, **arguments: Any) -> None:
    """Refuse the arguments only a process pool takes, for any other spec.

    :meth:`Index.build` and :meth:`Index.open` both check here.
    Dropping them silently would let the caller believe they configured
    a process pool; in-process shards take no fault plan either, since a
    crash fault ends the process it runs in.  A process spec's
    ``num_workers`` is checked before anything is built.
    """
    if spec.execution == "processes":
        if arguments.get("num_workers") is not None:
            check_positive_int(arguments["num_workers"], "num_workers")
        return
    for name, value in arguments.items():
        if value is not None:
            raise ConfigurationError(
                f'{name} applies to execution="processes" indexes only; '
                f"this index has execution={spec.execution!r}"
            )


#: Radius-from-k estimation (:meth:`Index._topk_adaptive`): the first
#: radius targets the distance profile's ``_K_SAFETY * k / n`` quantile,
#: an uncertified pass multiplies it by ``_RADIUS_GROWTH``, and after
#: ``_MAX_ESCALATIONS`` growth rounds the exact top-k path answers.
_K_SAFETY = 2.0
_RADIUS_GROWTH = 2.0
_MAX_ESCALATIONS = 3


class Index:
    """Spec-driven facade over the whole serving stack.

    Build one from data and an :class:`~repro.api.spec.IndexSpec`, ask
    it anything via :class:`~repro.api.spec.QuerySpec`, persist it with
    :meth:`save` / :meth:`open`:

    Examples
    --------
    >>> import numpy as np
    >>> from repro.api import Index, IndexSpec, QuerySpec
    >>> rng = np.random.default_rng(0)
    >>> points = rng.normal(size=(600, 12))
    >>> index = Index.build(points, IndexSpec(
    ...     metric="l2", radius=1.0, num_tables=6, num_shards=2, seed=1))
    >>> int(index.query(QuerySpec(points[17])).ids[0])
    17
    >>> index.query(QuerySpec(points[17], k=3)).ids.shape
    (3,)
    """

    def __init__(self, engine: BatchQueryEngine | WorkerPool, spec: IndexSpec) -> None:
        #: the engine answering every request: a batched single index,
        #: or the worker pool serving a sharded or process-served one.
        #: Both present one surface, and each owns its counters, gauges
        #: and shutdown.
        self.engine = engine
        self.spec = spec
        self.cache = (
            QueryResultCache(maxsize=spec.cache_size, quantum=spec.cache_quantum)
            if spec.cache_size > 0
            else None
        )
        self.stats = ServiceStats(pool_workers=engine.pool_workers)
        self.stats.gauge_hooks.update(engine.gauge_hooks())
        self._tracing = False
        # Lazily measured distance profile for radius-from-k estimation
        # (None when the engine has no in-process points to sample).
        self._profile: DistanceProfile | None = None
        self._profile_ready = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        points: np.ndarray,
        spec: IndexSpec,
        num_workers: int | None = None,
        fault_policy: FaultTolerancePolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> Index:
        """Build an index over ``points`` as described by ``spec``.

        A spec with ``num_shards > 1`` or ``execution="processes"``
        builds its frozen shards into a transient artifact and serves it
        through a :class:`~repro.service.workers.WorkerPool`; the
        artifact is removed when the returned index is closed.
        ``spec.execution`` says where the pool's endpoints run: inline
        on the caller's thread (``"threads"``) or in ``num_workers``
        processes (default ``min(num_shards, cpu count)``).
        ``fault_policy`` tunes a process pool's deadlines / retries /
        circuit breakers, and ``fault_plan`` installs a deterministic
        chaos schedule (:mod:`repro.faults`) — all three are
        process-pool-only knobs.
        """
        if not isinstance(spec, IndexSpec):
            spec = IndexSpec.from_dict(spec)
        _refuse_pool_arguments(
            spec, num_workers=num_workers, fault_policy=fault_policy, fault_plan=fault_plan
        )
        points = check_matrix(points, name="points")
        cost_model = _resolve_cost_model(spec, points)
        if spec.num_shards > 1 or spec.execution == "processes":
            return _serve_through_pool(
                spec, points, cost_model, num_workers, fault_policy, fault_plan
            )
        return _serve_index(_build_single_index(spec, points, seed=spec.seed), spec, cost_model)

    @classmethod
    def open(
        cls,
        path: str,
        num_workers: int | None = None,
        fault_policy: FaultTolerancePolicy | None = None,
        fault_plan: FaultPlan | None = None,
        endpoints: list | None = None,
    ) -> Index:
        """Reopen an index saved by :meth:`save` (bit-identical answers).

        A spec with ``execution="processes"`` comes back behind a
        :class:`~repro.service.workers.WorkerPool` whose workers mmap
        the saved shards — no rebuild, no rehash; ``num_workers``
        overrides the pool width (default ``min(num_shards, cpus)``),
        ``fault_policy`` tunes the pool's deadlines / retries /
        breakers, ``fault_plan`` installs a deterministic chaos
        schedule.  ``endpoints`` connects the pool to standalone shard
        servers (``repro.cli shard-serve``) instead of spawning
        processes — one ``"host:port,host:port"`` replica group per
        worker slot.  A torn or truncated artifact raises
        :class:`~repro.exceptions.CorruptArtifactError`.
        """
        from repro.api.persist import open_index

        return open_index(
            path,
            num_workers=num_workers,
            fault_policy=fault_policy,
            fault_plan=fault_plan,
            endpoints=endpoints,
        )

    def save(self, path: str) -> None:
        """Persist the full index state (spec, shards, id maps, cost model)."""
        from repro.api.persist import save_index

        save_index(self, path)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of data partitions (1 for a single index)."""
        return self.engine.num_shards

    @property
    def n(self) -> int:
        """Number of served points."""
        return self.engine.n

    @property
    def dim(self) -> int:
        """Expected query dimensionality."""
        return self.engine.dim

    @property
    def cost_model(self) -> CostModel:
        """The cost model driving the per-query dispatch."""
        return self.engine.cost_model

    @property
    def execution(self) -> str:
        """Where shard endpoints run: ``"threads"`` (in this process) or
        ``"processes"``."""
        return self.spec.execution

    def reset_stats(self) -> None:
        """Zero the counters (cache contents are kept).

        The engine zeroes the counters it owns in place — a pool its
        bytes shipped, respawns, failure counters and every reachable
        endpoint's own stats; a single engine its recalibrations — so a
        snapshot right after a reset reads all-zero everywhere,
        including ``workers.*``.
        """
        self.engine.reset_stats()
        self.stats.reset()

    def enable_tracing(self, enabled: bool = True) -> None:
        """Toggle per-service stage tracing for every subsequent query.

        Traced queries attribute wall time to the named pipeline stages
        (accumulated in ``stats.stage_seconds``); answers are
        bit-identical to untraced ones.  Per-call tracing — passing a
        :class:`~repro.observability.StageTrace` straight to the
        internal batch paths — works regardless of this switch.
        """
        self._tracing = bool(enabled)

    @property
    def tracing_enabled(self) -> bool:
        """Whether per-service stage tracing is on."""
        return self._tracing

    def stats_snapshot(self) -> dict[str, object]:
        """Enriched stats document: facade counters + the engine's own.

        The engine's counters (``engine.counters()``) are copied in at
        snapshot time.  A worker pool's endpoints each keep their own
        ``ServiceStats`` (latency histogram, bytes shipped over its
        wire, the gauges of its shards), fetched via the pool's
        ``stats`` op and merged — exactly — into a ``workers``
        sub-document alongside the per-worker breakdown.
        """
        engine = self.engine
        self.stats.set_counters(engine.counters())
        doc = self.stats.as_dict()
        if engine.pool_workers:
            per_worker = engine.worker_stats()
            aggregate = ServiceStats()
            for worker_doc in per_worker:
                aggregate.merge(ServiceStats.from_dict(worker_doc))
            workers_doc = aggregate.as_dict()
            workers_doc.pop("pool_workers", None)
            doc["workers"] = {
                "aggregate": workers_doc,
                "per_worker": per_worker,
            }
        return doc

    def close(self) -> None:
        """Release the engine's resources; idempotent.

        Returns once a single index's partition helper thread has
        exited, no background re-freeze of an in-process shard is
        running and the worker pool is shut down.  A single index still
        answers afterwards, inline.
        """
        self.engine.close()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self, request: QuerySpec | np.ndarray, radius: float | None = None
    ) -> QueryResult | tuple[QueryResult, ...]:
        """Answer one :class:`~repro.api.spec.QuerySpec` (or raw vector/matrix).

        Radius requests return points within the radius; ``k`` requests
        return the exact k nearest neighbors.  A single-vector request
        returns one :class:`~repro.core.results.QueryResult`, a matrix a
        tuple of them, one per row (answered through the batched
        engine) — the engine's own frozen results, the same type on
        every execution path.

        The request's ``adaptive`` / ``target_candidates`` /
        ``quality_floor`` fields override the index's
        :class:`~repro.core.adaptive.AdaptivePolicy` for this request
        only.
        """
        if not isinstance(request, QuerySpec):
            request = QuerySpec(request, radius=radius)
        elif radius is not None:
            raise ConfigurationError(
                "pass the radius inside the QuerySpec, not alongside it"
            )
        policy = self._policy_for(request)
        if request.k is not None:  # mode == "topk"
            results = self._topk_batch(
                request.queries,
                request.k,
                allow_partial=request.allow_partial,
                policy=policy,
            )
        else:
            results = self._radius_batch(
                request.queries,
                request.radius,
                allow_partial=request.allow_partial,
                policy=policy,
            )
        if request.single:
            return results[0]
        return tuple(results)

    def insert(self, new_points: np.ndarray) -> np.ndarray:
        """Insert points; returns their ids and drops every cached answer.

        A cached entry is a query's whole answer, which a point added
        to any shard can change, so an insert that assigns ids clears
        the cache whatever the shard count.
        """
        new_points = check_matrix(new_points, dim=self.dim, name="new_points")
        ids = self.engine.insert(new_points)
        if self.cache is not None and ids.size:
            self.cache.clear()
        return ids

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _policy_for(self, request: QuerySpec) -> AdaptivePolicy | None:
        """The adaptive policy one request executes under (None = fixed).

        The index policy (``spec.adaptive``) is the base; the request's
        ``adaptive`` / ``target_candidates`` / ``quality_floor`` fields
        override it.  A request can opt *in* on an index with no policy
        (the base is then a disabled default policy) and opt *out* of an
        index-wide policy with ``adaptive=False``.  A probe budget on a
        covering index is refused (:func:`~repro.api.spec.check_probe_budget`).
        """
        base = self.spec.adaptive
        if base is None:
            if (
                request.adaptive is None
                and request.target_candidates is None
                and request.quality_floor is None
            ):
                return None
            base = AdaptivePolicy(enabled=request.adaptive is True)
        policy = base.resolve(
            request.adaptive, request.target_candidates, request.quality_floor
        )
        if not policy.enabled:
            return None
        check_probe_budget(self.spec.variant, policy)
        return policy

    def _distance_profile(self) -> DistanceProfile | None:
        """Lazily measured distance profile for radius-from-k estimation.

        Measured once, on first adaptive top-k use, from in-process
        points with the spec's seed (deterministic); ``None`` when a
        worker pool serves the points — those requests keep the exact
        top-k path.
        """
        if self._profile_ready:
            return self._profile
        points = self.engine.local_points
        if points is not None and points.shape[0] > 0:
            self._profile = measure_distance_profile(
                points,
                get_metric(self.spec.metric),
                seed=0 if self.spec.seed is None else self.spec.seed,
            )
        self._profile_ready = True
        return self._profile

    def _topk_batch(
        self,
        queries: np.ndarray,
        k: int,
        allow_partial: bool = False,
        policy: AdaptivePolicy | None = None,
    ) -> list[QueryResult]:
        started = time.perf_counter()
        trace = StageTrace() if self._tracing else None
        queries = check_matrix(queries, dim=self.dim, name="queries")
        k = check_positive_int(k, "k")
        results: list[QueryResult] | None = None
        if policy is not None and policy.enabled:
            results = self._topk_adaptive(queries, k, policy, allow_partial, trace)
        if results is None:
            results = self.engine.query_topk_batch(
                queries, k, trace=trace, allow_partial=allow_partial
            )
        self._account(results, queries.shape[0], started, trace)
        return results

    def _topk_adaptive(
        self,
        queries: np.ndarray,
        k: int,
        policy: AdaptivePolicy,
        allow_partial: bool,
        trace: StageTrace | None,
    ) -> list[QueryResult] | None:
        """Top-k through radius-from-k estimation (None = no profile).

        Estimates the radius whose ball should hold ``_K_SAFETY * k``
        points from the calibration distance profile, answers a radius
        batch, and *certifies* a row as a top-k answer when it returned
        at least ``k`` hits and either is exact by construction (linear
        scan rows) or carries the paper's ``1 - delta`` recall guarantee
        at a radius the index is tuned for and the policy's
        ``quality_floor`` accepts it.  Uncertified rows escalate the
        radius ``_MAX_ESCALATIONS`` times, then fall back to the exact
        top-k path.  With the default ``quality_floor=1.0`` only exact
        rows certify, so answers are bit-identical to the exact
        reference.
        """
        profile = self._distance_profile()
        if profile is None:
            return None
        n = self.n
        if k > n:
            raise ConfigurationError(
                f"k ({k}) must not exceed the index size ({n})"
            )
        tuned_radius = self.spec.radius
        certify_lsh = policy.quality_floor <= 1.0 - self.spec.delta
        adaptive = policy if policy.bounds_probes or policy.recalibrate else None
        num_queries = queries.shape[0]
        self.stats.record_adaptive(radius_estimates=num_queries)
        radius = profile.radius_for_k(k, n, safety=_K_SAFETY)
        final: list[QueryResult | None] = [None] * num_queries
        pending = list(range(num_queries))
        for _ in range(_MAX_ESCALATIONS + 1):
            if not pending:
                break
            rows = self.engine.query_batch(
                queries[pending], float(radius), trace=trace, adaptive=adaptive
            )
            still: list[int] = []
            for pos, row in zip(pending, rows):
                certified = (
                    row.output_size >= k
                    and not row.degraded
                    and (
                        row.stats.exact
                        or (certify_lsh and radius <= tuned_radius)
                    )
                )
                if certified:
                    final[pos] = _topk_from_radius(row, k)
                else:
                    still.append(pos)
            pending = still
            radius *= _RADIUS_GROWTH
        if pending:
            fallback = self.engine.query_topk_batch(
                queries[pending], k, trace=trace, allow_partial=allow_partial
            )
            for pos, row in zip(pending, fallback):
                final[pos] = row
        return cast("list[QueryResult]", final)

    def _radius_batch(
        self,
        queries: np.ndarray,
        radius: float | None,
        allow_partial: bool = False,
        policy: AdaptivePolicy | None = None,
    ) -> list[QueryResult]:
        started = time.perf_counter()
        trace = StageTrace() if self._tracing else None
        queries = check_matrix(queries, dim=self.dim, name="queries")
        radius = self.engine.resolve_radius(radius)
        adaptive = policy if policy is not None and policy.enabled else None
        bypass_cache = allow_partial or (
            adaptive is not None and (adaptive.bounds_probes or adaptive.recalibrate)
        )
        if self.cache is None or bypass_cache:
            # allow_partial bypasses the cache even when one is
            # configured: a degraded partial answer must never be stored
            # (it would poison later full-fidelity reads).  A policy
            # that trims probes (or mutates the cost model) bypasses it
            # too — trimmed answers must never serve fixed-budget
            # reads, and vice versa.
            results = self.engine.query_batch(
                queries,
                radius,
                trace=trace,
                allow_partial=allow_partial,
                adaptive=adaptive,
            )
        else:
            results = self._radius_batch_cached(queries, radius, trace)
        if adaptive is not None and adaptive.bounds_probes:
            self.stats.record_adaptive(probe_queries=len(results))
        self._account(results, queries.shape[0], started, trace)
        return results

    def _radius_batch_cached(
        self, queries: np.ndarray, radius: float, trace: StageTrace | None
    ) -> list[QueryResult]:
        """Cache-fronted batch: whole answers keyed on (query, radius).

        A row is a hit or a miss as a whole.  The misses go out in one
        ``engine.query_batch`` — the uncached path, traced and merged
        once per batch like any other — and in-batch duplicates of a
        missing query are answered once and shared (popular-item
        storms).
        """
        cache = self.cache
        assert cache is not None  # only called on the cache-enabled path
        results: list[QueryResult | None] = [None] * queries.shape[0]
        misses: dict[bytes, int] = {}  # key -> the row that carries it
        duplicates: list[tuple[int, int]] = []
        for i, key in enumerate(cache.make_keys(queries, radius)):
            if key in misses:
                # A batch-mate already carries this missing key: answer
                # it once and share the result.
                duplicates.append((i, misses[key]))
                continue
            results[i] = cache.get(key)
            if results[i] is None:
                misses[key] = i
        if misses:
            rows = list(misses.values())
            fresh = self.engine.query_batch(queries[rows], radius, trace=trace)
            for key, row, result in zip(misses, rows, fresh):
                cache.put(key, result)
                results[row] = result
        for i, rep in duplicates:
            results[i] = results[rep]

        self.stats.record_cache(
            hits=len(results) - len(misses) - len(duplicates),
            misses=len(misses),
            deduplicated=len(duplicates),
        )
        # Every row was filled above (hit, fresh answer, or duplicate share).
        return cast("list[QueryResult]", results)

    def _account(
        self,
        results: list[QueryResult],
        count: int,
        started: float,
        trace: StageTrace | None = None,
    ) -> None:
        strategies: dict[str, int] = {}
        degraded = 0
        for result in results:
            name = result.stats.strategy.value
            strategies[name] = strategies.get(name, 0) + 1
            if result.degraded:
                degraded += 1
        self.stats.record_batch(
            count, time.perf_counter() - started, strategies=strategies, trace=trace
        )
        if degraded:
            self.stats.record_degraded(degraded)

    def __repr__(self) -> str:
        cache = "off" if self.cache is None else f"{len(self.cache)}/{self.cache.maxsize}"
        return (
            f"Index(n={self.n}, dim={self.dim}, shards={self.num_shards}, "
            f"spec={self.spec.metric}, cache={cache})"
        )


def _topk_from_radius(row: QueryResult, k: int) -> QueryResult:
    """Select the k nearest from one certified radius answer.

    Uses the same ``(distance, id)`` lexsort tie-breaking as
    :func:`~repro.core.linear_scan.exact_topk_results` and reports the
    k-th distance as the result radius (the top-k convention), so a
    certified exact row is bit-identical to the exact reference.  The
    row's decision stats ride along unchanged — they describe the work
    that actually ran.
    """
    order = np.lexsort((row.ids, row.distances))[:k]
    ids = row.ids[order]
    distances = row.distances[order]
    return QueryResult(
        ids=ids,
        distances=distances,
        radius=float(distances[-1]),
        stats=row.stats,
        degraded=row.degraded,
        missing_shards=row.missing_shards,
    )
