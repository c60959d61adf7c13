"""The ``Index`` facade: one spec-driven front door for every workload.

:class:`Index` is the package's serving surface:

* :meth:`Index.build` consumes an :class:`~repro.api.spec.IndexSpec`
  and assembles the right engine underneath (batched single index,
  sharded thread fan-out or worker-process pool), the cost model (fixed
  ratio or timing-calibrated), the ``candSize`` estimator (resolved
  from the estimator registry), and the optional result cache;
* :meth:`Index.query` answers a :class:`~repro.api.spec.QuerySpec` —
  radius, exact top-k, single or batch — through one method, returning
  a :class:`~repro.api.outcome.QueryOutcome` /
  :class:`~repro.api.outcome.BatchOutcome`;
* :meth:`Index.insert` routes new points in and invalidates only the
  affected shards' cache entries (the cache stores per-shard partial
  answers under shard-tagged keys);
* :meth:`Index.save` / :meth:`Index.open` persist everything —
  per-shard tables and sketches, shard id maps, the spec, and the
  calibrated cost model — so a process restart never rebuilds.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import Any, cast

import numpy as np

from repro.api.outcome import BatchOutcome, QueryOutcome
from repro.api.spec import IndexSpec, QuerySpec
from repro.core.adaptive import AdaptivePolicy
from repro.core.calibration import (
    DistanceProfile,
    calibrate_cost_model,
    measure_distance_profile,
)
from repro.core.cost_model import CostModel
from repro.core.hybrid import HybridLSH, HybridSearcher
from repro.core.presets import _PSTABLE_PRESETS, paper_parameters
from repro.core.linear_scan import exact_topk_results
from repro.core.results import QueryResult
from repro.distances import get_metric
from repro.distances.matrix import pairwise_distances
from repro.exceptions import ConfigurationError
from repro.faults import FaultPlan, FaultTolerancePolicy
from repro.hashing.base import family_for_metric, get_family
from repro.hashing.params import concatenation_width
from repro.index.lsh_index import LSHIndex
from repro.observability import StageTrace, stage_timer
from repro.service.batch import BatchQueryEngine
from repro.service.cache import QueryResultCache
from repro.service.sharded import ShardedHybridIndex
from repro.service.stats import ServiceStats
from repro.sketches.registry import get_estimator
from repro.utils.validation import check_matrix, check_positive_int

__all__ = ["Index", "ServiceStats"]


class _SingleBackend:
    """Adapter presenting a :class:`BatchQueryEngine` as a 1-shard backend."""

    kind = "single"

    def __init__(self, engine: BatchQueryEngine) -> None:
        self.engine = engine

    @property
    def num_partitions(self) -> int:
        return 1

    @property
    def n(self) -> int:
        return self.engine.n

    @property
    def dim(self) -> int:
        return self.engine.dim

    def resolve_radius(self, radius: float | None) -> float:
        return self.engine._resolve_radius(radius)

    def query_batch(
        self,
        queries: np.ndarray,
        radius: float,
        trace: StageTrace | None = None,
        allow_partial: bool = False,
        adaptive: AdaptivePolicy | None = None,
    ) -> list[QueryResult]:
        # A single in-process engine has no independently failing shards
        # — ``allow_partial`` is accepted for surface parity and ignored.
        return self.engine.query_batch(queries, radius, trace=trace, adaptive=adaptive)

    def shard_query_batch(
        self,
        shard: int,
        queries: np.ndarray,
        radius: float,
        adaptive: AdaptivePolicy | None = None,
    ) -> list[QueryResult]:
        return self.engine.query_batch(queries, radius, adaptive=adaptive)

    def merge(self, parts: list[QueryResult], radius: float) -> QueryResult:
        return parts[0]

    def map_shards(
        self, work: Callable[[int], list[QueryResult]]
    ) -> list[list[QueryResult]]:
        return [work(0)]

    def topk_batch(
        self,
        queries: np.ndarray,
        k: int,
        trace: StageTrace | None = None,
        allow_partial: bool = False,
    ) -> list[QueryResult]:
        index = self.engine.index
        if k > index.n:
            raise ConfigurationError(f"k ({k}) must not exceed the index size ({index.n})")
        with stage_timer(trace, "linear"):
            block = pairwise_distances(queries, index.points, index.family.metric)
        with stage_timer(trace, "merge"):
            return exact_topk_results(
                np.arange(index.n, dtype=np.int64), [block], k, index.n
            )

    def insert(self, new_points: np.ndarray) -> tuple[np.ndarray, set[int]]:
        ids = self.engine.insert(new_points)
        return ids, ({0} if ids.size else set())

    @property
    def recalibrations(self) -> int:
        return int(self.engine.recalibrations)

    def close(self) -> None:
        pass


class _ShardedBackend:
    """Adapter presenting a K-shard engine as a backend.

    Works for both partitioned engines — the thread fan-out
    (:class:`ShardedHybridIndex`) and the process pool
    (:class:`~repro.service.workers.WorkerPool`) — because they share
    one query/insert surface.
    """

    def __init__(self, sharded: Any) -> None:
        self.engine = sharded
        self.kind = getattr(sharded, "kind", "sharded")

    @property
    def num_partitions(self) -> int:
        return self.engine.num_shards

    @property
    def n(self) -> int:
        return self.engine.n

    @property
    def dim(self) -> int:
        return self.engine.dim

    def resolve_radius(self, radius: float | None) -> float:
        return self.engine._resolve_radius(radius)

    def query_batch(
        self,
        queries: np.ndarray,
        radius: float,
        trace: StageTrace | None = None,
        allow_partial: bool = False,
        adaptive: AdaptivePolicy | None = None,
    ) -> list[QueryResult]:
        return self.engine.query_batch(
            queries, radius, trace=trace, allow_partial=allow_partial,
            adaptive=adaptive,
        )

    def shard_query_batch(
        self,
        shard: int,
        queries: np.ndarray,
        radius: float,
        adaptive: AdaptivePolicy | None = None,
    ) -> list[QueryResult]:
        return self.engine.shard_query_batch(shard, queries, radius, adaptive=adaptive)

    def merge(self, parts: list[QueryResult], radius: float) -> QueryResult:
        return self.engine.merge_radius(parts, radius)

    def map_shards(
        self, work: Callable[[int], list[QueryResult]]
    ) -> list[list[QueryResult]]:
        return self.engine.map_shards(work)

    def topk_batch(
        self,
        queries: np.ndarray,
        k: int,
        trace: StageTrace | None = None,
        allow_partial: bool = False,
    ) -> list[QueryResult]:
        return self.engine.query_topk_batch(
            queries, k, trace=trace, allow_partial=allow_partial
        )

    def insert(self, new_points: np.ndarray) -> tuple[np.ndarray, set[int]]:
        affected = set(int(s) for s in self.engine.peek_assignment(new_points.shape[0]))
        ids = self.engine.insert(new_points)
        return ids, (affected if ids.size else set())

    @property
    def recalibrations(self) -> int:
        # Worker pools recalibrate inside the worker processes; the
        # parent-side engine then has no counter of its own.
        return int(getattr(self.engine, "recalibrations", 0))

    def close(self) -> None:
        self.engine.close()


def _resolve_estimator(spec: IndexSpec) -> Any:
    """Spec estimator name -> searcher argument.

    The *built-in* HLL estimator maps to ``None`` so the searcher keeps
    the vectorised batch sketch merge (the paper's path, bit-identical
    and fastest); any other registration — including a user-replaced
    ``"hll"`` — is honoured as the callable the registry resolves.
    """
    from repro.sketches.registry import _hll_estimate

    estimator = get_estimator(spec.estimator)
    if estimator is _hll_estimate:
        return None
    return estimator


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


def _spec_is_shard_customised(spec: IndexSpec) -> bool:
    """Whether a sharded build needs the spec-driven per-shard factory.

    The paper-preset fields route through :class:`HybridLSH` directly
    (the :func:`~repro.core.presets.paper_parameters` draws); anything
    beyond them — named family, explicit ``k``/width/params, lazy
    threshold, sketch seed — builds each shard through
    :func:`_build_single_index`.
    """
    return bool(
        spec.k is not None
        or spec.hash_family is not None
        or spec.bucket_width is not None
        or spec.family_params
        or spec.lazy_threshold is not None
        or spec.hll_seed
        or spec.variant != "plain"
    )


def _build_single_index(spec: IndexSpec, points: np.ndarray, seed: Any, freeze: bool) -> Any:
    """Build one (possibly customised) index as the spec describes it.

    ``variant`` selects the index class: ``"plain"`` and
    ``"multiprobe"`` share the family/``k`` resolution above;
    ``"covering"`` derives its ``r + 1`` block tables from the spec
    radius instead of drawing a hash family.  Either layout
    (``freeze=True`` -> the variant's frozen CSR counterpart) answers
    bit-identically to its dict-layout twin.
    """
    if spec.variant == "covering":
        from repro.index.covering import CoveringLSHIndex

        index = CoveringLSHIndex(
            dim=points.shape[1],
            radius=int(spec.radius),
            hll_precision=spec.hll_precision,
            hll_seed=spec.hll_seed,
            lazy_threshold=spec.lazy_threshold,
            seed=seed,
        ).build(points)
    else:
        family, k = _resolve_family_and_k(spec, points.shape[1], seed=seed)
        kwargs = dict(
            k=k,
            num_tables=spec.num_tables,
            hll_precision=spec.hll_precision,
            hll_seed=spec.hll_seed,
            lazy_threshold=spec.lazy_threshold,
        )
        if spec.variant == "multiprobe":
            from repro.index.multiprobe_index import MultiProbeLSHIndex

            index = MultiProbeLSHIndex(
                family, num_probes=spec.num_probes, **kwargs
            ).build(points)
        else:
            index = LSHIndex(family, **kwargs).build(points)
    if freeze:
        index = index.freeze()
    return index


def _custom_shard_factory(
    spec: IndexSpec, cost_model: CostModel, estimator: Any
) -> Callable[[np.ndarray, Any], HybridLSH]:
    """``factory(shard_points, rng) -> HybridLSH`` for customised shards.

    Mirrors the single-index build path per shard, with the shard's
    spawned randomness driving the family draw; freezing (when the spec
    asks for it) stays in :class:`ShardedHybridIndex`'s build step.
    """

    def factory(shard_points: np.ndarray, rng: Any) -> HybridLSH:
        index = _build_single_index(spec, shard_points, seed=rng, freeze=False)
        return HybridLSH.from_index(
            index, spec.radius, cost_model, delta=spec.delta, estimator=estimator
        )

    return factory


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

    def __init__(
        self,
        backend: Any,
        spec: IndexSpec,
        cache: QueryResultCache | None = None,
    ) -> None:
        self._backend = backend
        self.spec = spec
        self.cache = cache
        self.stats = ServiceStats(pool_workers=_fanout_width_of(backend))
        self._tracing = False
        # Lazily measured distance profile for radius-from-k estimation
        # (None when the backend has no in-process points to sample).
        self._profile: DistanceProfile | None = None
        self._profile_ready = False
        # Pool-lifetime counter values captured at the last reset_stats,
        # so snapshots after a reset report deltas, not lifetime totals.
        self._transport_baseline: dict[str, Any] | None = None
        self._recalibration_baseline = 0
        _register_gauge_hooks(self.stats, backend)

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

        ``execution="processes"`` builds the sharded frozen index, saves
        it to a transient artifact, and serves it through a
        :class:`~repro.service.workers.WorkerPool` of ``num_workers``
        processes (default ``min(num_shards, cpu count)``); the artifact
        is removed when the returned index is closed.  ``fault_policy``
        tunes that pool's deadlines / retries / circuit breakers, and
        ``fault_plan`` installs a deterministic chaos schedule
        (:mod:`repro.faults`) — both are process-pool-only knobs.
        """
        if not isinstance(spec, IndexSpec):
            spec = IndexSpec.from_dict(spec)
        if spec.execution != "processes":
            # Mirror Index.open: dropping the arguments silently would
            # let the caller believe they configured a process pool.
            if num_workers is not None:
                raise ConfigurationError(
                    'num_workers applies to execution="processes" specs only; '
                    f"this spec has execution={spec.execution!r}"
                )
            if fault_policy is not None or fault_plan is not None:
                raise ConfigurationError(
                    'fault_policy/fault_plan apply to execution="processes" '
                    f"specs only; this spec has execution={spec.execution!r}"
                )
        points = check_matrix(points, name="points")
        cost_model = _resolve_cost_model(spec, points)
        estimator = _resolve_estimator(spec)
        backend: _ShardedBackend | _SingleBackend
        if spec.num_shards > 1:
            factory = (
                _custom_shard_factory(spec, cost_model, estimator)
                if _spec_is_shard_customised(spec)
                else None
            )
            sharded = ShardedHybridIndex(
                points,
                metric=spec.metric,
                radius=spec.radius,
                num_shards=spec.num_shards,
                num_tables=spec.num_tables,
                delta=spec.delta,
                hll_precision=spec.hll_precision,
                cost_model=cost_model,
                seed=spec.seed,
                estimator=estimator,
                dedup=spec.dedup,
                layout=spec.layout,
                index_factory=factory,
            )
            backend = _ShardedBackend(sharded)
        else:
            index = _build_single_index(
                spec, points, seed=spec.seed, freeze=spec.layout == "frozen"
            )
            searcher = HybridSearcher(index, cost_model, estimator=estimator)
            backend = _SingleBackend(
                BatchQueryEngine(searcher, radius=spec.radius, dedup=spec.dedup)
            )
        built = cls(backend, spec=spec, cache=_cache_from_spec(spec))
        if spec.execution == "processes":
            return _as_process_pool(
                built,
                num_workers=num_workers,
                fault_policy=fault_policy,
                fault_plan=fault_plan,
            )
        return built

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
    def engine(self) -> Any:
        """The underlying engine (batched single index or sharded fan-out)."""
        return self._backend.engine

    @property
    def num_shards(self) -> int:
        """Number of data partitions (1 for a single index)."""
        return self._backend.num_partitions

    @property
    def n(self) -> int:
        """Number of served points."""
        return self._backend.n

    @property
    def dim(self) -> int:
        """Expected query dimensionality."""
        return self._backend.dim

    @property
    def cost_model(self) -> CostModel:
        """The cost model driving the per-query dispatch."""
        engine = self._backend.engine
        searcher = getattr(engine, "searcher", None)
        if searcher is not None:
            return searcher.cost_model
        return engine.cost_model  # sharded fan-out / worker pool

    @property
    def execution(self) -> str:
        """How shard work fans out: ``"threads"`` or ``"processes"``."""
        return "processes" if self._backend.kind == "processes" else "threads"

    def reset_stats(self) -> None:
        """Zero the counters (cache contents are kept).

        Pool-lifetime counters owned by a process-pool backend — pipe
        bytes, respawns, the failure counters — cannot be zeroed in
        place (the pool keeps accumulating), so their current values are
        captured as a baseline that :meth:`stats_snapshot` subtracts;
        worker-local stats are reset in the workers themselves via the
        pool's ``reset`` op.  A snapshot right after a reset therefore
        reads all-zero everywhere, including ``workers.*``.
        """
        pool = self._backend.engine if self._backend.kind == "processes" else None
        if pool is not None:
            if hasattr(pool, "reset_worker_stats"):
                pool.reset_worker_stats()
            failure = pool.failure_counters()
            self._transport_baseline = {
                "bytes_shipped": int(pool.bytes_shipped),
                "worker_respawns": int(pool.respawns),
                "worker_timeouts": int(failure["worker_timeouts"]),
                "worker_retries": int(failure["worker_retries"]),
                "breaker_opens": int(failure["breaker_opens"]),
                "replica_failovers": int(failure.get("replica_failovers", 0)),
                "respawns_by_cause": dict(failure["respawns_by_cause"]),
            }
        self._recalibration_baseline = self._backend_recalibrations()
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
        """Enriched stats document: facade counters + live worker stats.

        For a process-pool backend, each worker's own ``ServiceStats``
        (latency histogram, bytes shipped over its pipe, its gauges) is
        fetched via the pool's ``stats`` op and merged — exactly — into
        a ``workers`` sub-document alongside the per-worker breakdown.
        """
        pool = self._backend.engine if self._backend.kind == "processes" else None
        if pool is not None:
            # Pipes, respawns and the failure counters are parent-side
            # pool-lifetime counters; sync them into the facade stats at
            # snapshot time, net of the last reset_stats baseline.
            failure = pool.failure_counters()
            base = self._transport_baseline or {}
            base_causes = base.get("respawns_by_cause") or {}
            causes = {
                str(cause): max(0, int(n) - int(base_causes.get(cause, 0)))
                for cause, n in failure["respawns_by_cause"].items()
            }
            self.stats.set_transport(
                max(0, int(pool.bytes_shipped) - int(base.get("bytes_shipped", 0))),
                max(0, int(pool.respawns) - int(base.get("worker_respawns", 0))),
                worker_timeouts=max(
                    0,
                    int(failure["worker_timeouts"])
                    - int(base.get("worker_timeouts", 0)),
                ),
                worker_retries=max(
                    0,
                    int(failure["worker_retries"])
                    - int(base.get("worker_retries", 0)),
                ),
                breaker_opens=max(
                    0,
                    int(failure["breaker_opens"]) - int(base.get("breaker_opens", 0)),
                ),
                replica_failovers=max(
                    0,
                    int(failure.get("replica_failovers", 0))
                    - int(base.get("replica_failovers", 0)),
                ),
                respawns_by_cause={k: v for k, v in causes.items() if v},
            )
        self.stats.set_recalibrations(
            max(0, self._backend_recalibrations() - self._recalibration_baseline)
        )
        doc = self.stats.as_dict()
        if pool is not None and hasattr(pool, "worker_stats"):
            per_worker = pool.worker_stats()
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
        """Release backend resources (sharded thread pool); idempotent."""
        self._backend.close()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self, request: QuerySpec | np.ndarray, radius: float | None = None
    ) -> QueryOutcome | BatchOutcome:
        """Answer one :class:`~repro.api.spec.QuerySpec` (or raw vector/matrix).

        Radius requests return points within the radius; ``k`` requests
        return the exact k nearest neighbors.  A single-vector request
        returns one :class:`~repro.api.outcome.QueryOutcome`, a matrix a
        :class:`~repro.api.outcome.BatchOutcome` (answered through the
        batched engine) — the same envelope on every execution path.

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
        outcomes = tuple(QueryOutcome.from_result(r) for r in results)
        return outcomes[0] if request.single else BatchOutcome(outcomes)

    def insert(self, new_points: np.ndarray) -> np.ndarray:
        """Insert points; only the receiving shards' cache entries drop.

        Cache keys are tagged with the shard whose partial answer they
        hold, so entries for untouched shards stay hot across inserts.
        """
        new_points = check_matrix(new_points, dim=self.dim, name="new_points")
        ids, affected_shards = self._backend.insert(new_points)
        if self.cache is not None and ids.size:
            for shard in affected_shards:
                self.cache.invalidate_shard(shard)
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
        index-wide policy with ``adaptive=False``.
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
        return policy if policy.enabled else None

    def _backend_recalibrations(self) -> int:
        """Live recalibration total summed over the backend's engines."""
        return int(getattr(self._backend, "recalibrations", 0))

    def _profile_points(self) -> np.ndarray | None:
        """A point sample reachable in-process (None for worker pools)."""
        engine = self._backend.engine
        index = getattr(engine, "index", None)
        if index is not None:  # BatchQueryEngine
            return cast("np.ndarray", index.points)
        shards = getattr(engine, "shards", None)
        if shards:  # ShardedHybridIndex: round-robin partition, so any
            # one shard is an unbiased sample of the dataset.
            return cast("np.ndarray", shards[0].index.points)
        return None

    def _distance_profile(self) -> DistanceProfile | None:
        """Lazily measured distance profile for radius-from-k estimation.

        Measured once, on first adaptive top-k use, from in-process
        points with the spec's seed (deterministic); ``None`` when the
        backend ships its points to worker processes — those requests
        keep the exact top-k path.
        """
        if self._profile_ready:
            return self._profile
        points = self._profile_points()
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
            results = self._backend.topk_batch(
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
            rows = self._backend.query_batch(
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
            fallback = self._backend.topk_batch(
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
        radius = self._backend.resolve_radius(radius)
        adaptive = policy if policy is not None and policy.enabled else None
        bypass_cache = allow_partial or (
            adaptive is not None and (adaptive.bounds_probes or adaptive.recalibrate)
        )
        if self.cache is None or bypass_cache:
            # allow_partial bypasses the cache even when one is
            # configured: a degraded partial answer must never be stored
            # (it would poison later full-fidelity reads) and per-shard
            # cache assembly cannot express missing shards.  A policy
            # that trims probes (or mutates the cost model) bypasses it
            # too — trimmed partials must never serve fixed-budget
            # reads, and vice versa.
            results = self._backend.query_batch(
                queries,
                radius,
                trace=trace,
                allow_partial=allow_partial,
                adaptive=adaptive,
            )
        else:
            # The cache path fans out per shard through map_shards; its
            # engine work is accounted in the batch latency but not
            # attributed to stages (the trace stays empty here).
            results = self._radius_batch_cached(queries, radius)
        if adaptive is not None and adaptive.bounds_probes:
            self.stats.record_adaptive(probe_queries=len(results))
        self._account(results, queries.shape[0], started, trace)
        return results

    def _radius_batch_cached(
        self, queries: np.ndarray, radius: float
    ) -> list[QueryResult]:
        """Cache-fronted batch: per-shard partials under shard-tagged keys.

        A query's answer is the merge of ``K`` shard partials; each
        partial is cached under its own shard tag, so a query after an
        insert recomputes only the shards the insert touched.  In-batch
        duplicates of a missing query are answered once and shared
        (popular-item storms).
        """
        cache = self.cache
        assert cache is not None  # only called on the cache-enabled path
        num_shards = self._backend.num_partitions
        num_queries = queries.shape[0]
        results: list[QueryResult | None] = [None] * num_queries
        base_keys = [cache.make_key(q, radius) for q in queries]
        miss_rep: dict[bytes, int] = {}
        duplicates: list[tuple[int, int]] = []
        parts_by_row: dict[int, list[QueryResult | None]] = {}
        shard_miss_rows: list[list[int]] = [[] for _ in range(num_shards)]
        hits = 0
        for i, base in enumerate(base_keys):
            if base in miss_rep:
                # A batch-mate already carries this missing key: answer
                # it once and share the result, without touching the
                # store's hit/miss counters.
                duplicates.append((i, miss_rep[base]))
                continue
            parts = [
                cache.get(base if s == 0 else cache.retag_key(base, s))
                for s in range(num_shards)
            ]
            missing = [s for s, part in enumerate(parts) if part is None]
            if not missing:
                results[i] = self._backend.merge(parts, radius)
                hits += 1
            else:
                miss_rep[base] = i
                parts_by_row[i] = parts
                for s in missing:
                    shard_miss_rows[s].append(i)

        if parts_by_row:

            def work(shard: int) -> list[QueryResult]:
                rows = shard_miss_rows[shard]
                if not rows:
                    return []
                return self._backend.shard_query_batch(shard, queries[rows], radius)

            fresh = self._backend.map_shards(work)
            for s in range(num_shards):
                for row, part in zip(shard_miss_rows[s], fresh[s]):
                    parts_by_row[row][s] = part
                    key = base_keys[row] if s == 0 else cache.retag_key(base_keys[row], s)
                    cache.put(key, part)
            for row, parts in parts_by_row.items():
                results[row] = self._backend.merge(parts, radius)
        for i, rep in duplicates:
            results[i] = results[rep]

        self.stats.record_cache(
            hits=hits, misses=len(parts_by_row), deduplicated=len(duplicates)
        )
        # Every row was filled above (hit, fresh merge, or duplicate share).
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


def _cache_from_spec(spec: IndexSpec) -> QueryResultCache | None:
    if spec.cache_size <= 0:
        return None
    return QueryResultCache(maxsize=spec.cache_size, quantum=spec.cache_quantum)


def _frozen_indexes_of(backend: Any) -> list[Any]:
    """Frozen indexes reachable in-process from ``backend`` (may be [])."""
    engine = getattr(backend, "engine", None)
    if engine is None:
        return []
    if isinstance(engine, BatchQueryEngine):
        candidates = [engine.index]
    else:
        candidates = [eng.index for eng in getattr(engine, "_engines", [])]
    # Duck-typed so both FrozenLSHIndex and the frozen covering layout
    # qualify; a worker pool has no in-process indexes (its workers ship
    # these gauges back through the ``stats`` op instead).
    return [ix for ix in candidates if hasattr(ix, "overflow_count") and hasattr(ix, "refreeze_count")]


def _register_gauge_hooks(stats: ServiceStats, backend: Any) -> None:
    """Wire live backend gauges into the stats object.

    Frozen layouts expose their overflow size (points in live runs) and background
    re-freeze counters; hooks read the *current* values at snapshot
    time, so the gauges track inserts and re-freezes without the stats
    layer polling anything.
    """
    engine = getattr(backend, "engine", None)
    if hasattr(engine, "open_breaker_count"):
        counter = engine.open_breaker_count
        stats.gauge_hooks["breaker_open_workers"] = lambda: float(counter())
    indexes = _frozen_indexes_of(backend)
    if not indexes:
        return
    stats.gauge_hooks["overflow_points"] = lambda: float(
        sum(ix.overflow_count for ix in indexes)
    )
    stats.gauge_hooks["refreeze_generations"] = lambda: float(
        sum(ix.refreeze_count for ix in indexes)
    )
    stats.gauge_hooks["refreeze_seconds_total"] = lambda: float(
        sum(ix.refreeze_seconds_total for ix in indexes)
    )
    stats.gauge_hooks["last_refreeze_seconds"] = lambda: float(
        max((ix.last_refreeze_seconds for ix in indexes), default=0.0)
    )


def _fanout_width_of(backend: Any) -> int:
    """The chosen shard fan-out width (0 for an unpartitioned engine)."""
    engine = getattr(backend, "engine", None)
    width = getattr(engine, "num_workers", None)  # process pool
    if width is None:
        width = getattr(engine, "max_workers", None)  # thread fan-out
    return int(width) if width else 0


def _as_process_pool(
    index: Index,
    num_workers: int | None = None,
    fault_policy: FaultTolerancePolicy | None = None,
    fault_plan: FaultPlan | None = None,
) -> Index:
    """Re-serve a freshly built sharded frozen index through a WorkerPool.

    Saves the index to a transient artifact (the workers' mmap source),
    releases the thread-backed engine, and opens the pool over it; the
    artifact is deleted when the returned index is closed.
    """
    import tempfile

    from repro.api.persist import save_index
    from repro.service.workers import WorkerPool

    path = tempfile.mkdtemp(prefix="repro-worker-pool-")
    try:
        save_index(index, path)
    except BaseException:
        import shutil

        shutil.rmtree(path, ignore_errors=True)
        raise
    finally:
        index.close()
    pool = WorkerPool(
        path,
        num_workers=num_workers,
        owns_path=True,
        policy=fault_policy,
        fault_plan=fault_plan,
        replicas=index.spec.replicas,
    )
    return Index(
        _ShardedBackend(pool), spec=index.spec, cache=_cache_from_spec(index.spec)
    )
