"""A sharded hybrid index: partition the data, fan out, merge exactly.

:class:`ShardedHybridIndex` splits the dataset round-robin across ``K``
disjoint shards and builds one paper-configured hybrid index per shard
(in parallel, via :class:`concurrent.futures.ThreadPoolExecutor` —
index construction is dominated by numpy kernels that release the GIL).
Each shard runs Algorithm 2 independently, so the cost decision adapts
to the *shard-local* density landscape, and each shard serves batches
through its own :class:`~repro.service.batch.BatchQueryEngine`.

Merge semantics are exact because the shards partition the dataset:

* **radius** queries are the disjoint union of the per-shard answers
  (every point is examined by exactly one shard);
* **top-k** queries are answered exactly — each shard computes its
  local distances with the metric's batch kernel and the global ``k``
  smallest are selected with deterministic ``(distance, id)``
  tie-breaking, so sharded top-k equals unsharded top-k (up to the
  kernel's summation-order ulps when two candidates are near-tied).

Point ids are global: shard-local ids are translated back through the
shard's id map, and :meth:`insert` routes new points round-robin while
extending those maps — batches issued after an insert see the new
points immediately (the per-shard engines re-read their index's point
matrix on every call, the same refresh-on-insert discipline as
:meth:`repro.core.hybrid.HybridSearcher._linear_scan`).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.calibration import calibrate_cost_model
from repro.core.cost_model import CostModel
from repro.core.hybrid import HybridLSH
from repro.core.linear_scan import exact_topk_results
from repro.core.results import QueryResult, QueryStats, Strategy
from repro.distances import get_metric
from repro.distances.matrix import pairwise_distances
from repro.exceptions import ConfigurationError
from repro.observability import StageTrace, stage_timer
from repro.service.batch import BatchQueryEngine
from repro.utils.rng import RandomState, spawn_rngs
from repro.utils.validation import check_matrix, check_positive_int

__all__ = ["ShardedHybridIndex", "default_fanout_width", "merge_radius_results"]


def default_fanout_width(num_shards: int) -> int:
    """Fan-out width that respects the machine: ``min(K, cpu count)``.

    More workers than cores only adds scheduling overhead — each shard
    task is CPU-bound — and more workers than shards would sit idle.
    Shared by the thread fan-out here and the process pool in
    :mod:`repro.service.workers`.
    """
    return max(1, min(int(num_shards), os.cpu_count() or 1))


def merge_radius_results(
    shard_gids: list[np.ndarray], shard_results: list[QueryResult], radius: float
) -> QueryResult:
    """Merge one query's per-shard local radius answers into the global one.

    The shards partition the dataset, so the global answer is the
    disjoint union of the local answers with shard-local ids translated
    through the id maps; stats are summed and the strategy labelled
    :attr:`~repro.core.results.Strategy.HYBRID`.  Shared by the
    thread-pool and process-pool serving paths so both merge — and
    tie-break — identically.
    """
    ids = np.concatenate(
        [gids[res.ids] for gids, res in zip(shard_gids, shard_results)]
    )
    distances = np.concatenate([res.distances for res in shard_results])
    order = np.argsort(ids, kind="stable")
    exact = [res.stats.exact_candidates for res in shard_results]
    probes = [res.stats.probes_used for res in shard_results]
    stats = QueryStats(
        num_collisions=sum(res.stats.num_collisions for res in shard_results),
        estimated_candidates=float(
            sum(res.stats.estimated_candidates for res in shard_results)
        ),
        exact_candidates=sum(exact) if all(e >= 0 for e in exact) else -1,
        estimated_lsh_cost=float(
            sum(res.stats.estimated_lsh_cost for res in shard_results)
        ),
        linear_cost=float(sum(res.stats.linear_cost for res in shard_results)),
        strategy=Strategy.HYBRID,
        # Summed probe rings across shards (each shard probes its own
        # tables); untracked (-1) anywhere poisons the sum, like
        # exact_candidates.  The merged answer is exact only if every
        # shard's part was.
        probes_used=sum(probes) if all(p >= 0 for p in probes) else -1,
        exact=all(res.stats.exact for res in shard_results),
    )
    return QueryResult(
        ids=ids[order], distances=distances[order], radius=radius, stats=stats
    )


class ShardedHybridIndex:
    """``K`` disjoint hybrid indexes behind one query interface.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix; row ``i`` keeps the global id ``i``.
    metric:
        Metric name (``"l2"``, ``"l1"``, ``"cosine"``, ``"hamming"``,
        ``"jaccard"``).
    radius:
        Radius the per-shard indexes are tuned for (also the default
        query radius).
    num_shards:
        ``K``; must not exceed ``n``.
    num_tables / delta / hll_precision:
        Per-shard index parameters (paper defaults).
    cost_model:
        Shared :class:`~repro.core.cost_model.CostModel`; ``None``
        calibrates once on the full dataset (not per shard — alpha and
        beta are hardware constants, not data constants).
    max_workers:
        Thread-pool width for shard builds and query fan-out; the
        default is ``min(K, os.cpu_count())`` — more threads than cores
        only adds scheduling overhead for CPU-bound shard work.
    index_factory:
        Optional ``factory(shard_points, rng) -> HybridLSH`` building
        each shard from its spawned stream; the default is the spec
        builder of :class:`repro.api.Index` with the paper presets above.
        The shards serve the index it builds as is (``Index.build``'s
        factory builds frozen ones).
    seed:
        Master randomness; per-shard family draws use spawned streams.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import CostModel
    >>> rng = np.random.default_rng(0)
    >>> points = rng.normal(size=(600, 12))
    >>> sharded = ShardedHybridIndex(
    ...     points, metric="l2", radius=1.0, num_shards=3,
    ...     num_tables=6, cost_model=CostModel.from_ratio(6.0), seed=1)
    >>> int(sharded.query(points[17]).ids[0])
    17
    """

    def __init__(
        self,
        points: np.ndarray,
        metric: str,
        radius: float,
        num_shards: int = 4,
        num_tables: int = 50,
        delta: float = 0.1,
        hll_precision: int = 7,
        cost_model: CostModel | None = None,
        max_workers: int | None = None,
        seed: RandomState = None,
        estimator=None,
        dedup: str = "vectorized",
        index_factory=None,
    ) -> None:
        points = check_matrix(points, name="points")
        num_shards = check_positive_int(num_shards, "num_shards")
        n = points.shape[0]
        if num_shards > n:
            raise ConfigurationError(
                f"num_shards ({num_shards}) must not exceed the dataset size ({n})"
            )
        self.metric_name = metric
        self.metric = get_metric(metric)
        self.radius = float(radius)
        self.num_shards = num_shards
        self._max_workers = (
            max_workers if max_workers is not None else default_fanout_width(num_shards)
        )
        # Round-robin partition: shard s owns global rows s, s+K, s+2K, …
        # (balanced to within one point, and insert routing stays trivial).
        self._shard_gids = [
            np.arange(s, n, num_shards, dtype=np.int64) for s in range(num_shards)
        ]
        self._next_shard = n % num_shards
        if cost_model is None:
            cost_model = calibrate_cost_model(points, self.metric, seed=seed).model
        self.cost_model = cost_model
        shard_rngs = spawn_rngs(seed, num_shards)
        if index_factory is None:
            from repro.api.facade import _custom_shard_factory
            from repro.api.spec import IndexSpec

            spec = IndexSpec(
                metric=metric, radius=radius, num_tables=num_tables, delta=delta,
                hll_precision=hll_precision,
            )
            index_factory = _custom_shard_factory(spec, cost_model, estimator)

        def build_shard(s: int) -> HybridLSH:
            return index_factory(points[self._shard_gids[s]], shard_rngs[s])

        # One persistent pool for builds and every later fan-out; a
        # per-call pool would put K thread spawns on the serving hot
        # path.  Threads are started lazily and reaped at interpreter
        # exit; close() releases them earlier.
        self._pool = ThreadPoolExecutor(
            max_workers=self._max_workers, thread_name_prefix="repro-shard"
        )
        self.shards = list(self._pool.map(build_shard, range(num_shards)))
        self._engines = [
            BatchQueryEngine(shard.searcher, radius=radius, dedup=dedup)
            for shard in self.shards
        ]

    @classmethod
    def from_state(
        cls,
        shards: list[HybridLSH],
        shard_gids: list[np.ndarray],
        metric: str,
        radius: float,
        cost_model: CostModel,
        next_shard: int = 0,
        max_workers: int | None = None,
        dedup: str = "vectorized",
    ) -> ShardedHybridIndex:
        """Reassemble a sharded index from prebuilt per-shard searchers.

        Persistence (:meth:`repro.api.Index.open`) maps each shard's
        :class:`~repro.index.frozen.FrozenLSHIndex` from disk, wraps it via
        :meth:`~repro.core.hybrid.HybridLSH.from_index`, and hands the
        pieces here — no rehashing, so answers are bit-identical to the
        instance that was saved.
        """
        if len(shards) != len(shard_gids) or not shards:
            raise ConfigurationError(
                f"need matching non-empty shards/gid lists, got "
                f"{len(shards)}/{len(shard_gids)}"
            )
        self = cls.__new__(cls)
        self.metric_name = metric
        self.metric = get_metric(metric)
        self.radius = float(radius)
        self.num_shards = len(shards)
        self._max_workers = (
            max_workers
            if max_workers is not None
            else default_fanout_width(self.num_shards)
        )
        self._shard_gids = [np.asarray(g, dtype=np.int64) for g in shard_gids]
        self._next_shard = int(next_shard) % self.num_shards
        self.cost_model = cost_model
        self._pool = ThreadPoolExecutor(
            max_workers=self._max_workers, thread_name_prefix="repro-shard"
        )
        self.shards = list(shards)
        self._engines = [
            BatchQueryEngine(shard.searcher, radius=self.radius, dedup=dedup)
            for shard in self.shards
        ]
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Total number of indexed points across all shards."""
        return sum(shard.index.n for shard in self.shards)

    @property
    def max_workers(self) -> int:
        """The chosen fan-out width (threads serving the shard batches)."""
        return self._max_workers

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed points."""
        return self.shards[0].index.dim

    def gather_points(self) -> np.ndarray:
        """Reassemble the global ``(n, d)`` matrix (row ``i`` = id ``i``)."""
        out = np.empty((self.n, self.dim), dtype=self.shards[0].index.points.dtype)
        for gids, shard in zip(self._shard_gids, self.shards):
            out[gids] = shard.index.points
        return out

    def shard_sizes(self) -> list[int]:
        """Current per-shard point counts."""
        return [shard.index.n for shard in self.shards]

    @property
    def recalibrations(self) -> int:
        """Completed cost-model updates summed over the shard engines."""
        return sum(engine.recalibrations for engine in self._engines)

    def _resolve_radius(self, radius: float | None) -> float:
        return self.radius if radius is None else float(radius)

    def _fan_out(self, work, count: int) -> list:
        """Run ``work(s)`` for every shard on the persistent pool."""
        return list(self._pool.map(work, range(count)))

    def map_shards(self, work) -> list:
        """Run ``work(s)`` for every shard index ``s`` on the thread pool.

        The facade's per-shard cache layer uses this to compute only the
        missing shards' partial answers in parallel.
        """
        return self._fan_out(work, self.num_shards)

    def shard_query_batch(
        self, shard: int, queries: np.ndarray, radius: float, adaptive=None
    ) -> list[QueryResult]:
        """One shard's *local* radius answers (ids are shard-local).

        Feed the per-shard results of all shards to :meth:`merge_radius`
        to obtain the global answer; cached partials from unaffected
        shards stay valid across inserts because the shard id maps only
        ever grow.
        """
        return self._engines[shard].query_batch(queries, radius, adaptive=adaptive)

    def merge_radius(
        self, shard_results: list[QueryResult], radius: float
    ) -> QueryResult:
        """Merge one query's per-shard local results into the global answer."""
        return self._merge_radius(shard_results, radius)

    def peek_assignment(self, count: int) -> np.ndarray:
        """Shard ids the next ``count`` inserted points would be routed to."""
        return (self._next_shard + np.arange(count)) % self.num_shards

    def close(self) -> None:
        """Shut down the fan-out pool and wait out any background
        re-freeze of a shard (idempotent)."""
        self._pool.shutdown(wait=True)
        for shard in self.shards:
            shard.index.wait_for_refreeze()

    # ------------------------------------------------------------------
    # Radius queries
    # ------------------------------------------------------------------
    def query(self, query: np.ndarray, radius: float | None = None) -> QueryResult:
        """Answer one rNNR query across all shards."""
        return self.query_batch(np.asarray(query)[None, :], radius)[0]

    def query_batch(
        self,
        queries: np.ndarray,
        radius: float | None = None,
        trace: StageTrace | None = None,
        allow_partial: bool = False,
        adaptive=None,
    ) -> list[QueryResult]:
        """Answer a ``(q, d)`` matrix; per-shard batches run on the pool.

        ``allow_partial`` is accepted for surface parity with the
        process pool and ignored: thread-fan-out shards live in this
        process and cannot fail independently of it.

        Each merged result carries global ids sorted ascending — the
        disjoint union of the shard answers — and aggregate stats
        (collision counts and costs summed over shards, strategy
        labelled :attr:`~repro.core.results.Strategy.HYBRID`).

        With ``trace``, every shard accumulates into its *own*
        :class:`~repro.observability.StageTrace` (the hot path stays
        lock-free) and the per-shard traces are folded in afterwards —
        so stage seconds are summed CPU attribution across shards and
        may exceed the batch's wall time under parallel fan-out.
        """
        radius = self._resolve_radius(radius)
        queries = check_matrix(queries, dim=self.dim, name="queries")
        shard_traces = (
            [StageTrace() for _ in range(self.num_shards)] if trace is not None else None
        )
        per_shard = self._fan_out(
            lambda s: self._engines[s].query_batch(
                queries,
                radius,
                trace=None if shard_traces is None else shard_traces[s],
                adaptive=adaptive,
            ),
            self.num_shards,
        )
        if shard_traces is not None:
            for shard_trace in shard_traces:
                trace.merge(shard_trace)
        with stage_timer(trace, "merge"):
            return [
                self._merge_radius([shard_results[qi] for shard_results in per_shard], radius)
                for qi in range(queries.shape[0])
            ]

    def _merge_radius(self, shard_results: list[QueryResult], radius: float) -> QueryResult:
        return merge_radius_results(self._shard_gids, shard_results, radius)

    # ------------------------------------------------------------------
    # Top-k queries (exact)
    # ------------------------------------------------------------------
    def query_topk(self, query: np.ndarray, k: int) -> QueryResult:
        """Exact k-nearest-neighbors of one query (see :meth:`query_topk_batch`)."""
        return self.query_topk_batch(np.asarray(query)[None, :], k)[0]

    def query_topk_batch(
        self,
        queries: np.ndarray,
        k: int,
        trace: StageTrace | None = None,
        allow_partial: bool = False,
    ) -> list[QueryResult]:
        """Exact k-NN for a query matrix, merged across shards.

        ``allow_partial`` is accepted for surface parity with the
        process pool and ignored (in-process shards cannot fail
        independently).

        Every shard computes its local distance block with the metric's
        batch kernel; the global ``k`` smallest per query are selected
        with ``(distance, id)`` tie-breaking.  Results are ordered by
        ascending distance (ties by id) — *not* by id like radius
        results — and ``result.radius`` reports the k-th distance.
        """
        k = check_positive_int(k, "k")
        queries = check_matrix(queries, dim=self.dim, name="queries")
        if k > self.n:
            raise ConfigurationError(f"k ({k}) must not exceed the index size ({self.n})")
        with stage_timer(trace, "linear"):
            blocks = self._fan_out(
                lambda s: pairwise_distances(queries, self.shards[s].index.points, self.metric),
                self.num_shards,
            )
        with stage_timer(trace, "merge"):
            return exact_topk_results(np.concatenate(self._shard_gids), blocks, k, self.n)

    # ------------------------------------------------------------------
    # Incremental inserts
    # ------------------------------------------------------------------
    def insert(self, new_points: np.ndarray) -> np.ndarray:
        """Insert points, routing them round-robin across the shards.

        Returns the assigned global ids (``n .. n + m - 1``).  The next
        query — single, batched, or top-k — sees the new points: the
        per-shard id maps are extended here and the shard engines read
        their index's point matrix afresh on every call.
        """
        new_points = check_matrix(new_points, dim=self.dim, name="new_points")
        m = new_points.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.int64)
        start = self.n
        global_ids = np.arange(start, start + m, dtype=np.int64)
        assignment = (self._next_shard + np.arange(m)) % self.num_shards
        for s in range(self.num_shards):
            rows = np.flatnonzero(assignment == s)
            if rows.size == 0:
                continue
            self.shards[s].index.insert(new_points[rows])
            self._shard_gids[s] = np.concatenate([self._shard_gids[s], global_ids[rows]])
        self._next_shard = (self._next_shard + m) % self.num_shards
        return global_ids

    def __repr__(self) -> str:
        return (
            f"ShardedHybridIndex(K={self.num_shards}, n={self.n}, "
            f"dim={self.dim}, metric={self.metric_name}, r={self.radius})"
        )
