"""The batched query engine — the serving-side face of Algorithm 2.

:class:`BatchQueryEngine` wraps a :class:`~repro.core.hybrid.HybridSearcher`
over a frozen index and answers whole query matrices:

* Step S1 is one fused hashing kernel call for the entire batch
  (:meth:`~repro.index.frozen.FrozenLSHIndex.lookup_batch`);
* the cost decision of Algorithm 2 is still made *per query* — that is
  the paper's contribution and is preserved exactly;
* every query the model sends to linear search joins one
  :meth:`~repro.core.linear_scan.LinearScan.query_batch` pass (one
  prepared-kernel row per query);
* the queries it sends to LSH search run Steps S2 and S3 once for the
  batch: rows of at most ``n / 8`` collisions dedup in one sort, and
  blocks of up to 256 KiB of candidates filter in one distance pass.

Every row's answer is bit-identical to the query answered alone; the
batch only removes per-query Python overhead.

An unsharded :class:`repro.api.Index` calls its engine directly: the
engine presents the same surface as the
:class:`~repro.service.workers.WorkerPool` that serves a sharded one —
it is shard 0 of 1, its local ids are global, and it owns its counters,
gauges and shutdown.  The engine builds nothing:
:meth:`repro.api.Index.build` (or :meth:`~repro.api.Index.open`) wraps
the searcher of the index it built (or mapped), and ``index.engine`` is
it; every endpoint of a worker pool serves one engine per shard.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.adaptive import AdaptivePolicy, CostModelTuner
from repro.core.cost_model import CostModel
from repro.core.hybrid import HybridSearcher
from repro.core.linear_scan import exact_topk_results
from repro.core.results import STRATEGY_CODES, QueryResult, ResultBlock, Strategy
from repro.distances.matrix import pairwise_distances
from repro.exceptions import ConfigurationError
from repro.index.frozen import save_frozen_index
from repro.observability import StageTrace, stage_timer

__all__ = ["BatchQueryEngine"]


class BatchQueryEngine:
    """Batched front-end over a hybrid searcher.

    Parameters
    ----------
    searcher:
        The :class:`~repro.core.hybrid.HybridSearcher` to serve from.
        A searcher with a ``partition_helper`` runs a batch's linear
        rows on it; :meth:`close` joins it.
    radius:
        Default query radius (``None`` forces callers to pass one).
    dedup:
        Step-S2 deduplication used for LSH-bound queries; the default
        ``"vectorized"`` is the serving-appropriate implementation and
        returns the identical candidate sets as ``"scalar"``.

    Notes
    -----
    The engine never caches the data matrix: every batch re-reads
    ``searcher.index.points`` through the searcher's refresh-on-insert
    path (:meth:`HybridSearcher._linear_scan`), so answers always see
    points added by :meth:`insert` — the stale-``points`` hazard of a
    cached scan cannot occur.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.api import Index, IndexSpec
    >>> rng = np.random.default_rng(0)
    >>> points = rng.normal(size=(500, 16))
    >>> index = Index.build(
    ...     points, IndexSpec(metric="l2", radius=1.5, num_tables=8, seed=1))
    >>> engine = index.engine
    >>> results = engine.query_batch(points[:4])
    >>> [int(r.ids[0]) for r in results] == [0, 1, 2, 3]
    True
    >>> index.close()
    """

    #: one engine is one shard, and no worker pool serves it.
    num_shards = 1
    pool_workers = 0

    def __init__(
        self,
        searcher: HybridSearcher,
        radius: float | None = None,
        dedup: str = "vectorized",
    ) -> None:
        if dedup not in ("scalar", "vectorized"):
            raise ConfigurationError(
                f'dedup must be "scalar" or "vectorized", got {dedup!r}'
            )
        self.searcher = searcher
        self.radius = None if radius is None else float(radius)
        self.dedup = dedup
        # Online cost-model recalibration state; created lazily by the
        # first batch whose AdaptivePolicy asks for it.
        self._tuner: CostModelTuner | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def index(self):
        """The served :class:`~repro.index.frozen.FrozenLSHIndex`."""
        return self.searcher.index

    @property
    def n(self) -> int:
        """Number of indexed points (reflects inserts immediately)."""
        return self.index.n

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed points."""
        return self.index.dim

    @property
    def cost_model(self) -> CostModel:
        """The cost model driving the per-query dispatch."""
        return self.searcher.cost_model

    @property
    def local_points(self) -> np.ndarray:
        """The served points, held in this process."""
        return self.index.points

    def resolve_radius(self, radius: float | None) -> float:
        if radius is not None:
            return float(radius)
        if self.radius is None:
            raise ConfigurationError(
                "no radius given and the engine has no default radius"
            )
        return self.radius

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def query_batch(
        self,
        queries: np.ndarray,
        radius: float | None = None,
        trace: StageTrace | None = None,
        allow_partial: bool = False,
        adaptive: AdaptivePolicy | None = None,
    ) -> ResultBlock:
        """Answer a ``(q, d)`` query matrix.

        Returns the searcher's :class:`~repro.core.results.ResultBlock`,
        whose rows are made on read: exactly the results (ids,
        distances, and decision stats) of looping
        :meth:`HybridSearcher.query` over the rows.
        ``trace`` opts into per-stage timing (forwarded to the searcher;
        answers are unaffected).  One engine has no shard that can go
        missing, so ``allow_partial`` changes nothing.  ``adaptive``
        forwards an :class:`~repro.core.adaptive.AdaptivePolicy` to the
        searcher (per-query probe budgets) and, when the policy asks for
        ``recalibrate``, feeds the batch's observed per-stage timings
        into a :class:`~repro.core.adaptive.CostModelTuner` so
        subsequent batches dispatch with EWMA-recalibrated coefficients.
        """
        recalibrate = adaptive is not None and adaptive.enabled and adaptive.recalibrate
        inner_trace = trace
        if recalibrate and inner_trace is None:
            inner_trace = StageTrace()
        results = self.searcher.query_batch(
            np.asarray(queries),
            self.resolve_radius(radius),
            dedup=self.dedup,
            trace=inner_trace,
            adaptive=adaptive,
        )
        if recalibrate:
            self._observe_timings(results, inner_trace, adaptive)
        return results

    def _observe_timings(
        self,
        results: ResultBlock,
        trace: StageTrace,
        adaptive: AdaptivePolicy,
    ) -> None:
        """Fold one batch's stage timings into the cost-model tuner."""
        tuner = self._tuner
        if tuner is None or tuner.ewma_weight != adaptive.ewma_weight:
            tuner = CostModelTuner(
                self.searcher.cost_model, ewma_weight=adaptive.ewma_weight
            )
            self._tuner = tuner
        linear_ops = self.n * results.strategy_counts().get(Strategy.LINEAR.value, 0)
        examined = results.column("exact_candidates")
        on_lsh = results.column("strategy") == STRATEGY_CODES[Strategy.LSH]
        candidate_ops = int(examined[on_lsh & (examined >= 0)].sum())
        tuner.observe_batch(
            linear_ops,
            trace.seconds.get("linear", 0.0),
            candidate_ops,
            trace.seconds.get("candidates", 0.0),
        )
        self.searcher.cost_model = tuner.model

    def query_topk_batch(
        self,
        queries: np.ndarray,
        k: int,
        trace: StageTrace | None = None,
        allow_partial: bool = False,
    ) -> list[QueryResult]:
        """Exact k-NN: one distance block over every point, then selection.

        The selection kernel is the worker pool's
        (:func:`~repro.core.linear_scan.exact_topk_results`), so the
        deterministic ``(distance, id)`` tie-breaking is shared.
        """
        index = self.index
        if k > index.n:
            raise ConfigurationError(f"k ({k}) must not exceed the index size ({index.n})")
        with stage_timer(trace, "linear"):
            block = pairwise_distances(queries, index.points, index.family.metric)
        with stage_timer(trace, "merge"):
            return exact_topk_results(
                np.arange(index.n, dtype=np.int64), [block], k, index.n
            )

    def insert(self, new_points: np.ndarray) -> np.ndarray:
        """Add points to the served index; returns their assigned ids.

        Subsequent queries — single or batched — see the new points at
        once (the searcher refreshes its scan on the next query).
        """
        return self.index.insert(new_points)

    def save_shards(self, path: str) -> None:
        """Write the served index under ``path`` as the artifact's shard
        0; the caller writes ``index.json`` around it."""
        from repro.service.shard_server import _shard_dir

        save_frozen_index(self.index, _shard_dir(path, 0))

    # ------------------------------------------------------------------
    # Telemetry and shutdown
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """The :class:`~repro.service.stats.ServiceStats` counters this
        engine owns: its cost-model coefficient updates since it was
        built or last reset."""
        tuner = self._tuner
        return {"recalibrations": 0 if tuner is None else tuner.recalibrations}

    def reset_stats(self) -> None:
        """Zero :meth:`counters` in place."""
        if self._tuner is not None:
            self._tuner.recalibrations = 0

    def worker_stats(self) -> list[dict]:
        """No worker serves one engine."""
        return []

    def gauge_hooks(self) -> dict[str, Callable[[], float]]:
        """Live gauges over the served index: its overflow size (points
        in live runs) and background re-freeze counters, read at
        snapshot time."""
        index = self.index
        return {
            "overflow_points": lambda: float(index.overflow_count),
            "refreeze_generations": lambda: float(index.refreeze_count),
            "refreeze_seconds_total": lambda: float(index.refreeze_seconds_total),
            "last_refreeze_seconds": lambda: float(index.last_refreeze_seconds),
        }

    def close(self) -> None:
        """Join the partition helper and wait for a fold an insert
        started; idempotent.  Later batches run inline."""
        helper = self.searcher.partition_helper
        if helper is not None:
            helper.close()
        self.index.wait_for_refreeze()

    def __repr__(self) -> str:
        return (
            f"BatchQueryEngine(n={self.n}, dim={self.dim}, "
            f"radius={self.radius}, dedup={self.dedup!r})"
        )
