"""Result and statistics types returned by the search strategies.

Every searcher returns a :class:`QueryResult`; hybrid search fills in
the decision diagnostics (:class:`QueryStats`) that the Figure 3 and
Table 1 experiments aggregate — which strategy ran, the exact collision
count, and the estimated vs. exact candidate-set size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Strategy", "QueryStats", "QueryResult"]


class Strategy(str, enum.Enum):
    """Which search strategy answered a query."""

    LSH = "lsh"
    LINEAR = "linear"
    HYBRID = "hybrid"  # used only as a label for the dispatching searcher


@dataclass
class QueryStats:
    """Decision diagnostics for one query.

    Attributes
    ----------
    num_collisions:
        Exact total occupancy of the query's buckets (Step S2 driver).
    estimated_candidates:
        The ``candSize`` the dispatch verdict was taken at.  Hybrid
        search decides Equation (1) from exact bounds first, so this is
        the merged-HLL estimate clamped
        to ``[largest bucket, min(#collisions, n)]`` on a row the bounds
        left open, the exact candidate count on a row the upper bound
        sent to LSH, and the lower bound on a row the lower bound sent
        to the scan — finite on every hybrid row.  ``nan`` when no
        decision was taken (pure linear or pure LSH runs).
    exact_candidates:
        True distinct candidate count; filled only when LSH-based
        search actually ran (it materialises the candidate set anyway)
        or when explicitly requested by an experiment.
    estimated_lsh_cost / linear_cost:
        The two sides of the Algorithm 2 comparison, in cost-model
        units: ``estimated_lsh_cost`` is Equation (1) at
        ``estimated_candidates``, and (outside an adaptive budget, which
        may keep a row on LSH regardless) ``strategy`` is LSH exactly
        when it is below ``linear_cost``.
    strategy:
        The strategy that produced the answer.
    elapsed_seconds:
        Wall-clock time of the query (set by the evaluation runner).
    probes_used:
        Probe rings examined per table beyond the home bucket; -1 when
        the path does not track probing (plain layouts, pure linear).
        Under an adaptive probe budget this is the per-query stopping
        ring; fixed-budget paths report the configured ``num_probes``.
    exact:
        True when the answer is exact by construction (linear scan or
        exact top-k selection) — the certification bit the adaptive
        top-k path keys its quality floor on.
    """

    num_collisions: int = 0
    estimated_candidates: float = float("nan")
    exact_candidates: int = -1
    estimated_lsh_cost: float = float("nan")
    linear_cost: float = float("nan")
    strategy: Strategy = Strategy.LSH
    elapsed_seconds: float = 0.0
    probes_used: int = -1
    exact: bool = False


@dataclass
class QueryResult:
    """Answer to one rNNR query.

    Attributes
    ----------
    ids:
        Indices of the reported points, sorted ascending.
    distances:
        Distances of the reported points, aligned with ``ids``.
    radius:
        The query radius ``r``.
    stats:
        Decision diagnostics (see :class:`QueryStats`).
    degraded:
        True when the answer is partial: one or more shards stayed
        unavailable past the serving layer's retry budget and the
        caller opted into partial results (``allow_partial``).
    missing_shards:
        The shard ids whose contribution is absent from a degraded
        answer (empty for complete answers).
    """

    ids: np.ndarray
    distances: np.ndarray
    radius: float
    stats: QueryStats = field(default_factory=QueryStats)
    degraded: bool = False
    missing_shards: tuple[int, ...] = ()

    @property
    def output_size(self) -> int:
        """Number of reported near neighbors."""
        return int(self.ids.shape[0])

    def recall_against(self, true_ids: np.ndarray) -> float:
        """Fraction of ``true_ids`` present in this result.

        An empty ground truth yields recall 1.0 by convention (there
        was nothing to miss).
        """
        true_ids = np.asarray(true_ids)
        if true_ids.size == 0:
            return 1.0
        return float(np.isin(true_ids, self.ids).mean())

    def __repr__(self) -> str:
        return (
            f"QueryResult(r={self.radius}, found={self.output_size}, "
            f"strategy={self.stats.strategy.value})"
        )
