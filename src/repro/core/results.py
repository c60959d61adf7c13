"""Result and statistics types returned by the search strategies.

Every searcher returns a :class:`QueryResult`, and so does
:meth:`repro.api.Index.query`; hybrid search fills in
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


@dataclass(frozen=True)
class QueryStats:
    """Decision diagnostics for one query (frozen, like the
    :class:`QueryResult` that carries it: a cached answer is shared).

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
    probes_used:
        Probe rings examined per table beyond the home bucket; -1 when
        the path does not track probing (pure linear, exact top-k).
        Under an adaptive probe budget this is the per-query stopping
        ring; fixed-budget paths report the index's ``probe_count``
        (``num_probes``, unless the enumeration ran dry; 0 without probes).
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
    probes_used: int = -1
    exact: bool = False


@dataclass(frozen=True)
class QueryResult:
    """Answer to one rNNR query.

    Every execution path answers with this type, and
    :meth:`repro.api.Index.query` hands it to the caller as is.  It is
    frozen, and so are its :class:`QueryStats`, because one object may
    be shared: every hit on a cached answer, and in-batch duplicate
    queries, hand out the same result.

    Attributes
    ----------
    ids:
        Indices of the reported points, sorted ascending.
    distances:
        Distances of the reported points, aligned with ``ids``.
    radius:
        The query radius ``r`` (for top-k answers: the k-th distance).
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

    @property
    def strategy(self) -> str:
        """The answering strategy as a plain string: lsh, linear or hybrid."""
        return self.stats.strategy.value

    @property
    def probes_used(self) -> int:
        """Probe rings examined per table beyond the home bucket (-1: untracked)."""
        return int(self.stats.probes_used)

    @property
    def candidates_examined(self) -> int:
        """Distinct candidates whose exact distance was computed (-1: unknown)."""
        return int(self.stats.exact_candidates)

    @property
    def estimated_candidates(self) -> float:
        """The ``candSize`` the dispatch verdict was taken at (``nan``: no decision)."""
        return float(self.stats.estimated_candidates)

    @property
    def exact(self) -> bool:
        """True when the answer is exact by construction."""
        return bool(self.stats.exact)

    def recall_against(self, true_ids: np.ndarray) -> float:
        """Fraction of ``true_ids`` present in this result.

        An empty ground truth yields recall 1.0 by convention (there
        was nothing to miss).
        """
        true_ids = np.asarray(true_ids)
        if true_ids.size == 0:
            return 1.0
        return float(np.isin(true_ids, self.ids).mean())

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly answer document (the stream protocol's body).

        ``ids`` and ``distances`` become plain lists; a ``nan``
        ``estimated_candidates`` (no dispatch decision was taken — a
        dispatched row always carries a finite one) becomes ``None``
        (JSON has no NaN); the engine diagnostics are deliberately
        excluded — they are in-process objects.
        """
        estimated: float | None = self.estimated_candidates
        if estimated != estimated:  # nan
            estimated = None
        return {
            "ids": [int(i) for i in self.ids],
            "distances": [float(d) for d in self.distances],
            "radius": float(self.radius),
            "strategy": self.strategy,
            "probes_used": self.probes_used,
            "candidates_examined": self.candidates_examined,
            "estimated_candidates": estimated,
            "exact": self.exact,
            "degraded": bool(self.degraded),
            "missing_shards": list(self.missing_shards),
        }

    def __repr__(self) -> str:
        return (
            f"QueryResult(r={self.radius}, found={self.output_size}, "
            f"strategy={self.strategy})"
        )
