"""The typed result envelope returned by :meth:`repro.api.Index.query`.

Every execution path — single index, batched, sharded threads, worker
processes, TCP shard servers — answers with the same two types.

:class:`QueryOutcome` carries the payload arrays plus the serving facts
callers branch on — which strategy answered, how many probe rings were
examined, how many candidates were distance-checked, whether the answer
is exact / degraded — with the engine's decision diagnostics
(:class:`~repro.core.results.QueryStats`) attached as ``stats``.
:class:`BatchOutcome` wraps a batch as an immutable
:class:`~collections.abc.Sequence`, so ``len``, indexing, iteration and
``zip`` all work.

The envelope never copies: ``ids`` and ``distances`` are the very
arrays the engine produced.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import overload

import numpy as np
import numpy.typing as npt

from repro.core.results import QueryResult, QueryStats
from repro.observability import StageTrace

__all__ = ["BatchOutcome", "QueryOutcome"]


@dataclass(frozen=True)
class QueryOutcome:
    """One query's answer plus the serving facts that produced it.

    Attributes
    ----------
    ids:
        Global point ids of the reported neighbors (the engine's own
        array).
    distances:
        Distances aligned with ``ids``.
    radius:
        The radius answered (for top-k outcomes: the k-th distance).
    strategy:
        Which strategy produced the answer (``"lsh"`` / ``"linear"`` /
        ``"hybrid"``), as a plain string.
    probes_used:
        Probe rings examined per table beyond the home bucket; under an
        adaptive probe budget this is the per-query stopping ring.
        ``-1`` when the path does not track probing.
    candidates_examined:
        Distinct candidates whose exact distance was computed (the full
        index size for a linear scan); ``-1`` when unknown.
    estimated_candidates:
        The ``candSize`` the dispatch verdict was taken at: the
        merged-HLL estimate clamped to the exact bounds where those
        left Equation (1) open, the exact candidate count where the
        upper bound alone chose LSH, the lower bound (largest probed
        bucket) where it alone chose the scan.  Finite on every
        dispatched row; ``nan`` only when no decision was taken.
    exact:
        True when the answer is exact by construction (linear scan,
        exact top-k selection, or a certified adaptive top-k answer).
    degraded:
        True when one or more shards were unavailable and the caller
        opted into partial results.
    missing_shards:
        The shard ids absent from a degraded answer.
    stats:
        The full engine-level decision diagnostics (cost-model inputs,
        collision counts) for consumers that need them.
    trace:
        Optional per-stage timing of the call that produced this
        outcome (only attached when tracing was requested).
    """

    ids: npt.NDArray[np.int64]
    distances: npt.NDArray[np.float64]
    radius: float
    strategy: str
    probes_used: int = -1
    candidates_examined: int = -1
    estimated_candidates: float = float("nan")
    exact: bool = False
    degraded: bool = False
    missing_shards: tuple[int, ...] = ()
    stats: QueryStats = field(default_factory=QueryStats)
    trace: StageTrace | None = None

    @classmethod
    def from_result(
        cls, result: QueryResult, trace: StageTrace | None = None
    ) -> QueryOutcome:
        """Wrap one engine-level result (arrays are shared, not copied)."""
        stats = result.stats
        return cls(
            ids=result.ids,
            distances=result.distances,
            radius=float(result.radius),
            strategy=stats.strategy.value,
            probes_used=int(stats.probes_used),
            candidates_examined=int(stats.exact_candidates),
            estimated_candidates=float(stats.estimated_candidates),
            exact=bool(stats.exact),
            degraded=bool(result.degraded),
            missing_shards=tuple(result.missing_shards),
            stats=stats,
            trace=trace,
        )

    @property
    def output_size(self) -> int:
        """Number of reported neighbors."""
        return int(self.ids.shape[0])

    def recall_against(self, true_ids: npt.NDArray[np.int64]) -> float:
        """Fraction of ``true_ids`` present in this outcome.

        An empty ground truth yields recall 1.0 by convention.
        """
        true_ids = np.asarray(true_ids)
        if true_ids.size == 0:
            return 1.0
        return float(np.isin(true_ids, self.ids).mean())

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly envelope document (the stream protocol's body).

        ``ids`` and ``distances`` become plain lists; a ``nan``
        ``estimated_candidates`` (no dispatch decision was taken — a
        dispatched row always carries a finite one) becomes ``None``
        (JSON has no NaN); the engine diagnostics and trace are
        deliberately excluded — they are in-process objects.
        """
        estimated: float | None = self.estimated_candidates
        if estimated != estimated:  # nan
            estimated = None
        return {
            "ids": [int(i) for i in self.ids],
            "distances": [float(d) for d in self.distances],
            "radius": self.radius,
            "strategy": self.strategy,
            "probes_used": self.probes_used,
            "candidates_examined": self.candidates_examined,
            "estimated_candidates": estimated,
            "exact": self.exact,
            "degraded": self.degraded,
            "missing_shards": list(self.missing_shards),
        }

    def __repr__(self) -> str:
        return (
            f"QueryOutcome(r={self.radius}, found={self.output_size}, "
            f"strategy={self.strategy}, probes={self.probes_used}, "
            f"exact={self.exact})"
        )


@dataclass(frozen=True)
class BatchOutcome(Sequence[QueryOutcome]):
    """An immutable batch of :class:`QueryOutcome`, one per query row.

    Supports the full read-only sequence protocol (``len``, indexing,
    slicing, iteration, ``in``).  Batch-level summaries (:attr:`degraded_count`,
    :attr:`strategy_counts`) live here instead of forcing callers to
    re-aggregate.
    """

    outcomes: tuple[QueryOutcome, ...]

    def __len__(self) -> int:
        return len(self.outcomes)

    @overload
    def __getitem__(self, index: int) -> QueryOutcome: ...

    @overload
    def __getitem__(self, index: slice) -> BatchOutcome: ...

    def __getitem__(self, index: int | slice) -> QueryOutcome | BatchOutcome:
        if isinstance(index, slice):
            return BatchOutcome(self.outcomes[index])
        return self.outcomes[index]

    def __iter__(self) -> Iterator[QueryOutcome]:
        return iter(self.outcomes)

    @property
    def degraded_count(self) -> int:
        """How many outcomes in the batch are partial answers."""
        return sum(1 for outcome in self.outcomes if outcome.degraded)

    @property
    def strategy_counts(self) -> dict[str, int]:
        """Outcome count per answering strategy."""
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.strategy] = counts.get(outcome.strategy, 0) + 1
        return counts

    def __repr__(self) -> str:
        return f"BatchOutcome(n={len(self.outcomes)})"
