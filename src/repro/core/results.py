"""Result and statistics types returned by the search strategies.

One query's answer is a :class:`QueryResult`; hybrid search fills in
the decision diagnostics (:class:`QueryStats`) that the Figure 3 and
Table 1 experiments aggregate — which strategy ran, the exact collision
count, and the estimated vs. exact candidate-set size.

A batch's answer is one :class:`ResultBlock`: the rows' id and distance
arrays plus one ``(q, 8)`` float64 stats matrix in
:data:`STATS_COLUMNS` order.  It is a sequence of :class:`QueryResult`
whose row objects are made on first read, so a batch that nobody reads
row by row (a shard's reply, a merge, a strategy tally) builds none.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = ["Strategy", "QueryStats", "QueryResult", "ResultBlock", "STATS_COLUMNS", "stats_matrix"]


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


#: a stats matrix's columns: the :class:`QueryStats` fields, in order.
#: Every integer field is far below ``2**53``, so float64 cells carry
#: them exactly; ``strategy`` is stored as its :data:`STRATEGY_CODES` code.
STATS_COLUMNS = tuple(f.name for f in fields(QueryStats))
STRATEGY_CODES = {strategy: code for code, strategy in enumerate(Strategy)}
_STRATEGIES = tuple(Strategy)
_STRATEGY = STATS_COLUMNS.index("strategy")
#: the columns a row read turns back from floats into ints and bools.
_INTEGER_COLUMNS = tuple(j for j, f in enumerate(fields(QueryStats)) if f.type == "int")
_BOOL_COLUMNS = tuple(j for j, f in enumerate(fields(QueryStats)) if f.type == "bool")


def stats_row(stats: QueryStats) -> list:
    """``stats`` as one row of a stats matrix."""
    row = [getattr(stats, name) for name in STATS_COLUMNS]
    row[_STRATEGY] = STRATEGY_CODES[stats.strategy]
    return row


def stats_matrix(cells: list, names: tuple[str, ...]) -> np.ndarray:
    """The ``(q, 8)`` stats matrix of row-major ``cells``: each row's
    values listed in ``names``' order, a permutation of
    :data:`STATS_COLUMNS` (``strategy`` as its code)."""
    matrix = np.array(cells, np.float64).reshape(-1, len(STATS_COLUMNS))
    if names != STATS_COLUMNS:
        if sorted(names) != sorted(STATS_COLUMNS):
            raise ValueError(f"stats cells {names} are not {STATS_COLUMNS}")
        matrix = matrix[:, [names.index(name) for name in STATS_COLUMNS]]
    return matrix


def _typed(cells: list) -> list:
    """One stats-matrix row's cells in their :class:`QueryStats` types."""
    for j in _INTEGER_COLUMNS:
        cells[j] = int(cells[j])
    cells[_STRATEGY] = _STRATEGIES[int(cells[_STRATEGY])]
    for j in _BOOL_COLUMNS:
        cells[j] = bool(cells[j])
    return cells


def _frozen(cls, values: dict):
    """An instance of the frozen dataclass ``cls`` holding ``values``
    (every field), made without ``__init__``'s per-field
    ``object.__setattr__``, which costs half of a block row's read."""
    made = object.__new__(cls)
    made.__dict__.update(values)
    return made


@dataclass(frozen=True)
class QueryResult:
    """Answer to one rNNR query.

    :meth:`repro.api.Index.query` returns one for a vector, and a
    batch's :class:`ResultBlock` makes one per row when it is read.  It
    is frozen, and so are its :class:`QueryStats`, because one object
    may be shared: every hit on a cached answer, in-batch duplicate
    queries and every read of a block row hand out the same result.

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

        ``ids`` and ``distances`` become plain lists (``tolist``: the
        same ints and floats as converting each element); a ``nan``
        ``estimated_candidates`` (no dispatch decision was taken — a
        dispatched row always carries a finite one) becomes ``None``
        (JSON has no NaN); the engine diagnostics are deliberately
        excluded — they are in-process objects.
        """
        estimated: float | None = self.estimated_candidates
        if estimated != estimated:  # nan
            estimated = None
        return {
            "ids": self.ids.tolist(),
            "distances": self.distances.tolist(),
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


@dataclass(frozen=True, eq=False, repr=False)
class ResultBlock(Sequence[QueryResult]):
    """Answer to a batch of rNNR queries, held as columns.

    ``ids`` / ``distances`` are the rows' arrays as the search made them
    (no copy), ``stats`` a read-only ``(q, 8)`` float64 matrix in
    :data:`STATS_COLUMNS` order, and ``degraded`` / ``missing_shards``
    the batch's partial-answer flags.  Row ``i`` is a
    :class:`QueryResult` made on its first read and kept, so reading
    the columns builds no row object.  A block :meth:`from_rows` made
    of exact top-k rows, which each report their k-th distance as
    radius, has radius ``nan`` unless the rows agree.
    """

    radius: float
    ids: tuple[np.ndarray, ...]
    distances: tuple[np.ndarray, ...]
    stats: np.ndarray
    degraded: bool = False
    missing_shards: tuple[int, ...] = ()
    _rows: list = field(init=False)

    def __post_init__(self) -> None:
        q = len(self.ids)
        if len(self.distances) != q or self.stats.shape != (q, len(STATS_COLUMNS)):
            raise ValueError(
                f"ResultBlock columns disagree: {q} id rows, "
                f"{len(self.distances)} distance rows, stats {self.stats.shape}"
            )
        self.stats.flags.writeable = False
        object.__setattr__(self, "_rows", [None] * q)

    @classmethod
    def from_rows(cls, rows: Iterable[QueryResult], radius: float = float("nan")) -> ResultBlock:
        """The block of rows that already exist (a cached or top-k
        answer); reading row ``i`` hands out ``rows[i]`` itself.  Its
        radius is the rows' common one, else ``radius``."""
        rows = list(rows)
        radii = {row.radius for row in rows}
        block = cls(
            radius=radii.pop() if len(radii) == 1 else radius,
            ids=tuple(row.ids for row in rows),
            distances=tuple(row.distances for row in rows),
            stats=np.array([stats_row(row.stats) for row in rows], np.float64).reshape(
                len(rows), len(STATS_COLUMNS)
            ),
            degraded=any(row.degraded for row in rows),
            missing_shards=tuple(sorted({s for row in rows for s in row.missing_shards})),
        )
        block._rows[:] = rows
        return block

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(counts, ids, distances, stats)``: row ``i``'s ``counts[i]``
        neighbours sit at its slice of the concatenated ids and
        distances — a shard's radius reply."""
        counts = np.fromiter((a.size for a in self.ids), np.int64, len(self.ids))
        if not self.ids:
            return counts, np.empty(0, np.int64), np.empty(0), self.stats
        return counts, np.concatenate(self.ids), np.concatenate(self.distances), self.stats

    def column(self, name: str) -> np.ndarray:
        """The named :data:`STATS_COLUMNS` column, one cell per row."""
        return self.stats[:, STATS_COLUMNS.index(name)]

    def strategy_counts(self) -> dict[str, int]:
        """Rows per answering strategy, from the code column."""
        counts: dict[str, int] = {}
        for code in self.stats[:, _STRATEGY].tolist():
            name = _STRATEGIES[int(code)].value
            counts[name] = counts.get(name, 0) + 1
        return counts

    def degraded_rows(self) -> int:
        """Rows answered without every shard: all of a degraded block
        made from columns, else (every row exists) the rows' own flags."""
        if not self.degraded:
            return 0
        if any(row is None for row in self._rows):
            return len(self)
        return sum(row.degraded for row in self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        row = self._rows[i]
        if row is None:
            cells = _typed(self.stats[i].tolist())
            row = self._rows[i] = _frozen(QueryResult, {
                "ids": self.ids[i], "distances": self.distances[i], "radius": self.radius,
                "stats": _frozen(QueryStats, dict(zip(STATS_COLUMNS, cells))),
                "degraded": self.degraded, "missing_shards": self.missing_shards,
            })
        return row

    def __repr__(self) -> str:
        return f"ResultBlock(q={len(self)}, r={self.radius}, degraded={self.degraded})"
