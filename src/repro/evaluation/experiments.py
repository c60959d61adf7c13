"""Experiment specifications — one function per paper table/figure.

Each function takes a :class:`~repro.datasets.base.Dataset` (usually a
stand-in from :mod:`repro.datasets`), applies the paper's protocol
(remove 100 query points, paper parameter presets, average over runs)
and returns typed rows that the report module renders and the
benchmarks regenerate.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.api import Index, IndexSpec
from repro.core.calibration import calibrate_cost_model
from repro.core.cost_model import CostModel
from repro.core.hybrid import HybridSearcher
from repro.core.linear_scan import LinearScan
from repro.core.lsh_search import LSHSearch
from repro.core.results import Strategy
from repro.datasets.base import Dataset
from repro.datasets.queries import split_queries
from repro.evaluation.ground_truth import GroundTruth
from repro.evaluation.metrics import relative_error
from repro.evaluation.runner import run_queries
from repro.hashing.params import expected_recall
from repro.index.frozen import FrozenLSHIndex

__all__ = [
    "Table1Row",
    "Figure2Row",
    "Figure3Row",
    "RecallRow",
    "table1_experiment",
    "figure2_experiment",
    "figure3_experiment",
    "recall_experiment",
]


@contextmanager
def _served_index(data: np.ndarray, spec: IndexSpec) -> Iterator[FrozenLSHIndex]:
    """The index :meth:`~repro.api.Index.build` serves for ``spec``,
    closed (helper thread joined) when the block exits.

    The experiments drive it with their own searchers and their own
    (Section 4.2-calibrated) cost model, so the spec's fixed cost ratio
    only spares :meth:`~repro.api.Index.build` a second calibration.
    """
    built = Index.build(data, spec)
    try:
        yield built.engine.index
    finally:
        built.close()


# ----------------------------------------------------------------------
# Table 1 — relative cost and error of HLLs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table1Row:
    """One dataset column of Table 1.

    ``cost_percent`` is the share of total LSH query time spent merging
    HLLs and estimating ``candSize``; ``error_percent`` is the mean
    relative error of the estimate vs. the exact candidate count, and
    ``error_std_percent`` its standard deviation across queries.
    """

    dataset: str
    cost_percent: float
    error_percent: float
    error_std_percent: float
    num_queries: int
    radius: float


def table1_experiment(
    dataset: Dataset,
    num_queries: int = 100,
    radius: float | None = None,
    num_tables: int = 50,
    delta: float = 0.1,
    hll_precision: int = 7,
    seed: int = 0,
) -> Table1Row:
    """Measure HLL estimation overhead and accuracy (paper Table 1).

    Protocol: the paper reports averages "for a small range of radii
    where LSH-based search significantly outperforms linear search";
    we use the smallest radius of the dataset's sweep by default.

    Per query we time (a) the full LSH-based search pipeline and
    (b) the extra sketch-merge + estimate step, then compare the
    estimate with the exact distinct-candidate count.
    """
    radius = float(dataset.radii[0]) if radius is None else float(radius)
    data, queries = split_queries(dataset.points, num_queries=num_queries, seed=seed)
    spec = IndexSpec(
        metric=dataset.metric, radius=radius, num_tables=num_tables, delta=delta,
        hll_precision=hll_precision, seed=seed,
    )

    errors: list[float] = []
    hll_seconds = 0.0
    total_seconds = 0.0
    with _served_index(data, spec) as index:
        searcher = LSHSearch(index)
        for q in queries:
            start = time.perf_counter()
            lookup = index.lookup(q)
            estimated = index.merged_sketch(lookup).estimate()
            hll_elapsed = time.perf_counter() - start
            # Run the S2+S3 pipeline from the same lookup, as hybrid would.
            result = searcher.query_from_lookup(q, radius, lookup)
            total_elapsed = time.perf_counter() - start
            hll_seconds += hll_elapsed - _lookup_seconds_estimate(index, q)
            total_seconds += total_elapsed
            exact = result.stats.exact_candidates
            if exact > 0:
                errors.append(relative_error(estimated, exact))

    error_arr = np.asarray(errors) if errors else np.asarray([0.0])
    return Table1Row(
        dataset=dataset.name,
        cost_percent=100.0 * max(0.0, hll_seconds) / total_seconds,
        error_percent=100.0 * float(error_arr.mean()),
        error_std_percent=100.0 * float(error_arr.std()),
        num_queries=int(queries.shape[0]),
        radius=radius,
    )


def _lookup_seconds_estimate(index: FrozenLSHIndex, query: np.ndarray) -> float:
    """Seconds to hash + locate the query's buckets (the Step-S1 share).

    Table 1's "% Cost" isolates the HLL overhead from the S1 lookup
    that both classic LSH and hybrid search must pay anyway, so we
    time a bare lookup and subtract it.
    """
    start = time.perf_counter()
    index.lookup(query)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Figure 2 — CPU time vs radius for the three strategies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure2Row:
    """One radius point of a Figure 2 panel.

    The ``*_work`` fields price each strategy's query set in the cost
    model's own units, deterministically (:func:`_work`).
    """

    radius: float
    hybrid_seconds: float
    lsh_seconds: float
    linear_seconds: float
    hybrid_recall: float
    lsh_recall: float
    linear_recall: float
    linear_call_fraction: float
    hybrid_work: float
    lsh_work: float
    linear_work: float

    @property
    def winner(self) -> str:
        """Which strategy was fastest at this radius."""
        times = {
            "hybrid": self.hybrid_seconds,
            "lsh": self.lsh_seconds,
            "linear": self.linear_seconds,
        }
        return min(times, key=times.get)


def _work(results: list, cost_model: CostModel, n: int) -> float:
    """Equation (1) at the exact candidate count for every query a run
    answered by LSH-based search, Equation (2) for every scanned one."""
    return sum(
        cost_model.linear_cost(n)
        if r.stats.strategy is Strategy.LINEAR
        else cost_model.lsh_cost(r.stats.num_collisions, r.stats.exact_candidates)
        for r in results
    )


def figure2_experiment(
    dataset: Dataset,
    radii: tuple[float, ...] | None = None,
    num_queries: int = 100,
    repeats: int = 5,
    num_tables: int = 50,
    delta: float = 0.1,
    hll_precision: int = 7,
    cost_model: CostModel | None = None,
    seed: int = 0,
    with_recall: bool = True,
) -> list[Figure2Row]:
    """CPU time of hybrid / LSH / linear over a radius sweep (Figure 2).

    One index is built per radius (the paper's parameters depend on
    ``r``) and shared by the hybrid and pure-LSH strategies, exactly as
    in the paper's comparison.  ``cost_model`` defaults to the Section
    4.2 protocol: measure ``alpha`` and ``beta`` on a random sample of
    the data (the paper used 100 queries x 10,000 points).
    """
    radii = dataset.radii if radii is None else tuple(radii)
    data, queries = split_queries(dataset.points, num_queries=num_queries, seed=seed)
    if cost_model is None:
        cost_model = calibrate_cost_model(data, dataset.metric, seed=seed).model
    linear = LinearScan(data, dataset.metric)
    truth = GroundTruth(data, queries, dataset.metric) if with_recall else None
    spec = IndexSpec(
        metric=dataset.metric, radius=radii[0], num_tables=num_tables, delta=delta,
        hll_precision=hll_precision, seed=seed,
    )

    rows: list[Figure2Row] = []
    for radius in radii:
        with _served_index(data, spec.with_overrides(radius=radius)) as index:
            hybrid_run = run_queries(
                HybridSearcher(index, cost_model), queries, radius, "hybrid",
                repeats=repeats, ground_truth=truth,
            )
            lsh_run = run_queries(
                LSHSearch(index), queries, radius, "lsh", repeats=repeats, ground_truth=truth
            )
        linear_run = run_queries(
            linear, queries, radius, "linear", repeats=repeats, ground_truth=truth
        )
        rows.append(
            Figure2Row(
                radius=float(radius),
                hybrid_seconds=hybrid_run.total_seconds,
                lsh_seconds=lsh_run.total_seconds,
                linear_seconds=linear_run.total_seconds,
                hybrid_recall=hybrid_run.recall,
                lsh_recall=lsh_run.recall,
                linear_recall=linear_run.recall,
                linear_call_fraction=hybrid_run.linear_call_fraction,
                **{
                    f"{run.name}_work": _work(run.results, cost_model, linear.n)
                    for run in (hybrid_run, lsh_run, linear_run)
                },
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figure 3 — output-size spread and % linear-search calls (Webspam)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure3Row:
    """One radius point of Figure 3 (both panels)."""

    radius: float
    avg_output: float
    max_output: int
    min_output: int
    linear_call_percent: float
    n: int

    @property
    def max_exceeds_half_n(self) -> bool:
        """The paper's observation: hard queries report > n/2 points."""
        return self.max_output > self.n / 2


def figure3_experiment(
    dataset: Dataset,
    radii: tuple[float, ...] | None = None,
    num_queries: int = 100,
    num_tables: int = 50,
    delta: float = 0.1,
    hll_precision: int = 7,
    cost_model: CostModel | None = None,
    seed: int = 0,
) -> list[Figure3Row]:
    """Output-size statistics and hybrid linear-call share (Figure 3).

    The left panel (avg/max/min output size) is exact, from ground
    truth; the right panel replays the hybrid decision per query.
    ``cost_model=None`` calibrates alpha/beta on the data (Section 4.2).
    """
    radii = dataset.radii if radii is None else tuple(radii)
    data, queries = split_queries(dataset.points, num_queries=num_queries, seed=seed)
    if cost_model is None:
        cost_model = calibrate_cost_model(data, dataset.metric, seed=seed).model
    truth = GroundTruth(data, queries, dataset.metric)
    spec = IndexSpec(
        metric=dataset.metric, radius=radii[0], num_tables=num_tables, delta=delta,
        hll_precision=hll_precision, seed=seed,
    )

    rows: list[Figure3Row] = []
    for radius in radii:
        sizes = truth.output_sizes(radius)
        with _served_index(data, spec.with_overrides(radius=radius)) as index:
            hybrid = HybridSearcher(index, cost_model)
            decisions = [hybrid.decide(q) for q in queries]
        linear_share = float(
            np.mean([d == Strategy.LINEAR for d in decisions])
        )
        rows.append(
            Figure3Row(
                radius=float(radius),
                avg_output=float(sizes.mean()),
                max_output=int(sizes.max()),
                min_output=int(sizes.min()),
                linear_call_percent=100.0 * linear_share,
                n=int(data.shape[0]),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Recall vs radius — the experiment the paper mentions but omits
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecallRow:
    """One radius point of the recall comparison.

    ``analytic_recall`` is the expectation
    ``mean_i 1 - (1 - p(c_i)^k)^L`` over the true neighbors' actual
    distances — the number the parameter rule is really promising.
    """

    radius: float
    hybrid_recall: float
    lsh_recall: float
    analytic_recall: float
    linear_call_fraction: float


def recall_experiment(
    dataset: Dataset,
    radii: tuple[float, ...] | None = None,
    num_queries: int = 100,
    num_tables: int = 50,
    delta: float = 0.1,
    hll_precision: int = 7,
    cost_model: CostModel | None = None,
    seed: int = 0,
) -> list[RecallRow]:
    """Measured and analytic recall of hybrid vs pure LSH (paper §4.2).

    The paper notes "hybrid search gives higher recall ratio than
    LSH-based search since it uses linear search for 'hard' queries"
    but omits the numbers for space; this regenerates them.  The
    analytic column integrates the per-neighbor success probability
    ``1 - (1 - p(c)^k)^L`` over the exact neighbor distances, giving
    the theory line the measurements should track.
    """
    radii = dataset.radii if radii is None else tuple(radii)
    data, queries = split_queries(dataset.points, num_queries=num_queries, seed=seed)
    if cost_model is None:
        cost_model = calibrate_cost_model(data, dataset.metric, seed=seed).model
    truth = GroundTruth(data, queries, dataset.metric)
    spec = IndexSpec(
        metric=dataset.metric, radius=radii[0], num_tables=num_tables, delta=delta,
        hll_precision=hll_precision, seed=seed,
    )

    rows: list[RecallRow] = []
    for radius in radii:
        with _served_index(data, spec.with_overrides(radius=float(radius))) as index:
            hybrid_run = run_queries(
                HybridSearcher(index, cost_model), queries, float(radius), "hybrid",
                repeats=1, ground_truth=truth,
            )
            lsh_run = run_queries(
                LSHSearch(index), queries, float(radius), "lsh",
                repeats=1, ground_truth=truth,
            )
        neighbor_distances = np.concatenate([
            truth.distances(i)[truth.neighbors(i, float(radius))]
            for i in range(queries.shape[0])
        ])
        probabilities = index.family.collision_probability_batch(neighbor_distances)
        analytic = expected_recall(probabilities, k=index.k, num_tables=index.num_tables)
        rows.append(
            RecallRow(
                radius=float(radius),
                hybrid_recall=hybrid_run.recall,
                lsh_recall=lsh_run.recall,
                analytic_recall=analytic,
                linear_call_fraction=hybrid_run.linear_call_fraction,
            )
        )
    return rows
