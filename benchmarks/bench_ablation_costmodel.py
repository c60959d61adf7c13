"""Ablation A4 (DESIGN.md item 4) — decision-rule sensitivity to beta/alpha.

Algorithm 2 compares ``alpha * #collisions + beta * candSize`` against
``beta * n``; only the ratio ``beta / alpha`` matters, and the paper
calibrates it per dataset (Section 4.2).  This ablation deliberately
mis-calibrates the ratio by factors of {1/8, 1/2, 1, 2, 8} around the
measured value and reports the hybrid wall-clock over the query set.

Expected shape: the true ratio minimises total time; under-estimating
the ratio (dedup believed expensive) over-uses linear search,
over-estimating it over-uses LSH on hard queries.  The curve is flat
near the optimum — the decision only flips for queries near the cost
crossover — which is why the paper's rough 100 x 10,000 sample
calibration suffices.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import NUM_QUERIES, paper_index
from repro.core import CostModel, HybridSearcher
from repro.core.calibration import calibrate_cost_model
from repro.datasets import split_queries
from repro.evaluation.report import format_table

_FACTORS = (0.125, 0.5, 1.0, 2.0, 8.0)


@pytest.fixture(scope="module")
def sweep(webspam_bench):
    data, queries = split_queries(webspam_bench.points, num_queries=NUM_QUERIES, seed=0)
    built = paper_index(data, "cosine", 0.08)
    index = built.engine.index
    measured = calibrate_cost_model(data, "cosine", seed=0).model
    rows = []
    searchers = {}
    for factor in _FACTORS:
        model = CostModel(alpha=measured.alpha, beta=measured.beta * factor)
        hybrid = HybridSearcher(index, model)
        start = time.perf_counter()
        results = [hybrid.query(q, 0.08) for q in queries]
        elapsed = time.perf_counter() - start
        linear_share = float(np.mean(
            [r.stats.strategy.value == "linear" for r in results]
        ))
        searchers[factor] = hybrid
        rows.append((factor, model.beta_over_alpha, elapsed, linear_share))
    print("\n=== Ablation A4: cost-model mis-calibration (webspam-like) ===")
    print(format_table(
        ["factor", "beta/alpha", "total s", "%linear"],
        [[f"{f:g}", f"{r:.2f}", f"{s:.3f}", f"{100 * ls:.0f}%"] for f, r, s, ls in rows],
    ))
    yield rows, searchers, queries
    built.close()


@pytest.mark.parametrize("factor", [0.125, 1.0, 8.0])
def test_hybrid_under_miscalibration(benchmark, factor, sweep):
    _, searchers, queries = sweep
    hybrid = searchers[factor]

    def run():
        return [hybrid.query(q, 0.08).output_size for q in queries[:15]]

    benchmark(run)


def test_linear_share_monotone_in_ratio(sweep):
    """Higher beta/alpha (cheaper dedup) must use linear search less."""
    rows, _, _ = sweep
    shares = [ls for _, _, _, ls in rows]
    assert shares[0] >= shares[-1]
