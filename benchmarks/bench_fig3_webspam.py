"""Figure 3 — output-size spread and %linear-search calls on Webspam.

Left panel (paper): even at r <= 0.1 the maximum output size exceeds
n/2 while the minimum is near zero — Webspam has both very hard and
very easy queries at every radius.

Right panel (paper): the share of hybrid queries dispatched to linear
search grows from ~10% at r = 0.05 to ~50% at r = 0.1.

The printed series regenerates both panels; the pytest-benchmark entry
times the *decision step alone* (lookup + collision count + HLL merge
+ cost comparison), which is the entire overhead hybrid adds on top of
whichever strategy it picks.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import NUM_QUERIES, NUM_TABLES, paper_index
from repro.core import CostModel, HybridSearcher
from repro.datasets import split_queries
from repro.evaluation import figure3_experiment
from repro.evaluation.report import format_figure3


@pytest.fixture(scope="module")
def fig3_rows(webspam_bench):
    rows = figure3_experiment(
        webspam_bench, num_queries=NUM_QUERIES, num_tables=NUM_TABLES, seed=0
    )
    print("\n=== Figure 3: Webspam-like output sizes and %LS calls ===")
    print(format_figure3(rows))
    print("paper shape: max output ~ n/2, min ~ 0; %LS grows with r")
    return rows


def test_fig3_decision_overhead(benchmark, webspam_bench, fig3_rows):
    """Time the Algorithm 2 decision (the hybrid-added overhead)."""
    data, queries = split_queries(webspam_bench.points, num_queries=10, seed=0)
    built = paper_index(data, "cosine", 0.08)
    hybrid = HybridSearcher(built.engine.index, CostModel.from_ratio(10.0))

    def decide_all():
        return [hybrid.decide(q) for q in queries]

    decisions = benchmark(decide_all)
    built.close()
    assert len(decisions) == 10


def test_fig3_shape(fig3_rows):
    """Shape checks for both panels."""
    largest = fig3_rows[-1]
    # Left panel: wide output spread (hard and easy queries coexist).
    assert largest.max_output > largest.n / 4
    assert fig3_rows[0].min_output <= largest.n / 100
    # Right panel: linear-call share grows (weakly) across the sweep.
    assert fig3_rows[-1].linear_call_percent >= fig3_rows[0].linear_call_percent
    # And at the largest radius a sizable share of queries go linear.
    assert fig3_rows[-1].linear_call_percent >= 10.0
