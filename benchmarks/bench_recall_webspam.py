"""The paper's omitted experiment — recall: hybrid vs LSH vs theory.

Section 4.2 closes with: "We note that hybrid search gives higher
recall ratio than LSH-based search since it uses linear search for
'hard' queries.  Due to the limit of space, we do not report it here."

This benchmark reports it: measured recall of hybrid and pure LSH
across the Webspam radius sweep, next to the analytic expectation
``mean 1 - (1 - p(c)^k)^L`` over the true neighbors' distances.

Expected shape: hybrid recall >= LSH recall at every radius (its
linear branch is exact), with the gap widening as the %linear-call
share grows; LSH recall tracks the analytic line.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import NUM_QUERIES, NUM_TABLES, paper_index
from repro.core import HybridSearcher
from repro.core.calibration import calibrate_cost_model
from repro.datasets import split_queries
from repro.evaluation import GroundTruth, mean_recall, recall_experiment
from repro.evaluation.report import format_recall


@pytest.fixture(scope="module")
def recall_rows(webspam_bench):
    rows = recall_experiment(
        webspam_bench, num_queries=NUM_QUERIES, num_tables=NUM_TABLES, seed=0
    )
    print("\n=== Recall vs radius (webspam-like) — the paper's omitted result ===")
    print(format_recall(rows))
    print("expected shape: hybrid >= lsh at every radius; lsh tracks analytic")
    return rows


def test_recall_measurement(benchmark, webspam_bench, recall_rows):
    """Time the recall measurement pipeline at one radius."""
    data, queries = split_queries(webspam_bench.points, num_queries=10, seed=0)
    built = paper_index(data, "cosine", 0.08)
    model = calibrate_cost_model(data, "cosine", seed=0).model
    hybrid = HybridSearcher(built.engine.index, model)
    truth = GroundTruth(data, queries, "cosine")
    truth_sets = truth.neighbor_sets(0.08)

    def run():
        reported = [hybrid.query(q, 0.08).ids for q in queries]
        return mean_recall(reported, truth_sets)

    value = benchmark(run)
    built.close()
    assert 0.5 <= value <= 1.0


def test_hybrid_recall_dominates(recall_rows):
    """The paper's claim, verified at every radius."""
    for row in recall_rows:
        assert row.hybrid_recall >= row.lsh_recall - 1e-9, row


def test_lsh_recall_tracks_theory(recall_rows):
    for row in recall_rows:
        assert abs(row.lsh_recall - row.analytic_recall) < 0.15, row
