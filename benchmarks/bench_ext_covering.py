"""Extension E2 (paper Section 5) — hybrid search on covering LSH.

Covering LSH (Pagh, SODA 2016) guarantees *no false negatives*: with
``r + 1`` block tables, every point within Hamming radius ``r`` shares
a whole block with the query.  The price is very low selectivity —
block hashes are short, buckets are huge — which is exactly the
"large number of probes" regime the paper's conclusion predicts
benefits most from cost estimation.

This benchmark compares, on the MNIST-like fingerprints:

* classic LSH (probabilistic recall ~ 1 - delta),
* covering LSH searched classically (recall exactly 1.0, slow), and
* covering LSH + hybrid dispatch (recall exactly 1.0, with hard
  queries routed to the equally-exact linear scan).

Expected shape: covering+hybrid keeps the perfect recall of covering
LSH while cutting its worst-case query cost back to ~ linear scan.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import NUM_QUERIES, paper_index
from repro.core import HybridSearcher, LinearScan, LSHSearch
from repro.core.calibration import calibrate_cost_model
from repro.datasets import split_queries
from repro.evaluation import GroundTruth, mean_recall
from repro.evaluation.report import format_table
from repro.index import CoveringLSHIndex

_RADIUS = 12


@pytest.fixture(scope="module")
def report(mnist_bench):
    data, queries = split_queries(mnist_bench.points, num_queries=NUM_QUERIES, seed=0)
    built = paper_index(data, "hamming", _RADIUS)
    classic = built.engine.index
    covering = CoveringLSHIndex(
        dim=data.shape[1], radius=_RADIUS, seed=0
    ).build(data)
    model = calibrate_cost_model(data, "hamming", seed=0).model
    truth = GroundTruth(data, queries, "hamming")
    truth_sets = truth.neighbor_sets(float(_RADIUS))

    configurations = {
        "classic lsh": LSHSearch(classic),
        "covering lsh": LSHSearch(covering),
        "covering + hybrid": HybridSearcher(covering, model),
        "linear": LinearScan(data, "hamming"),
    }
    rows = []
    for name, searcher in configurations.items():
        start = time.perf_counter()
        results = [searcher.query(q, float(_RADIUS)) for q in queries]
        elapsed = time.perf_counter() - start
        recall = mean_recall([r.ids for r in results], truth_sets)
        rows.append((name, elapsed, recall))
    print("\n=== Extension: hybrid on covering LSH (mnist-like, r = 12) ===")
    print(format_table(
        ["configuration", "total s", "recall"],
        [[n, f"{s:.3f}", f"{r:.4f}"] for n, s, r in rows],
    ))
    yield rows, configurations, queries
    built.close()


@pytest.mark.parametrize("config", ["covering lsh", "covering + hybrid"])
def test_covering_query_set(benchmark, config, report):
    _, configurations, queries = report
    searcher = configurations[config]

    def run():
        return [searcher.query(q, float(_RADIUS)).output_size for q in queries[:15]]

    benchmark(run)


def test_covering_recall_is_perfect(report):
    """The covering guarantee: recall exactly 1.0, hybrid included."""
    rows, _, _ = report
    recalls = {name: r for name, _, r in rows}
    assert recalls["covering lsh"] == 1.0
    assert recalls["covering + hybrid"] == 1.0
    assert recalls["linear"] == 1.0


def test_hybrid_bounds_covering_cost(report):
    """Hybrid dispatch must not be far above the better pure strategy."""
    rows, _, _ = report
    times = {name: s for name, s, _ in rows}
    best = min(times["covering lsh"], times["linear"])
    # The decision overhead (r+1 sketch merges) is a larger share at
    # laptop scale than at the paper's n, hence the generous factor.
    assert times["covering + hybrid"] <= 3.0 * best
