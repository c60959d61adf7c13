"""Extension E (paper Section 5) — hybrid search on multi-probe LSH.

The paper's conclusion: "our hybrid search fits well with the
multi-probe LSH schemes ... which typically require a large number of
probes.  Applying hybrid search on these LSH schemes for rNNS will be
our future work."

This benchmark implements that future work: the index with L = 10
tables and ``num_probes=8`` per table (examining 90 buckets per query,
close to the classic L = 50's 50 buckets but with 5x less memory) is
compared against the same index at ``num_probes=0`` (the classic
scheme), both searched classically and hybridly.

Expected shape: multi-probe reaches comparable recall with far fewer
tables; because it examines *more* buckets per query its collision
volume is at least as large, so the hybrid dispatch pays off at least
as much as on the classic index — confirming the paper's conjecture.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import NUM_QUERIES
from repro.core import HybridSearcher, LSHSearch
from repro.core.calibration import calibrate_cost_model
from repro.core.presets import paper_parameters
from repro.datasets import split_queries
from repro.evaluation import GroundTruth, mean_recall
from repro.evaluation.report import format_table
from repro.index import LSHIndex

_RADIUS = 0.08


@pytest.fixture(scope="module")
def setup(webspam_bench):
    data, queries = split_queries(webspam_bench.points, num_queries=NUM_QUERIES, seed=0)
    params = paper_parameters(
        "cosine", dim=data.shape[1], radius=_RADIUS, num_tables=10, seed=0
    )
    classic = LSHIndex(
        params.family, k=params.k, num_tables=10, hll_precision=7
    ).build(data)
    params_mp = paper_parameters(
        "cosine", dim=data.shape[1], radius=_RADIUS, num_tables=10, seed=1
    )
    multiprobe = LSHIndex(
        params_mp.family, k=params_mp.k, num_tables=10, hll_precision=7, num_probes=8
    ).build(data)
    model = calibrate_cost_model(data, "cosine", seed=0).model
    truth = GroundTruth(data, queries, "cosine")
    return data, queries, classic, multiprobe, model, truth


@pytest.fixture(scope="module")
def report(setup):
    data, queries, classic, multiprobe, model, truth = setup
    truth_sets = truth.neighbor_sets(_RADIUS)
    rows = []
    searchers = {}
    for name, index in (("classic L=10", classic), ("multiprobe L=10 p=8", multiprobe)):
        for mode, searcher in (
            ("lsh", LSHSearch(index)),
            ("hybrid", HybridSearcher(index, model)),
        ):
            start = time.perf_counter()
            results = [searcher.query(q, _RADIUS) for q in queries]
            elapsed = time.perf_counter() - start
            recall = mean_recall([r.ids for r in results], truth_sets)
            rows.append((f"{name}/{mode}", elapsed, recall))
            searchers[f"{name}/{mode}"] = searcher
    print("\n=== Extension: hybrid on multi-probe LSH (webspam-like) ===")
    print(format_table(
        ["configuration", "total s", "recall"],
        [[n, f"{s:.3f}", f"{r:.3f}"] for n, s, r in rows],
    ))
    return rows, searchers


@pytest.mark.parametrize(
    "config", ["classic L=10/hybrid", "multiprobe L=10 p=8/hybrid"]
)
def test_hybrid_query_set(benchmark, config, setup, report):
    _, searchers = report
    searcher = searchers[config]
    _, queries, *_ = setup

    def run():
        return [searcher.query(q, _RADIUS).output_size for q in queries[:15]]

    benchmark(run)


def test_multiprobe_improves_recall(report):
    """More probed buckets -> recall at least matches the classic index."""
    rows, _ = report
    recalls = {name: r for name, _, r in rows}
    assert recalls["multiprobe L=10 p=8/lsh"] >= recalls["classic L=10/lsh"] - 0.02


def test_hybrid_recall_dominates_lsh(report):
    """On both indexes, hybrid recall >= pure LSH recall (linear is exact)."""
    rows, _ = report
    recalls = {name: r for name, _, r in rows}
    assert recalls["classic L=10/hybrid"] >= recalls["classic L=10/lsh"] - 1e-9
    assert (
        recalls["multiprobe L=10 p=8/hybrid"]
        >= recalls["multiprobe L=10 p=8/lsh"] - 1e-9
    )
