"""Figure 2 — CPU time vs radius for hybrid / LSH / linear, all four panels.

Paper shapes (L = 50):

* (a) MNIST, Hamming on 64-bit fingerprints, r = 12..17: at small r
  hybrid and LSH beat linear decisively; as r grows LSH-based search
  degrades and hybrid bends toward (and converges to) the flat linear
  line, staying at or below the better of the two at every radius.
* (b) Webspam, cosine — the headline panel: hard queries exist even at
  tiny radii, so hybrid is *strictly* better than both pure strategies
  across the sweep (LSH pays duplicate removal on the spam-farm
  queries, linear wastes full scans on the easy ones).
* (c) CoverType, L1 (Cauchy p-stable, k = 8, w = 4r), r = 3000..4000:
  LSH and hybrid are comparable at the small end; as r grows the output
  sizes blow up and hybrid departs from LSH toward the linear line.
* (d) Corel, L2 (Gaussian p-stable, k = 7, w = 2r), r = 0.35..0.6:
  hybrid and LSH are far below linear at small radii; LSH degrades past
  the mid-sweep and hybrid converges to linear instead of following it.

The printed series per panel is the regenerated artifact; the
pytest-benchmark entries time one full query-set pass per strategy at
one radius of the panel, on the index :meth:`repro.api.Index.build`
serves.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from benchmarks.conftest import NUM_QUERIES, NUM_TABLES, REPEATS, paper_index
from repro.core import CostModel, HybridSearcher, LinearScan, LSHSearch
from repro.datasets import split_queries
from repro.evaluation import figure2_experiment
from repro.evaluation.report import format_figure2


@dataclass(frozen=True)
class Panel:
    letter: str
    title: str
    #: The radius the strategies are timed at (``None``: the sweep's largest).
    radius: float | None
    shape: str


PANELS = {
    "mnist": Panel(
        "a", "MNIST-like, Hamming distance", None,
        "hybrid <= min(lsh, linear); converges to linear at large r",
    ),
    "webspam": Panel(
        "b", "Webspam-like, cosine distance", 0.08,
        "hybrid strictly below both pure strategies",
    ),
    "covertype": Panel(
        "c", "CoverType-like, L1 distance", 3600.0,
        "hybrid tracks lsh at small r, bends to linear at large r",
    ),
    "corel": Panel(
        "d", "Corel-like, L2 distance", 0.5,
        "hybrid ~ lsh << linear at small r; hybrid -> linear at large r",
    ),
}


@pytest.fixture(scope="module", params=list(PANELS))
def panel(request):
    """``(panel, dataset)`` of one Figure 2 panel."""
    return PANELS[request.param], request.getfixturevalue(f"{request.param}_bench")


@pytest.fixture(scope="module")
def fig2_rows(panel):
    spec, dataset = panel
    rows = figure2_experiment(
        dataset,
        num_queries=NUM_QUERIES,
        repeats=REPEATS,
        num_tables=NUM_TABLES,
        seed=0,
    )
    print(f"\n=== Figure 2({spec.letter}): {spec.title} ===")
    print(format_figure2(rows))
    print(f"paper shape: {spec.shape}")
    return rows


@pytest.fixture(scope="module")
def strategies(panel):
    spec, dataset = panel
    radius = float(max(dataset.radii)) if spec.radius is None else spec.radius
    data, queries = split_queries(dataset.points, num_queries=NUM_QUERIES, seed=0)
    built = paper_index(data, dataset.metric, radius)
    index = built.engine.index
    model = CostModel.from_ratio(dataset.beta_over_alpha)
    yield {
        "hybrid": HybridSearcher(index, model),
        "lsh": LSHSearch(index),
        "linear": LinearScan(data, dataset.metric),
    }, queries, radius
    built.close()


@pytest.mark.parametrize("strategy", ["hybrid", "lsh", "linear"])
def test_fig2_query_set(benchmark, strategy, strategies, fig2_rows):
    searchers, queries, radius = strategies
    searcher = searchers[strategy]

    def run():
        return [searcher.query(q, radius).output_size for q in queries]

    sizes = benchmark(run)
    assert len(sizes) == len(queries)


def test_fig2_shape(panel, fig2_rows):
    """Shape check: hybrid is never far above the per-radius best."""
    for row in fig2_rows:
        best = min(row.lsh_seconds, row.linear_seconds)
        assert row.hybrid_seconds <= 2.0 * best, row
    if PANELS["webspam"] is panel[0]:
        # Hard queries exist from small radii: hybrid issues linear calls.
        assert any(row.linear_call_fraction > 0.0 for row in fig2_rows)
