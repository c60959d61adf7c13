"""End-to-end tests of the experiment specs (tiny scale)."""

import dataclasses
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import CostModel
from repro.datasets import corel_like, covertype_like, mnist_like, webspam_like
from repro.evaluation import (
    experiments,
    figure2_experiment,
    figure3_experiment,
    format_figure2,
    format_figure3,
    recall_experiment,
    table1_experiment,
)
from repro.evaluation.report import format_table, format_table1
from repro.index import FrozenLSHIndex, LSHIndex

from conftest import reference_index


@pytest.fixture(scope="module")
def tiny_webspam():
    return webspam_like(n=1200, seed=0)


@pytest.fixture(scope="module")
def tiny_corel():
    return corel_like(n=1200, seed=0)


class TestTable1:
    def test_row_fields(self, tiny_corel):
        row = table1_experiment(tiny_corel, num_queries=20, num_tables=10, seed=0)
        assert row.dataset == "corel-like"
        assert row.num_queries == 20
        assert row.radius == tiny_corel.radii[0]
        assert 0.0 <= row.cost_percent <= 100.0
        assert row.error_percent >= 0.0

    def test_hll_error_small(self, tiny_webspam):
        """The candSize estimate should be within ~2x the HLL error bound."""
        row = table1_experiment(tiny_webspam, num_queries=25, num_tables=10, seed=0)
        assert row.error_percent < 25.0  # 1.04/sqrt(128) ~ 9.2% expected

    def test_custom_radius(self, tiny_corel):
        row = table1_experiment(tiny_corel, num_queries=10, radius=0.5, num_tables=5, seed=0)
        assert row.radius == 0.5


class TestFigure2:
    def test_rows(self, tiny_corel):
        rows = figure2_experiment(
            tiny_corel,
            radii=(0.4, 0.6),
            num_queries=15,
            repeats=1,
            num_tables=8,
            seed=0,
        )
        assert len(rows) == 2
        for row in rows:
            assert row.hybrid_seconds > 0
            assert row.lsh_seconds > 0
            assert row.linear_seconds > 0
            assert row.linear_recall == 1.0
            assert 0.0 <= row.hybrid_recall <= 1.0
            assert row.winner in ("hybrid", "lsh", "linear")

    def test_hybrid_never_much_worse_than_best(self, tiny_webspam):
        """The paper's claim: hybrid ~ min(LSH, linear) per radius.

        Priced in the run's cost model (candidates examined and points
        scanned, alpha/beta-weighted) rather than wall clock, so it moves
        only when a dispatch decision does, never with host load."""
        rows = figure2_experiment(
            tiny_webspam,
            radii=(0.05, 0.1, 0.3),
            num_queries=20,
            repeats=1,
            num_tables=10,
            cost_model=CostModel.from_ratio(10.0),
            seed=0,
            with_recall=False,
        )
        for row in rows:
            assert row.hybrid_work <= min(row.lsh_work, row.linear_work)
        # Where the dispatch mixes both strategies, hybrid beats both.
        mixed = [row for row in rows if 0.0 < row.linear_call_fraction < 1.0]
        assert mixed
        for row in mixed:
            assert row.hybrid_work < min(row.lsh_work, row.linear_work)

    def test_without_recall(self, tiny_corel):
        rows = figure2_experiment(
            tiny_corel, radii=(0.4,), num_queries=5, repeats=1, num_tables=4,
            seed=0, with_recall=False,
        )
        assert np.isnan(rows[0].hybrid_recall)


class TestFigure3:
    def test_rows(self, tiny_webspam):
        rows = figure3_experiment(
            tiny_webspam, radii=(0.05, 0.1), num_queries=25, num_tables=8, seed=0
        )
        assert len(rows) == 2
        for row in rows:
            assert row.min_output <= row.avg_output <= row.max_output
            assert 0.0 <= row.linear_call_percent <= 100.0
            assert row.n == tiny_webspam.n - 25

    def test_output_spread_on_webspam(self, tiny_webspam):
        """Hard queries (> n/4) and easy queries (tiny) coexist."""
        rows = figure3_experiment(
            tiny_webspam, radii=(0.1,), num_queries=40, num_tables=8, seed=0
        )
        row = rows[0]
        assert row.max_output > row.n / 4
        assert row.min_output < row.n / 50

    def test_linear_calls_monotonic_tendency(self, tiny_webspam):
        """%LS calls should not decrease as the radius grows (paper Fig 3)."""
        rows = figure3_experiment(
            tiny_webspam,
            radii=(0.05, 0.1),
            num_queries=30,
            num_tables=8,
            cost_model=CostModel.from_ratio(10.0),
            seed=0,
        )
        assert rows[1].linear_call_percent >= rows[0].linear_call_percent - 5.0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["33", "44"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_format_table1(self, tiny_corel):
        row = table1_experiment(tiny_corel, num_queries=5, num_tables=4, seed=0)
        text = format_table1([row])
        assert "corel-like" in text
        assert "% Cost" in text

    def test_format_figure2(self, tiny_corel):
        rows = figure2_experiment(
            tiny_corel, radii=(0.4,), num_queries=5, repeats=1, num_tables=4, seed=0
        )
        text = format_figure2(rows, title="Corel")
        assert "Corel" in text
        assert "Hybrid (s)" in text

    def test_format_figure3(self, tiny_webspam):
        rows = figure3_experiment(
            tiny_webspam, radii=(0.05,), num_queries=5, num_tables=4, seed=0
        )
        text = format_figure3(rows)
        assert "%LS calls" in text


#: The wall-clock fields of the paper rows; every other field is
#: deterministic given the data, the spec, the seed and the cost model.
TIMINGS = {"cost_percent", "hybrid_seconds", "lsh_seconds", "linear_seconds"}


def _paper_rows(dataset):
    """The deterministic fields of all four experiments on ``dataset``.

    The cost model is fixed: the Section 4.2 calibration times kernels,
    so two calibrated runs need not dispatch alike.
    """
    kw = dict(num_queries=12, num_tables=10, seed=1)
    model = CostModel.from_ratio(dataset.beta_over_alpha)
    rows = {
        "table1": [table1_experiment(dataset, **kw)],
        "figure2": figure2_experiment(dataset, repeats=1, cost_model=model, **kw),
        "figure3": figure3_experiment(dataset, cost_model=model, **kw),
        "recall": recall_experiment(dataset, cost_model=model, **kw),
    }
    return {
        name: [
            {k: v for k, v in dataclasses.asdict(row).items() if k not in TIMINGS}
            for row in table
        ]
        for name, table in rows.items()
    }


class TestPaperRowsPinned:
    """Table 1 and Figs. 2-3 run on the index ``Index.build`` serves;
    their rows equal those of the dict-layout reference of the same spec
    and seed, field for field (timings aside)."""

    @pytest.mark.parametrize(
        "make", [corel_like, covertype_like, webspam_like, mnist_like],
        ids=["l2", "l1", "cosine", "hamming"],
    )
    def test_rows_equal_reference_rows(self, make, monkeypatch):
        dataset = make(n=900, seed=1)
        served_types = set()
        served_index = experiments._served_index

        @contextmanager
        def recording(data, spec):
            with served_index(data, spec) as index:
                served_types.add(type(index))
                yield index

        monkeypatch.setattr(experiments, "_served_index", recording)
        served = _paper_rows(dataset)
        assert served_types == {FrozenLSHIndex}

        @contextmanager
        def reference(data, spec):
            index = reference_index(data, spec)
            assert type(index) is LSHIndex
            yield index

        monkeypatch.setattr(experiments, "_served_index", reference)
        assert served == _paper_rows(dataset)
