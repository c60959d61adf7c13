"""Tests for the result/statistics types."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.results import (
    STATS_COLUMNS,
    STRATEGY_CODES,
    QueryResult,
    QueryStats,
    ResultBlock,
    Strategy,
    stats_matrix,
    stats_row,
)


class TestStrategy:
    def test_values(self):
        assert Strategy.LSH.value == "lsh"
        assert Strategy.LINEAR.value == "linear"

    def test_string_comparison(self):
        assert Strategy.LSH == "lsh"


class TestQueryStats:
    def test_defaults(self):
        stats = QueryStats()
        assert stats.num_collisions == 0
        assert np.isnan(stats.estimated_candidates)
        assert stats.exact_candidates == -1
        assert stats.strategy == Strategy.LSH


class TestQueryResult:
    @pytest.fixture
    def result(self):
        return QueryResult(
            ids=np.array([2, 5, 9]),
            distances=np.array([0.1, 0.5, 0.9]),
            radius=1.0,
        )

    def test_output_size(self, result):
        assert result.output_size == 3

    def test_recall_perfect(self, result):
        assert result.recall_against(np.array([2, 5, 9])) == 1.0

    def test_recall_partial(self, result):
        assert result.recall_against(np.array([2, 5, 9, 11])) == 0.75

    def test_recall_empty_truth(self, result):
        assert result.recall_against(np.array([])) == 1.0

    def test_recall_zero(self, result):
        assert result.recall_against(np.array([100, 200])) == 0.0

    def test_repr(self, result):
        text = repr(result)
        assert "found=3" in text
        assert "lsh" in text

    def test_empty_result(self):
        result = QueryResult(
            ids=np.empty(0, dtype=np.int64),
            distances=np.empty(0),
            radius=0.5,
        )
        assert result.output_size == 0
        assert result.recall_against(np.array([1])) == 0.0


class TestAsDict:
    @pytest.mark.parametrize("id_dtype", [np.int64, np.uint32])
    def test_json_bytes_match_the_per_element_encoding(self, id_dtype):
        """``as_dict`` converts with ``tolist``; the stream's bytes are
        those of the per-element ``int`` / ``float`` conversion, the
        extreme float64 values included."""
        distances = np.array([0.0, 5e-324, 1.7e308, 0.1, 1 / 3, 2.5e-17], dtype=np.float64)
        ids = np.array([0, 1, 7, 2**31, 4_000_000_000, 12], dtype=id_dtype)
        result = QueryResult(ids=ids, distances=distances, radius=0.75)
        per_element = {
            **result.as_dict(),
            "ids": [int(i) for i in ids],
            "distances": [float(d) for d in distances],
        }
        assert json.dumps(result.as_dict()) == json.dumps(per_element)
        assert json.dumps(result.as_dict()["distances"]) == (
            "[0.0, 5e-324, 1.7e+308, 0.1, 0.3333333333333333, 2.5e-17]"
        )


def _rows():
    return [
        QueryResult(
            ids=np.array([1, 4], dtype=np.int64),
            distances=np.array([0.25, 0.5]),
            radius=1.0,
            stats=QueryStats(
                num_collisions=9, estimated_candidates=3.5, exact_candidates=4,
                estimated_lsh_cost=30.0, linear_cost=600.0, strategy=Strategy.LSH,
                probes_used=2, exact=False,
            ),
        ),
        QueryResult(
            ids=np.array([0, 2, 3], dtype=np.int64),
            distances=np.array([0.0, 0.75, 0.125]),
            radius=1.0,
            stats=QueryStats(
                num_collisions=700, estimated_candidates=90.0, exact_candidates=100,
                estimated_lsh_cost=1240.0, linear_cost=600.0, strategy=Strategy.LINEAR,
                probes_used=0, exact=True,
            ),
        ),
    ]


class TestResultBlock:
    def test_stats_columns_are_the_query_stats_fields(self):
        assert STATS_COLUMNS == tuple(f.name for f in dataclasses.fields(QueryStats))
        assert [STRATEGY_CODES[s] for s in Strategy] == list(range(len(Strategy)))

    def test_stats_matrix_places_cells_by_name(self):
        row = [stats_row(r.stats) for r in _rows()]
        flat = row[0] + row[1]
        assert stats_matrix(flat, STATS_COLUMNS).tolist() == row
        names = tuple(reversed(STATS_COLUMNS))
        reordered = row[0][::-1] + row[1][::-1]
        assert stats_matrix(reordered, names).tolist() == row
        assert stats_matrix([], STATS_COLUMNS).shape == (0, len(STATS_COLUMNS))
        with pytest.raises(ValueError):
            stats_matrix(flat, (*STATS_COLUMNS[:-1], "unknown"))

    def test_degraded_rows_reads_no_row(self):
        source = ResultBlock.from_rows(_rows())
        block = ResultBlock(
            1.0, source.ids, source.distances, source.stats.copy(),
            degraded=True, missing_shards=(1,),
        )
        assert block.degraded_rows() == 2 and block._rows == [None, None]
        assert source.degraded_rows() == 0
        mixed = ResultBlock.from_rows(
            [_rows()[0], dataclasses.replace(_rows()[1], degraded=True, missing_shards=(1,))]
        )
        assert mixed.degraded and mixed.missing_shards == (1,)
        assert mixed.degraded_rows() == 1

    def test_rows_are_made_from_the_columns_once(self):
        rows = _rows()
        source = ResultBlock.from_rows(rows)
        block = ResultBlock(1.0, source.ids, source.distances, source.stats.copy())
        assert len(block) == 2 and block._rows == [None, None]
        first = block[1]
        assert block[1] is first and block[-1] is first and block._rows[0] is None
        assert first.ids is rows[1].ids  # the column's array, no copy
        for made, original in zip(block, rows):
            assert repr(made.stats) == repr(original.stats)
            assert made.stats == original.stats
            assert np.array_equal(made.distances, original.distances)
            assert made.radius == 1.0 and not made.degraded
        assert block[0:2] == (block[0], block[1])
        with pytest.raises(IndexError):
            block[2]

    def test_from_rows_hands_out_the_rows_themselves(self):
        rows = _rows()
        block = ResultBlock.from_rows(rows)
        assert list(block) == rows and block[0] is rows[0]
        assert block.radius == 1.0
        assert block.stats.tolist() == [stats_row(r.stats) for r in rows]
        assert block.strategy_counts() == {"lsh": 1, "linear": 1}
        empty = ResultBlock.from_rows([], 0.5)
        assert len(empty) == 0 and empty.radius == 0.5 and empty.strategy_counts() == {}

    def test_columns_are_the_radius_reply_shape(self):
        counts, ids, distances, stats = ResultBlock.from_rows(_rows()).columns()
        assert counts.tolist() == [2, 3]
        assert ids.tolist() == [1, 4, 0, 2, 3]
        assert distances.tolist() == [0.25, 0.5, 0.0, 0.75, 0.125]
        assert stats.shape == (2, len(STATS_COLUMNS))
        counts, ids, distances, stats = ResultBlock.from_rows([]).columns()
        assert counts.shape == ids.shape == distances.shape == (0,)
        assert stats.shape == (0, len(STATS_COLUMNS))

    def test_the_block_is_immutable(self):
        block = ResultBlock.from_rows(_rows())
        with pytest.raises(ValueError):
            block.stats[0, 0] = 1.0
        with pytest.raises(AttributeError):
            block.radius = 2.0
        with pytest.raises(AttributeError):
            block.extra = 1

    def test_columns_must_agree(self):
        rows = _rows()
        with pytest.raises(ValueError):
            ResultBlock(1.0, (rows[0].ids,), (), np.zeros((1, len(STATS_COLUMNS))))
        with pytest.raises(ValueError):
            ResultBlock(1.0, (rows[0].ids,), (rows[0].distances,), np.zeros((1, 7)))
