"""The A/B driver's verdict rules on synthetic runs (no git, no benchmark)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# Ten parent runs around 1.0 with quartiles [0.9925, 1.0075]: a spread
# of 1.5 % of the median, well inside a 0.15 bound.
PARENT = [0.98, 0.99, 0.99, 1.0, 1.0, 1.0, 1.0, 1.01, 1.01, 1.02]


def _shifted(factor):
    return [factor * value for value in PARENT]


class TestVerdict:
    def test_regressed_when_median_worse_than_bound(self):
        assert ab.verdict(PARENT, _shifted(1.2), "lower", 0.15) == "regressed"
        assert ab.verdict(PARENT, _shifted(0.8), "higher", 0.15) == "regressed"
        # worse, but inside the bound: not a regression
        assert ab.verdict(PARENT, _shifted(1.1), "lower", 0.15) == "unchanged"

    def test_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread(self):
        assert ab.verdict(PARENT, _shifted(0.9), "lower", 0.15) == "gain"
        assert ab.verdict(PARENT, _shifted(1.1), "higher", 0.15) == "gain"
        # every pair won, but by less than the parent's own quartile spread
        assert ab.verdict(PARENT, _shifted(0.995), "lower", 0.15) == "unchanged"
        # a clear median gap, but only 8 of 10 pairs won
        mostly = _shifted(0.9)
        mostly[0], mostly[9] = 1.5, 1.5
        assert ab.verdict(PARENT, mostly, "lower", 0.15) == "unchanged"
        # fewer than ten pairs never claim a gain
        assert ab.verdict(PARENT[:5], _shifted(0.5)[:5], "lower", 0.15) == "unchanged"

    def test_ties_count_for_neither_side(self):
        assert ab.verdict(PARENT, list(PARENT), "lower", 0.15) == "unchanged"
        assert ab.wins_and_ties(PARENT, list(PARENT), "lower") == (0, 10)
        # exact metrics: 4 ties, 6 strict wins of 6 untied pairs
        change = PARENT[:4] + [0.5 * value for value in PARENT[4:]]
        assert ab.wins_and_ties(PARENT, change, "lower") == (6, 4)
        assert ab.verdict(PARENT, change, "lower", 0.15) == "gain"

    def test_unresolved_when_parent_spread_exceeds_the_bound(self):
        noisy = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.3, 1.4, 1.5]
        assert ab.verdict(noisy, list(noisy), "lower", 0.15) == "unresolved"
        # ... unless every change run beats every parent run
        assert ab.verdict(noisy, [0.4] * 10, "lower", 0.15) == "gain"
        assert ab.verdict(noisy, [2.0] * 10, "lower", 0.15) == "regressed"

    def test_single_pair_is_its_own_quartiles(self):
        assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
        assert ab.verdict([1.0], [1.0], "lower", 0.15) == "unchanged"
        assert ab.verdict([1.0], [1.3], "lower", 0.15) == "regressed"


class TestLayerRows:
    def test_one_row_per_named_metric_with_both_medians(self):
        parent = {"index.lookup_us": [44.0, 40.0, 48.0], "index.gather_us": [80.0]}
        change = {"index.lookup_us": [22.0, 21.0, 30.0], "index.gather_us": [80.0]}
        rows = ab.layer_rows(
            "shard_procs_rw", ["index.lookup_us", "index.gather_us"], parent, change
        )
        assert rows == [
            "| `shard_procs_rw` | `index.lookup_us` | 44 | 22 | -50.0 % |",
            "| `shard_procs_rw` | `index.gather_us` | 80 | 80 | +0.0 % |",
        ]

    def test_a_metric_one_side_never_emitted_reads_na(self):
        rows = ab.layer_rows(
            "mixed_batch", ["index.lookup_adaptive_us"], {}, {"index.lookup_adaptive_us": [88.0]}
        )
        assert rows == ["| `mixed_batch` | `index.lookup_adaptive_us` | n/a | 88 | n/a |"]
