"""Tests for the multi-probe LSH index extension."""

import pytest

from repro.core import CostModel, HybridSearcher, LSHSearch
from repro.exceptions import ConfigurationError
from repro.hashing import BitSamplingLSH, PStableLSH, SimHashLSH
from repro.index import LSHIndex


class TestMultiProbeLookup:
    def test_probe_count_per_table(self, gaussian_points):
        index = LSHIndex(
            SimHashLSH(16, seed=1), k=6, num_tables=5, num_probes=3
        ).build(gaussian_points)
        lookup = index.lookup(gaussian_points[0])
        assert len(lookup.keys) == 5 * (1 + 3)
        assert len(lookup.hash_rows) == 5

    def test_zero_probes_is_the_default_and_classic(self, gaussian_points):
        classic = LSHIndex(SimHashLSH(16, seed=1), k=6, num_tables=5).build(gaussian_points)
        assert classic.num_probes == classic.probe_count == 0
        q = gaussian_points[3]
        lookup = classic.lookup(q)
        assert len(lookup.keys) == 5
        assert [t.get(key) for t, key in zip(classic.tables, lookup.keys)] == lookup.buckets

    def test_probing_never_loses_candidates(self, gaussian_points):
        classic = LSHIndex(SimHashLSH(16, seed=1), k=6, num_tables=5).build(gaussian_points)
        probed = LSHIndex(
            SimHashLSH(16, seed=1), k=6, num_tables=5, num_probes=4
        ).build(gaussian_points)
        q = gaussian_points[7]
        base = set(classic.candidate_ids(classic.lookup(q)).tolist())
        extended = set(probed.candidate_ids(probed.lookup(q)).tolist())
        assert base <= extended

    def test_probing_improves_recall_with_few_tables(self, gaussian_points):
        """Probes substitute for tables: recall with L=3+probes >= L=3 alone."""
        radius = 1.5
        q = gaussian_points[11]
        classic = LSHIndex(
            PStableLSH(16, w=2.0, p=2, seed=2), k=6, num_tables=3
        ).build(gaussian_points)
        probed = LSHIndex(
            PStableLSH(16, w=2.0, p=2, seed=2), k=6, num_tables=3, num_probes=8
        ).build(gaussian_points)
        found_classic = LSHSearch(classic).query(q, radius).output_size
        found_probed = LSHSearch(probed).query(q, radius).output_size
        assert found_probed >= found_classic

    def test_negative_probes_raises(self):
        with pytest.raises(ConfigurationError):
            LSHIndex(SimHashLSH(4, seed=0), k=2, num_tables=2, num_probes=-1)

    def test_binary_family_uses_bit_flips(self, binary_points):
        index = LSHIndex(
            BitSamplingLSH(32, seed=1), k=5, num_tables=4, num_probes=3
        ).build(binary_points)
        lookup = index.lookup(binary_points[0])
        assert len(lookup.keys) == 4 * 4

    def test_pstable_offsets_precomputed(self, gaussian_points):
        index = LSHIndex(
            PStableLSH(16, w=2.0, p=2, seed=1), k=4, num_tables=2, num_probes=5
        )
        assert not index._binary_values
        assert index._probe_deltas.shape == (5, 4)

    def test_repr_mentions_probes(self):
        index = LSHIndex(SimHashLSH(4, seed=0), k=2, num_tables=2, num_probes=7)
        assert "probes=7" in repr(index)


class TestHybridOnMultiProbe:
    def test_hybrid_searcher_works_unchanged(self, gaussian_points):
        """The paper's future-work claim: hybrid drops onto multi-probe."""
        index = LSHIndex(
            PStableLSH(16, w=2.0, p=2, seed=3), k=4, num_tables=4, num_probes=4
        ).build(gaussian_points)
        hybrid = HybridSearcher(index, CostModel.from_ratio(5.0))
        result = hybrid.query(gaussian_points[0], radius=1.0)
        assert 0 in result.ids
        assert result.stats.num_collisions >= 4

    def test_merged_sketch_covers_probed_buckets(self, gaussian_points):
        index = LSHIndex(
            PStableLSH(16, w=2.0, p=2, seed=3), k=4, num_tables=4, num_probes=4
        ).build(gaussian_points)
        lookup = index.lookup(gaussian_points[0])
        exact = index.candidate_ids(lookup).size
        estimate = index.merged_sketch(lookup).estimate()
        assert exact > 0
        assert abs(estimate - exact) / exact < 0.5
