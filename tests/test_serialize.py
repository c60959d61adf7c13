"""Tests for index persistence (save_frozen_index / load_frozen_index).

Every case builds a dict-layout ``LSHIndex``, freezes it, saves the
frozen index and reopens it, then checks the reopened index against
the dict-layout index it came from: same buckets, candidates, sketches,
search answers and configuration, for every built-in hash family.
"""

import numpy as np
import pytest

from repro.core import CostModel, HybridSearcher, LSHSearch
from repro.exceptions import ConfigurationError, EmptyIndexError
from repro.hashing import BitSamplingLSH, PStableLSH, SimHashLSH
from repro.index import FrozenLSHIndex, LSHIndex
from repro.index.frozen import load_frozen_index, save_frozen_index


def roundtrip(index, tmp_path):
    path = str(tmp_path / "index")
    save_frozen_index(index.freeze(), path)
    return load_frozen_index(path)


class TestRoundtrip:
    @pytest.mark.parametrize(
        "family_factory",
        [
            lambda: PStableLSH(16, w=2.0, p=2, seed=5),
            lambda: PStableLSH(16, w=3.0, p=1, seed=5),
            lambda: SimHashLSH(16, seed=5),
        ],
    )
    def test_real_valued_families(self, family_factory, gaussian_points, tmp_path):
        index = LSHIndex(family_factory(), k=4, num_tables=6, hll_seed=2).build(
            gaussian_points
        )
        loaded = roundtrip(index, tmp_path)
        for i in (0, 17, 91):
            q = gaussian_points[i]
            a = index.lookup(q)
            b = loaded.lookup(q)
            assert index.num_collisions(q) == loaded.num_collisions(q)
            assert np.array_equal(index.candidate_ids(a), loaded.candidate_ids(b))

    def test_bit_sampling(self, binary_points, tmp_path):
        index = LSHIndex(BitSamplingLSH(32, seed=1), k=8, num_tables=5).build(
            binary_points
        )
        loaded = roundtrip(index, tmp_path)
        q = binary_points[3]
        assert np.array_equal(
            index.candidate_ids(index.lookup(q)), loaded.candidate_ids(loaded.lookup(q))
        )

    def test_sketches_rebuilt_identically(self, gaussian_points, tmp_path):
        index = LSHIndex(
            PStableLSH(16, w=2.0, p=2, seed=5), k=4, num_tables=6, hll_seed=9
        ).build(gaussian_points)
        loaded = roundtrip(index, tmp_path)
        q = gaussian_points[0]
        original = index.merged_sketch(index.lookup(q))
        restored = loaded.merged_sketch(loaded.lookup(q))
        assert original == restored

    def test_search_results_identical(self, gaussian_points, tmp_path):
        index = LSHIndex(PStableLSH(16, w=2.0, p=2, seed=5), k=4, num_tables=6).build(
            gaussian_points
        )
        loaded = roundtrip(index, tmp_path)
        a = LSHSearch(index).query(gaussian_points[2], 1.5)
        b = LSHSearch(loaded).query(gaussian_points[2], 1.5)
        assert np.array_equal(a.ids, b.ids)
        assert np.allclose(a.distances, b.distances)

    def test_hybrid_works_on_loaded_index(self, gaussian_points, tmp_path):
        index = LSHIndex(PStableLSH(16, w=2.0, p=2, seed=5), k=4, num_tables=6).build(
            gaussian_points
        )
        loaded = roundtrip(index, tmp_path)
        hybrid = HybridSearcher(loaded, CostModel.from_ratio(6.0))
        result = hybrid.query(gaussian_points[0], radius=1.0)
        assert 0 in result.ids

    def test_config_preserved(self, gaussian_points, tmp_path):
        index = LSHIndex(
            PStableLSH(16, w=2.5, p=1, seed=3),
            k=3,
            num_tables=4,
            hll_precision=6,
            hll_seed=11,
            lazy_threshold=17,
            dedup="vectorized",
        ).build(gaussian_points)
        loaded = roundtrip(index, tmp_path)
        assert isinstance(loaded, FrozenLSHIndex)
        assert loaded.k == 3
        assert loaded.num_tables == 4
        assert loaded.hll_precision == 6
        assert loaded.hll_seed == 11
        assert loaded.lazy_threshold == 17
        assert loaded.dedup == "vectorized"
        assert loaded.family.p == 1
        assert loaded.family.w == 2.5


class TestErrors:
    def test_unbuilt_index_rejected(self, tmp_path):
        target = tmp_path / "x"
        with pytest.raises(EmptyIndexError):
            LSHIndex(SimHashLSH(8, seed=0), k=2, num_tables=2).freeze()
        with pytest.raises(EmptyIndexError):
            save_frozen_index(
                FrozenLSHIndex(SimHashLSH(8, seed=0), k=2, num_tables=2), str(target)
            )
        # The saver persists frozen indexes only, built or not.
        with pytest.raises(ConfigurationError):
            save_frozen_index(LSHIndex(SimHashLSH(8, seed=0), k=2, num_tables=2),
                              str(target))
        assert not target.exists()

    @pytest.mark.parametrize(
        "kind,array", [("mine", "planes"), ("simhash", "normals")],
        ids=["unknown-family", "foreign-arrays"],
    )
    def test_kernel_the_loader_cannot_rebuild_rejected(
        self, gaussian_points, tmp_path, kind, array
    ):
        """A subclassed family's kernel is refused before anything is
        written: the artifact already at the target still opens."""

        class PlugInFamily(SimHashLSH):
            def sample_batch(self, k, num_tables):
                batched = super().sample_batch(k, num_tables)
                batched.kind, batched.params = kind, {array: batched.params["planes"]}
                return batched

        target = str(tmp_path / "x")
        good = FrozenLSHIndex(SimHashLSH(16, seed=0), k=2, num_tables=2)
        save_frozen_index(good.build(gaussian_points), target)
        index = FrozenLSHIndex(PlugInFamily(16, seed=0), k=2, num_tables=2)
        with pytest.raises(ConfigurationError, match="cannot persist"):
            save_frozen_index(index.build(gaussian_points), target)
        assert load_frozen_index(target).num_collisions(gaussian_points[0]) == (
            good.num_collisions(gaussian_points[0])
        )

    def test_sketchless_roundtrip(self, gaussian_points, tmp_path):
        index = LSHIndex(
            SimHashLSH(16, seed=0), k=3, num_tables=3, with_sketches=False
        ).build(gaussian_points)
        loaded = roundtrip(index, tmp_path)
        assert not loaded.with_sketches
        q = gaussian_points[1]
        assert np.array_equal(
            index.candidate_ids(index.lookup(q)), loaded.candidate_ids(loaded.lookup(q))
        )
