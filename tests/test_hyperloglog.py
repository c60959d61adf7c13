"""Tests for the HyperLogLog sketch."""

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SketchError
from repro.sketches import HyperLogLog, PrecomputedHllHashes
from repro.sketches.hyperloglog import alpha_m, estimates_from_registers


def _sketch(count, p=7, seed=5):
    sketch = HyperLogLog(p=p, seed=seed)
    sketch.add_batch(np.arange(count))
    return sketch


class TestAlphaM:
    def test_known_constants(self):
        assert alpha_m(16) == 0.673
        assert alpha_m(32) == 0.697
        assert alpha_m(64) == 0.709

    def test_asymptotic_formula(self):
        assert alpha_m(128) == pytest.approx(0.7213 / (1 + 1.079 / 128))

    def test_monotone_beyond_64(self):
        assert alpha_m(128) < alpha_m(1 << 14)


class TestConstruction:
    def test_register_count(self):
        assert HyperLogLog(p=7).m == 128

    def test_starts_empty(self):
        assert HyperLogLog(p=5).is_empty()

    @pytest.mark.parametrize("bad_p", [0, 1, 19, -3, 2.5, "a"])
    def test_invalid_precision(self, bad_p):
        with pytest.raises(ConfigurationError):
            HyperLogLog(p=bad_p)

    def test_relative_standard_error(self):
        assert HyperLogLog(p=7).relative_standard_error == pytest.approx(1.04 / math.sqrt(128))


class TestEstimation:
    @pytest.mark.parametrize("true_count", [10, 100, 1000, 50_000])
    def test_accuracy_within_4_sigma(self, true_count):
        sketch = HyperLogLog(p=7, seed=11)
        sketch.add_batch(np.arange(true_count))
        err = abs(sketch.estimate() - true_count) / true_count
        assert err < 4 * sketch.relative_standard_error

    def test_empty_estimates_zero(self):
        assert HyperLogLog(p=7).estimate() == 0.0

    def test_exactish_for_tiny_counts(self):
        """Small-range linear counting keeps tiny cardinalities accurate."""
        sketch = HyperLogLog(p=7, seed=0)
        sketch.add_batch(np.arange(5))
        assert abs(sketch.estimate() - 5) <= 1.0

    def test_duplicates_do_not_inflate(self):
        sketch = HyperLogLog(p=7, seed=1)
        sketch.add_batch(np.tile(np.arange(200), 50))
        err = abs(sketch.estimate() - 200) / 200
        assert err < 4 * sketch.relative_standard_error

    def test_add_scalar_matches_batch(self):
        a = HyperLogLog(p=6, seed=2)
        b = HyperLogLog(p=6, seed=2)
        for i in range(300):
            a.add(i)
        b.add_batch(np.arange(300))
        assert a == b

    def test_higher_precision_is_more_accurate_on_average(self):
        true_count = 20_000
        errors = {}
        for p in (4, 10):
            errs = []
            for seed in range(5):
                sketch = HyperLogLog(p=p, seed=seed)
                sketch.add_batch(np.arange(true_count))
                errs.append(abs(sketch.estimate() - true_count) / true_count)
            errors[p] = np.mean(errs)
        assert errors[10] < errors[4]

    @pytest.mark.parametrize("p", [5, 6, 7, 8, 9, 10])
    def test_accuracy_within_4_sigma_per_precision(self, p):
        sketch = _sketch(20_000, p=p, seed=11)
        err = abs(sketch.estimate() - 20_000) / 20_000
        assert err < 4 * sketch.relative_standard_error

    def test_small_range_uses_linear_counting(self):
        """Below ``5m/2`` with a zero register the estimate is ``m ln(m/V)``."""
        sketch = _sketch(40)
        zeros = int(np.count_nonzero(sketch.registers == 0))
        assert sketch.raw_estimate() <= 2.5 * sketch.m and zeros > 0
        assert sketch.estimate() == sketch.m * math.log(sketch.m / zeros)

    def test_small_raw_without_zero_registers_keeps_raw(self):
        """Linear counting needs an empty register; with none the raw
        estimate stands even below ``5m/2``."""
        sketch = HyperLogLog(p=6)
        sketch.registers[:] = 1
        assert sketch.raw_estimate() <= 2.5 * sketch.m
        assert sketch.estimate() == sketch.raw_estimate()

    def test_large_counts_use_raw_estimate(self):
        sketch = _sketch(50_000)
        assert sketch.raw_estimate() > 2.5 * sketch.m
        assert sketch.estimate() == sketch.raw_estimate()

    def test_estimate_never_decreases_as_elements_arrive(self):
        sketch = HyperLogLog(p=6, seed=3)
        previous = sketch.estimate()
        for start in range(0, 5000, 250):
            sketch.add_batch(np.arange(start, start + 250))
            current = sketch.estimate()
            assert current >= previous
            previous = current

    def test_register_values_bounded_by_rank_width(self):
        p = 7
        sketch = _sketch(100_000, p=p)
        assert int(sketch.registers.max()) <= 64 - p + 1


class TestUpdates:
    def test_empty_batch_is_a_no_op(self):
        sketch = HyperLogLog(p=6)
        sketch.add_batch(np.empty(0, dtype=np.uint64))
        assert sketch.is_empty()

    @pytest.mark.parametrize(
        "as_input",
        [
            lambda ids: ids.astype(np.int32),
            lambda ids: ids.astype(np.int64),
            lambda ids: ids.astype(np.uint32),
            lambda ids: ids.astype(np.uint64),
            lambda ids: ids.tolist(),
        ],
        ids=["int32", "int64", "uint32", "uint64", "list"],
    )
    def test_add_batch_is_dtype_blind(self, as_input):
        """Point ids arrive as any integer dtype; the registers depend
        on the id values only."""
        ids = np.arange(700)
        sketch = HyperLogLog(p=7, seed=4)
        sketch.add_batch(as_input(ids))
        assert sketch == _sketch(700, seed=4)

    def test_precomputed_batch_keeps_the_max_on_repeated_registers(self):
        sketch = HyperLogLog(p=4)
        sketch.add_precomputed_batch(
            np.array([3, 3, 3, 9], dtype=np.int64), np.array([2, 7, 5, 1], dtype=np.uint8)
        )
        assert sketch.registers[3] == 7
        assert sketch.registers[9] == 1
        assert np.count_nonzero(sketch.registers) == 2

    def test_merge_leaves_operands_untouched(self):
        a, b = _sketch(300, seed=2), HyperLogLog(p=7, seed=2)
        b.add_batch(np.arange(200, 900))
        before_a, before_b = a.registers.copy(), b.registers.copy()
        a.merge(b)
        assert np.array_equal(a.registers, before_a)
        assert np.array_equal(b.registers, before_b)

    def test_merge_many_of_one_is_an_independent_copy(self):
        only = _sketch(100)
        merged = HyperLogLog.merge_many([only])
        assert merged == only
        merged.add_batch(np.arange(100, 400))
        assert merged != only

    def test_equality_needs_same_precision_and_seed(self):
        a, b = HyperLogLog(p=6, seed=0), HyperLogLog(p=6, seed=1)
        assert np.array_equal(a.registers, b.registers)
        assert a != b
        assert HyperLogLog(p=6) != HyperLogLog(p=7)

    def test_not_equal_to_other_types(self):
        assert HyperLogLog(p=5) != object()
        assert HyperLogLog(p=5).__eq__(np.zeros(32, dtype=np.uint8)) is NotImplemented


class TestEstimatesFromRegisters:
    """The batched finish behind every ``merged_estimates_batch``."""

    @pytest.mark.parametrize("count", [0, 1, 5, 60, 300, 2000, 50_000])
    def test_row_equals_per_sketch_estimate(self, count):
        sketch = _sketch(count)
        row = estimates_from_registers(sketch.registers[None, :])
        assert row.shape == (1,)
        assert row[0] == sketch.estimate()

    @pytest.mark.parametrize("p", [4, 5, 6, 8, 10, 12])
    def test_every_precision_matches(self, p):
        sketches = [_sketch(count, p=p) for count in (0, 3, 90, 4000)]
        rows = estimates_from_registers(np.stack([s.registers for s in sketches]))
        assert rows.tolist() == [s.estimate() for s in sketches]

    def test_mixed_rows_take_their_own_branch(self):
        """Corrected (small) and raw (large) rows in one matrix do not
        leak into each other."""
        small, large = _sketch(20), _sketch(30_000)
        rows = estimates_from_registers(np.stack([large.registers, small.registers]))
        assert rows[0] == large.raw_estimate()
        assert rows[1] == small.estimate() != small.raw_estimate()

    def test_no_rows(self):
        out = estimates_from_registers(np.zeros((0, 128), dtype=np.uint8))
        assert out.shape == (0,)


class TestMerge:
    def test_merge_equals_union_sketch(self):
        """Merging sketches of two sets gives the sketch of their union."""
        a = HyperLogLog(p=7, seed=3)
        b = HyperLogLog(p=7, seed=3)
        union = HyperLogLog(p=7, seed=3)
        a.add_batch(np.arange(0, 600))
        b.add_batch(np.arange(400, 1000))
        union.add_batch(np.arange(0, 1000))
        assert a.merge(b) == union

    def test_merge_in_place_returns_self(self):
        a = HyperLogLog(p=5, seed=0)
        b = HyperLogLog(p=5, seed=0)
        assert a.merge_in_place(b) is a

    def test_merge_is_idempotent(self):
        a = HyperLogLog(p=6, seed=1)
        a.add_batch(np.arange(100))
        merged = a.merge(a)
        assert merged == a

    def test_merge_is_commutative(self):
        a = HyperLogLog(p=6, seed=1)
        b = HyperLogLog(p=6, seed=1)
        a.add_batch(np.arange(50))
        b.add_batch(np.arange(30, 90))
        assert a.merge(b) == b.merge(a)

    def test_incompatible_precision_raises(self):
        with pytest.raises(SketchError):
            HyperLogLog(p=6).merge(HyperLogLog(p=7))

    def test_incompatible_seed_raises(self):
        with pytest.raises(SketchError):
            HyperLogLog(p=6, seed=0).merge(HyperLogLog(p=6, seed=1))

    def test_merge_wrong_type_raises(self):
        with pytest.raises(SketchError):
            HyperLogLog(p=6).merge_in_place(object())

    def test_merge_many(self):
        parts = []
        for start in range(0, 1000, 100):
            s = HyperLogLog(p=7, seed=4)
            s.add_batch(np.arange(start, start + 100))
            parts.append(s)
        merged = HyperLogLog.merge_many(parts)
        err = abs(merged.estimate() - 1000) / 1000
        assert err < 4 * merged.relative_standard_error

    def test_merge_many_empty_list_raises(self):
        with pytest.raises(SketchError):
            HyperLogLog.merge_many([])

    def test_copy_is_independent(self):
        a = HyperLogLog(p=6, seed=0)
        a.add_batch(np.arange(100))
        b = a.copy()
        b.add_batch(np.arange(100, 200))
        assert a != b


class TestPrecomputed:
    def test_matches_direct_insertion(self):
        n = 500
        hashes = PrecomputedHllHashes(n, p=7, seed=9)
        via_pairs = HyperLogLog(p=7, seed=9)
        for i in range(n):
            via_pairs.add_precomputed(*hashes.pair(i))
        direct = HyperLogLog(p=7, seed=9)
        direct.add_batch(np.arange(n))
        assert via_pairs == direct

    def test_batch_matches_scalar_path(self):
        n = 300
        hashes = PrecomputedHllHashes(n, p=6, seed=2)
        a = HyperLogLog(p=6, seed=2)
        a.add_precomputed_batch(hashes.registers, hashes.ranks)
        b = HyperLogLog(p=6, seed=2)
        for i in range(n):
            b.add_precomputed(*hashes.pair(i))
        assert a == b

    def test_len(self):
        assert len(PrecomputedHllHashes(42, p=5)) == 42

    def test_negative_n_raises(self):
        with pytest.raises(ConfigurationError):
            PrecomputedHllHashes(-1, p=5)

    def test_invalid_precision_raises(self):
        with pytest.raises(ConfigurationError):
            PrecomputedHllHashes(10, p=1)

    def test_extend_matches_a_fresh_table(self):
        """Inserts grow the table; the old entries and the new tail equal
        a table built at the final size."""
        grown = PrecomputedHllHashes(100, p=7, seed=6)
        grown.extend(250)
        fresh = PrecomputedHllHashes(250, p=7, seed=6)
        assert len(grown) == 250
        assert np.array_equal(grown.registers, fresh.registers)
        assert np.array_equal(grown.ranks, fresh.ranks)

    def test_extend_to_the_same_size_is_a_no_op(self):
        hashes = PrecomputedHllHashes(50, p=6)
        registers = hashes.registers
        hashes.extend(50)
        assert hashes.registers is registers

    def test_extend_cannot_shrink(self):
        with pytest.raises(ConfigurationError):
            PrecomputedHllHashes(50, p=6).extend(49)

    def test_pair_is_plain_ints(self):
        register, rank = PrecomputedHllHashes(10, p=6, seed=1).pair(3)
        assert type(register) is int and type(rank) is int
        assert 0 <= register < 64 and 1 <= rank <= 64 - 6 + 1


class TestMemory:
    def test_memory_bytes_equals_m(self):
        assert HyperLogLog(p=7).memory_bytes == 128

    @pytest.mark.parametrize("p", [2, 4, 10, 18])
    def test_memory_bytes_per_precision(self, p):
        """One byte per register, the ``O(m)`` the paper charges a bucket."""
        assert HyperLogLog(p=p).memory_bytes == 1 << p

    def test_repr(self):
        assert "HyperLogLog" in repr(HyperLogLog(p=5))
