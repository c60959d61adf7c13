"""Property-based tests (hypothesis) on the core invariants."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import CostModel, Strategy
from repro.distances import (
    cosine_distance,
    euclidean_distance,
    hamming_distance,
    jaccard_distance,
    manhattan_distance,
)
from repro.hashing import concatenation_width, success_probability
from repro.hashing.composite import encode_rows
from repro.sketches import HyperLogLog

finite_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 20),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def vector_pairs(draw):
    dim = draw(st.integers(1, 16))
    elems = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
    x = draw(hnp.arrays(np.float64, dim, elements=elems))
    y = draw(hnp.arrays(np.float64, dim, elements=elems))
    return x, y


pair_strategy = st.composite(vector_pairs)()


class TestMetricAxioms:
    @given(pair_strategy)
    def test_euclidean_symmetry(self, pair):
        x, y = pair
        assert euclidean_distance(x, y) == pytest.approx(euclidean_distance(y, x))

    @given(pair_strategy)
    def test_euclidean_nonnegative_and_identity(self, pair):
        x, _ = pair
        assert euclidean_distance(x, x) == 0.0

    @given(pair_strategy)
    def test_manhattan_dominates_euclidean(self, pair):
        x, y = pair
        assert manhattan_distance(x, y) >= euclidean_distance(x, y) - 1e-9

    @given(st.data())
    def test_euclidean_triangle_inequality(self, data):
        dim = data.draw(st.integers(1, 10))
        elems = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
        x = data.draw(hnp.arrays(np.float64, dim, elements=elems))
        y = data.draw(hnp.arrays(np.float64, dim, elements=elems))
        z = data.draw(hnp.arrays(np.float64, dim, elements=elems))
        assert euclidean_distance(x, z) <= (
            euclidean_distance(x, y) + euclidean_distance(y, z) + 1e-7
        )

    @given(pair_strategy)
    def test_cosine_range(self, pair):
        x, y = pair
        assert -1e-12 <= cosine_distance(x, y) <= 2.0 + 1e-12

    @given(st.data())
    def test_hamming_symmetry_and_bounds(self, data):
        dim = data.draw(st.integers(1, 64))
        x = data.draw(hnp.arrays(np.uint8, dim, elements=st.integers(0, 1)))
        y = data.draw(hnp.arrays(np.uint8, dim, elements=st.integers(0, 1)))
        d = hamming_distance(x, y)
        assert d == hamming_distance(y, x)
        assert 0 <= d <= dim

    @given(st.data())
    def test_jaccard_range(self, data):
        dim = data.draw(st.integers(1, 64))
        x = data.draw(hnp.arrays(np.uint8, dim, elements=st.integers(0, 1)))
        y = data.draw(hnp.arrays(np.uint8, dim, elements=st.integers(0, 1)))
        assert 0.0 <= jaccard_distance(x, y) <= 1.0


class TestHllProperties:
    @given(
        st.lists(st.integers(0, 10**9), min_size=0, max_size=500),
        st.integers(4, 10),
        st.integers(0, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_union(self, elements, p, seed):
        """sketch(A) | sketch(B) == sketch(A ∪ B) for any split of elements."""
        half = len(elements) // 2
        a_part, b_part = elements[:half], elements[half:]
        a = HyperLogLog(p=p, seed=seed)
        b = HyperLogLog(p=p, seed=seed)
        union = HyperLogLog(p=p, seed=seed)
        if a_part:
            a.add_batch(np.array(a_part, dtype=np.uint64))
        if b_part:
            b.add_batch(np.array(b_part, dtype=np.uint64))
        if elements:
            union.add_batch(np.array(elements, dtype=np.uint64))
        assert a.merge(b) == union

    @given(st.lists(st.integers(0, 10**9), min_size=1, max_size=300), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_insertion_order_irrelevant(self, elements, seed):
        forward = HyperLogLog(p=6, seed=seed)
        backward = HyperLogLog(p=6, seed=seed)
        forward.add_batch(np.array(elements, dtype=np.uint64))
        backward.add_batch(np.array(elements[::-1], dtype=np.uint64))
        assert forward == backward

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_estimate_nonnegative_and_monotone_under_merge(self, elements):
        a = HyperLogLog(p=6, seed=0)
        a.add_batch(np.array(elements, dtype=np.uint64))
        before = a.raw_estimate()
        b = HyperLogLog(p=6, seed=0)
        b.add_batch(np.arange(100, dtype=np.uint64))
        a.merge_in_place(b)
        # Raw estimate can only grow when registers only grow.
        assert a.raw_estimate() >= before - 1e-9

    @given(st.integers(2, 14))
    def test_empty_sketch_estimates_zero(self, p):
        assert HyperLogLog(p=p).estimate() == 0.0

    @given(
        st.lists(st.lists(st.integers(0, 10**9), max_size=300), min_size=1, max_size=6),
        st.integers(4, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_finish_equals_per_sketch_estimate(self, rows, p):
        """Whatever the registers, the vectorised finish of
        ``merged_estimates_batch`` is each sketch's own estimate."""
        from repro.sketches.hyperloglog import estimates_from_registers

        sketches = []
        for elements in rows:
            sketch = HyperLogLog(p=p, seed=1)
            sketch.add_batch(np.array(elements, dtype=np.uint64))
            sketches.append(sketch)
        out = estimates_from_registers(np.stack([s.registers for s in sketches]))
        assert out.tolist() == [s.estimate() for s in sketches]

    @given(st.lists(st.integers(0, 499), max_size=300), st.integers(4, 10), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_precomputed_pairs_equal_hashing(self, ids, p, seed):
        """Bucket sketches fed from the build-time hash table equal
        sketches that hash the same point ids themselves."""
        from repro.sketches import PrecomputedHllHashes

        table = PrecomputedHllHashes(500, p=p, seed=seed)
        ids = np.array(ids, dtype=np.intp)
        via_table = HyperLogLog(p=p, seed=seed)
        via_table.add_precomputed_batch(table.registers[ids], table.ranks[ids])
        direct = HyperLogLog(p=p, seed=seed)
        direct.add_batch(ids)
        assert via_table == direct


class TestParameterRuleProperties:
    @given(
        st.integers(1, 500),
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.999),
    )
    @settings(max_examples=200)
    def test_width_bracketing(self, L, delta, p1):
        """ceil-rule k brackets 1 - delta when not clamped."""
        k = concatenation_width(L, delta, p1, max_k=10_000)
        assert k >= 1
        if k < 10_000:
            assert success_probability(k, L, p1) <= 1 - delta + 1e-9
            if k > 1:
                assert success_probability(k - 1, L, p1) >= 1 - delta - 1e-9

    @given(st.integers(1, 64), st.integers(1, 300), st.floats(0.0, 1.0))
    def test_success_probability_in_unit_interval(self, k, L, p1):
        assert 0.0 <= success_probability(k, L, p1) <= 1.0


class TestEncodeRowsProperties:
    @given(
        hnp.arrays(
            np.int64,
            st.tuples(st.integers(1, 30), st.integers(1, 8)),
            elements=st.integers(-(2**40), 2**40),
        )
    )
    @settings(max_examples=60)
    def test_encoding_injective_per_matrix(self, matrix):
        keys = encode_rows(matrix)
        unique_rows = {tuple(row.tolist()) for row in matrix}
        assert len(set(keys)) == len(unique_rows)


class TestBatchScalarConsistency:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_all_metrics_batch_equals_scalar(self, data):
        from repro.distances import get_metric

        dim = data.draw(st.integers(1, 10))
        elems = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
        points = data.draw(
            hnp.arrays(np.float64, (data.draw(st.integers(1, 8)), dim), elements=elems)
        )
        q = data.draw(hnp.arrays(np.float64, dim, elements=elems))
        # Per-metric abs tolerances reflect the intrinsic precision of the
        # kernels, not sloppiness: the batched L2 kernel expands
        # |x - q|^2 = |x|^2 - 2 x.q + |q|^2, which near zero distance
        # cancels to ~ ulp(|x|^2) and yields sqrt(eps) * |x| ~ 5e-6 of
        # absolute error for |x| up to ~300; 1 - cos suffers the same
        # cancellation for near-parallel vectors.  L1 is purely additive
        # and has no such loss.
        tolerances = {"l2": 1e-5, "l1": 1e-7, "cosine": 1e-5}
        for name, abs_tol in tolerances.items():
            metric = get_metric(name)
            batch = metric.distances_to(points, q)
            for i in range(points.shape[0]):
                assert batch[i] == pytest.approx(
                    metric(points[i], q), abs=abs_tol, rel=1e-6
                )


class TestCostModelProperties:
    @given(
        st.floats(1e-6, 1e6),
        st.floats(1e-6, 1e6),
        st.integers(0, 10**7),
        st.floats(0, 1e7),
        st.integers(0, 10**7),
    )
    @settings(max_examples=100)
    def test_decision_consistent_with_costs(self, alpha, beta, collisions, cand, n):
        model = CostModel(alpha=alpha, beta=beta)
        choice = model.choose(collisions, cand, n)
        lsh = model.lsh_cost(collisions, cand)
        linear = model.linear_cost(n)
        assert choice == (Strategy.LSH if lsh < linear else Strategy.LINEAR)

    @given(st.floats(1e-3, 1e3), st.integers(0, 10**6), st.floats(0, 1e6))
    def test_lsh_cost_monotone_in_collisions(self, ratio, collisions, cand):
        model = CostModel.from_ratio(ratio)
        assert model.lsh_cost(collisions + 1, cand) > model.lsh_cost(collisions, cand)
