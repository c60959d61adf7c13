"""Steps S2 and S3 of a batch equal the per-row steps, bit for bit.

``FrozenLSHIndex.candidate_ids_batch`` unions the batch's small rows in
one sort of row-tagged ids and leaves the rest to the per-row bitmap;
``LSHSearch.filter_candidates_batch`` filters cache-sized blocks of rows
in one distance pass each.  Whatever side of either crossover a row
falls on, its candidates must equal ``candidate_ids(dedup="scalar")``
array for array, and its ``(ids, distances)`` must equal
``filter_candidates`` bit for bit — on every frozen variant, beside 0,
1 and 2 live overflow generations, for empty and duplicated rows, and
through ``HybridSearcher`` on the dict-layout reference as well.

Rows too large for a block that hold equal candidate arrays (queries
into one cluster) gather the points once per distinct array: bit for
bit the per-row filter again, for L2 and for a metric without the
block kernel, beside empty, block-sized, lone and look-alike rows.

The work-unit tests pin what the flat pass saves, as counts: a 64-row
batch of sparse-cluster queries gathers its candidate points once and
deduplicates once, where row-by-row Steps S2/S3 did each 64 times, a
batch's large rows gather once per distinct candidate array, and a lone
sparse-cluster query builds no ``n``-sized bitmap at all.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from test_adaptive import _dispatch_case, _spec
from conftest import max_examples, reference_index

from repro.api import Index, IndexSpec, QuerySpec
from repro.core import HybridSearcher
from repro.core import lsh_search as lsh_module
from repro.core.lsh_search import LSHSearch
from repro.distances import get_metric
from repro.exceptions import ConfigurationError
from repro.index.frozen import lookup as frozen_lookup

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis"
)
from hypothesis import example, given, settings
from hypothesis import strategies as st


def _batch_case(seed, n, variant, generations, ratio, block_bytes):
    """Points, a batch, insert batches for ``generations`` live runs,
    the index spec, and the two crossovers to serve them under."""
    points, queries, inserts, overrides = _dispatch_case(seed, n, variant, 6.0, 24)
    batch = [queries, inserts[:4], queries[:3], queries[:1]]  # duplicated rows
    if variant != "covering":  # far from every point: an empty row
        batch.append(points[:1] + 100.0)
    parts = np.array_split(inserts, generations) if generations else []
    return points, np.concatenate(batch), parts, overrides, ratio, block_bytes


@st.composite
def batch_case(draw):
    """Any frozen variant, 0-2 live overflow generations, and a Step-S2
    ratio and Step-S3 block size that put rows on both sides."""
    return _batch_case(
        seed=draw(st.integers(0, 2**16)),
        n=draw(st.integers(150, 400)),
        variant=draw(st.sampled_from(["zero-probes", "multiprobe", "covering"])),
        generations=draw(st.integers(0, 2)),
        ratio=draw(st.sampled_from([1, 8, 64, 10**9])),
        block_bytes=draw(st.sampled_from([0, 1 << 10, 1 << 12, 1 << 18])),
    )


def _serve_generations(raw, parts):
    """Insert ``parts`` into ``raw`` as that many live overflow runs."""
    raw.background_refreeze = False
    raw.refreeze_threshold = 10**6
    for g, part in enumerate(parts):
        if g:  # hold the previous run open, as an in-flight fold leaves it
            raw._compacting, raw._run = raw._run, None
        raw.insert(part)
    assert len(raw.live_runs) == len(parts)


def assert_bit_identical(a, b):
    """Equal ``(ids, distances)`` pairs: same dtypes, same bits."""
    assert a[0].dtype == b[0].dtype and np.array_equal(a[0], b[0])
    assert a[1].dtype == b[1].dtype == np.float64
    assert np.array_equal(a[1].view(np.int64), b[1].view(np.int64))


def _check_batched_steps(case):
    points, batch, parts, overrides, ratio, block_bytes = case
    index = Index.build(points, _spec(**overrides))
    searcher = index.engine.searcher
    raw, radius = searcher.index, index.spec.radius
    reference = reference_index(points, index.spec)
    _serve_generations(raw, parts)
    for part in parts:
        reference.insert(part)
    row_unions = []  # one entry per untagged one-row union

    def counted_union(lookup, union=frozen_lookup._row_union):
        row_unions.append(lookup)
        return union(lookup)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frozen_lookup, "SORTED_UNION_RATIO", ratio)
        patch.setattr(lsh_module, "FILTER_BLOCK_BYTES", block_bytes)
        patch.setattr(frozen_lookup, "_row_union", counted_union)
        lookups = raw.lookup_batch(batch)
        # Step S2: array for array the scalar per-row union.
        batched = raw.candidate_ids_batch(lookups, dedup="vectorized")
        for lookup, candidates in zip(lookups, batched):
            alone = raw.candidate_ids(lookup, dedup="scalar")
            assert candidates.dtype == alone.dtype and np.array_equal(candidates, alone)
        # Step S3: bit for bit the per-row filter.
        lsh = searcher._lsh
        filtered = lsh.filter_candidates_batch(batch, radius, batched)
        for query, candidates, pair in zip(batch, batched, filtered):
            assert_bit_identical(pair, lsh.filter_candidates(query, radius, candidates))
        # Through the searcher: the batch == each row alone == the dict
        # reference's batch (per-row S2, the same batched S3).
        rows = searcher.query_batch(batch, radius, dedup="vectorized")
        twin = HybridSearcher(reference, searcher.cost_model).query_batch(
            batch, radius, dedup="vectorized"
        )
        # A lone row is served both ways: in the index's own dedup mode
        # and, as ``Index.query`` serves it, vectorized.
        lone_sorted = []
        for query, row, theirs in zip(batch, rows, twin):
            alone = searcher.query(query, radius)
            calls = len(row_unions)
            lone = searcher.query_batch(query[None], radius, dedup="vectorized")[0]
            lone_sorted.append(len(row_unions) > calls)
            for other in (alone, lone, theirs):
                assert_bit_identical((row.ids, row.distances), (other.ids, other.distances))
                assert row.stats == other.stats
    live_runs = len(raw.live_runs)  # what the lone rows were served beside
    index.close()
    small = [lk.num_collisions <= raw.n // ratio for lk in lookups]
    lone_lsh = [row.stats.strategy.value == "lsh" for row in rows]
    # Served alone and vectorized, an LSH row is unioned by the sort
    # exactly when it is small; the others keep the bitmap.
    assert lone_sorted == [s and lsh for s, lsh in zip(small, lone_lsh)]
    return SimpleNamespace(
        small=small,
        sizes=[c.size for c in batched],
        # Per LSH row served alone: did the sort (not the bitmap) union it?
        lone_small=[s for s, lsh in zip(lone_sorted, lone_lsh) if lsh],
        live_runs=live_runs,
    )


class TestBatchedStepsEqualPerRow:
    @given(batch_case())
    @example(_batch_case(3, 300, "zero-probes", 2, 8, 1 << 18))
    @example(_batch_case(5, 400, "multiprobe", 1, 1, 1 << 12))
    @example(_batch_case(7, 200, "covering", 2, 10**9, 0))
    @example(_batch_case(11, 300, "zero-probes", 0, 10**9, 1 << 10))
    @settings(max_examples=15, deadline=None)
    def test_batched_s2_and_s3_equal_the_per_row_steps(self, case):
        _check_batched_steps(case)

    def test_the_pins_cover_both_sides_of_each_crossover(self):
        plain = _check_batched_steps(_batch_case(3, 300, "zero-probes", 2, 8, 1 << 18))
        assert any(plain.small) and not all(plain.small)  # S2: both sides of n // 8
        assert 0 in plain.sizes  # an empty row
        # Lone rows too, beside live overflow runs: the one-row sort
        # below the crossover, the bitmap above it.
        assert any(plain.lone_small) and not all(plain.lone_small)
        assert plain.live_runs == 2
        # ... and multi-probe ones beside a live run (ratio 1: the rows
        # of more than n collisions keep the bitmap).
        probed = _check_batched_steps(_batch_case(5, 400, "multiprobe", 1, 1, 1 << 12))
        assert any(probed.lone_small) and not all(probed.lone_small)
        assert probed.live_runs == 1
        sizes = _check_batched_steps(_batch_case(11, 300, "zero-probes", 0, 10**9, 1 << 10)).sizes
        cap = (1 << 10) // (10 * 8)  # S3: candidate points a block holds at d = 10
        assert any(0 < s <= cap // 2 for s in sizes) and max(sizes) > cap


# ----------------------------------------------------------------------
# Work units, not timings
# ----------------------------------------------------------------------


class _CountingPoints(np.ndarray):
    """A point matrix that logs the row gathers (``take``) run over it."""

    gathers: list = []

    def take(self, indices, *args, **kwargs):
        _CountingPoints.gathers.append(int(np.size(indices)))
        return np.asarray(self).take(indices, *args, **kwargs)


class _CountingBitmaps:
    """``numpy`` with the ``n``-sized ``zeros`` (Step S2 bitmaps) counted."""

    def __init__(self, n):
        self.n, self.bitmaps = n, 0

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, *args, **kwargs):
        self.bitmaps += shape == self.n
        return np.zeros(shape, *args, **kwargs)


def _sparse_batch(seed=0, clusters=120, dim=8):
    """Many 40-point clusters plus one dense region; a 64-row batch of
    63 cluster queries and one at the dense region's centre."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 10.0, size=(clusters, dim))
    dense = rng.uniform(0.0, 10.0, size=dim)
    points = np.concatenate([
        np.repeat(centers, 40, axis=0) + 0.1 * rng.standard_normal((clusters * 40, dim)),
        dense + 0.1 * rng.standard_normal((1000, dim)),
    ])
    near = centers[rng.choice(clusters, 63, replace=False)]
    queries = np.concatenate([near + 0.1 * rng.standard_normal(near.shape), dense[None]])
    return points, queries


def test_a_sparse_batch_gathers_once_and_deduplicates_once(monkeypatch):
    points, queries = _sparse_batch()
    spec = IndexSpec(metric="l2", radius=1.0, num_tables=10, seed=1)
    index = Index.build(points, spec)
    raw = index.engine.index
    lookups = raw.lookup_batch(queries)
    raw.points = raw.points.view(_CountingPoints)
    counting = _CountingBitmaps(raw.n)
    monkeypatch.setattr(frozen_lookup, "np", counting)
    _CountingPoints.gathers = []
    rows = index.engine.query_batch(queries, spec.radius)
    index.close()
    assert all(row.stats.strategy.value == "lsh" for row in rows)
    # Step S2: one row still pays an n-sized bitmap (row by row, that was
    # 64 bitmaps) — the dense-region row, the one above the crossover;
    # the other 63 share one sorted union.
    assert counting.bitmaps == 1
    limit = raw.n // frozen_lookup.SORTED_UNION_RATIO
    assert lookups[63].num_collisions > limit
    assert all(lookup.num_collisions <= limit for lookup in lookups[:63])
    # Step S3: every row's candidate points in one gather (row by row:
    # 64 gathers).
    assert _CountingPoints.gathers == [sum(row.stats.exact_candidates for row in rows)]


def test_a_lone_query_pays_a_bitmap_only_above_the_crossover(monkeypatch):
    """A lone sparse-cluster query unions its buckets by one sort — no
    ``n``-sized bitmap — and the lone dense-region query keeps its one."""
    points, queries = _sparse_batch()
    spec = IndexSpec(metric="l2", radius=1.0, num_tables=10, seed=1)
    index = Index.build(points, spec)
    raw = index.engine.index
    limit = raw.n // frozen_lookup.SORTED_UNION_RATIO
    assert raw.lookup(queries[0]).num_collisions <= limit
    assert raw.lookup(queries[63]).num_collisions > limit
    counting = _CountingBitmaps(raw.n)
    monkeypatch.setattr(frozen_lookup, "np", counting)
    sparse = index.query(QuerySpec(queries[0]))
    assert sparse.strategy == "lsh" and counting.bitmaps == 0
    dense = index.query(QuerySpec(queries[63]))
    index.close()
    assert dense.strategy == "lsh" and counting.bitmaps == 1


@pytest.mark.parametrize("rows", [1, 3])
def test_a_bad_dedup_is_refused_for_one_row_and_for_a_batch(rows):
    points, queries = _sparse_batch()
    index = Index.build(points, IndexSpec(metric="l2", radius=1.0, num_tables=10, seed=1))
    raw, searcher = index.engine.index, index.engine.searcher
    lookups = raw.lookup_batch(queries[:rows])
    with pytest.raises(ConfigurationError, match="dedup"):
        raw.candidate_ids_batch(lookups, dedup="bogus")
    with pytest.raises(ConfigurationError, match="dedup"):
        searcher.query_batch(queries[:rows], 1.0, dedup="bogus")
    index.close()


#: Step-S3 block size of the sharing property: 21 candidate points at d = 6.
_SMALL_BLOCK = 1 << 10


@st.composite
def shared_rows_case(draw):
    """A batch of candidate arrays that mixes equal large arrays (some
    the same object, some copies), an unequal array with the same
    ``(size, first, last)``, empty, block-sized and lone rows."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    n, dim = 400, 6
    cap = _SMALL_BLOCK // (dim * 8)

    def even_ids(size):  # sorted distinct even ids: room for a look-alike
        return 2 * np.sort(rng.choice(n // 2, size=size, replace=False)).astype(np.intp)

    big, other = even_ids(draw(st.integers(cap + 1, 120))), even_ids(cap + 30)
    twin = big.copy()
    twin[big.size // 2] += 1  # odd: unequal, same size and ends
    pool = {
        "big": lambda: big,
        "big copy": big.copy,
        "other": lambda: other,
        "twin": lambda: twin,
        "empty": lambda: np.empty(0, dtype=np.intp),
        "block": lambda: even_ids(int(rng.integers(1, cap // 2 + 1))),
        "full block": lambda: even_ids(cap),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(pool)), min_size=1, max_size=12))
    points = rng.normal(size=(n, dim))
    queries = points[rng.choice(n, size=len(kinds))]
    queries = queries + rng.normal(scale=0.3, size=queries.shape)
    metric = draw(st.sampled_from(["l2", "cosine"]))  # cosine: no block kernel
    return points, queries, [pool[kind]() for kind in kinds], metric, cap


class TestSharedGathers:
    @given(shared_rows_case())
    @settings(max_examples=max_examples(40), deadline=None)
    def test_shared_rows_are_bit_identical_and_gather_once(self, case):
        points, queries, candidate_sets, metric_name, cap = case
        metric = get_metric(metric_name)
        counted = points.view(_CountingPoints)
        index = SimpleNamespace(
            points=counted,
            family=SimpleNamespace(metric=metric),
            # The index owns the prepared state LSHSearch gathers from.
            prepared_points=lambda: (counted, metric.prepare_points(points)),
        )
        lsh = LSHSearch(index)
        radius = 2.5 if metric_name == "l2" else 0.3
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lsh_module, "FILTER_BLOCK_BYTES", _SMALL_BLOCK)
            _CountingPoints.gathers = []
            batched = lsh.filter_candidates_batch(queries, radius, candidate_sets)
            gathers = list(_CountingPoints.gathers)
        for query, candidates, pair in zip(queries, candidate_sets, batched):
            assert_bit_identical(pair, lsh.filter_candidates(query, radius, candidates))
        # A row too large for a block never shares one, so every gather
        # above the cap is one distinct large array; without the block
        # kernel every non-empty row is alone.
        alone = cap if metric.rows_prepared is not None else 0
        distinct = {tuple(c.tolist()) for c in candidate_sets if c.size > alone}
        assert sum(size > alone for size in gathers) == len(distinct)


def test_a_budgeted_batch_gathers_each_cluster_once(monkeypatch):
    """Queries into one tight cluster are certified at ring 0 with one
    and the same candidate array: gathered once, not once a row."""
    monkeypatch.setattr(lsh_module, "FILTER_BLOCK_BYTES", 1 << 12)  # 51 points at d = 10
    rng = np.random.default_rng(3)
    points = np.concatenate([  # a cluster far tighter than a bucket, and a background
        rng.normal(scale=0.01, size=(200, 10)),
        rng.uniform(-8.0, 8.0, size=(400, 10)),
    ])
    spec = _spec(cost_ratio=1.0, adaptive={"target_candidates": 40})
    index = Index.build(points, spec)
    raw = index.engine.index
    queries = points[:200:10]  # twenty cluster rows
    rows = index.engine.query_batch(queries, spec.radius, adaptive=spec.adaptive)
    lookups, _, certified = raw.lookup_batch_adaptive(queries, 40)
    assert certified.all()
    candidates = raw.candidate_ids_batch(lookups, dedup="vectorized")
    cap = lsh_module.FILTER_BLOCK_BYTES // raw.points[0].nbytes
    distinct = {tuple(c.tolist()) for c in candidates if c.size > cap}
    assert 0 < len(distinct) < sum(c.size > cap for c in candidates)
    raw.points = raw.points.view(_CountingPoints)
    _CountingPoints.gathers = []
    again = index.engine.query_batch(queries, spec.radius, adaptive=spec.adaptive)
    index.close()
    assert sum(size > cap for size in _CountingPoints.gathers) == len(distinct)
    for a, b in zip(rows, again):
        assert_bit_identical((a.ids, a.distances), (b.ids, b.distances))
