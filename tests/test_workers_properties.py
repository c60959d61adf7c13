"""Property-based determinism of the process pool (hypothesis optional).

``execution="processes"`` must be *indistinguishable* from
``execution="threads"`` at the answer level: same spec + same seed →
byte-identical ids and distances for every radius, top-k, batch and
insert request.  Exact top-k is additionally compared against the
unsharded frozen index — the selection is exact in every mode, so all
three must agree bit for bit.

The pool is expensive to start, so one thread/process pair is built per
module and hypothesis only draws the *requests* (query subsets, radii,
k); the insert property rebuilds its own pair to keep state isolated.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis"
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Index, IndexSpec, QuerySpec

N, DIM, SHARDS = 500, 10, 3


def _spec(**overrides):
    base = dict(
        metric="l2",
        radius=1.1,
        num_tables=6,
        num_shards=SHARDS,
        layout="frozen",
        cost_ratio=6.0,
        seed=13,
    )
    base.update(overrides)
    return IndexSpec(**base)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(21)
    tight = rng.normal(scale=0.25, size=(N // 2, DIM))
    loose = rng.uniform(-4.0, 4.0, size=(N - N // 2, DIM))
    points = np.concatenate([tight, loose])
    probes = np.concatenate([points[:40], rng.normal(size=(40, DIM))])
    return points, probes


@pytest.fixture(scope="module")
def serving_pair(corpus):
    points, _ = corpus
    threads = Index.build(points, _spec())
    processes = Index.build(points, _spec(execution="processes"), num_workers=2)
    unsharded = Index.build(points, _spec(num_shards=1, execution="threads"))
    yield threads, processes, unsharded
    threads.close(), processes.close(), unsharded.close()


def assert_results_equal(a, b):
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.distances, b.distances)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    rows=st.lists(st.integers(0, 79), min_size=1, max_size=6, unique=True),
    radius=st.sampled_from([0.6, 1.1, 1.7]),
)
def test_radius_processes_equal_threads(serving_pair, corpus, rows, radius):
    threads, processes, _ = serving_pair
    _, probes = corpus
    batch = probes[rows]
    for ra, rb in zip(
        threads.query(QuerySpec(batch, radius=radius)),
        processes.query(QuerySpec(batch, radius=radius)),
    ):
        assert_results_equal(ra, rb)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    rows=st.lists(st.integers(0, 79), min_size=1, max_size=5, unique=True),
    k=st.integers(1, 12),
)
def test_topk_agrees_across_all_three_modes(serving_pair, corpus, rows, k):
    threads, processes, unsharded = serving_pair
    _, probes = corpus
    batch = probes[rows]
    expected = threads.query(QuerySpec(batch, k=k))
    for reference, challenger in (
        (expected, processes.query(QuerySpec(batch, k=k))),
        (expected, unsharded.query(QuerySpec(batch, k=k))),
    ):
        for ra, rb in zip(reference, challenger):
            assert_results_equal(ra, rb)


@settings(max_examples=5, deadline=None)
@given(
    insert_seed=st.integers(0, 2**16),
    batch_sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
)
def test_insert_sequences_stay_bit_identical(corpus, insert_seed, batch_sizes):
    points, probes = corpus
    threads = Index.build(points, _spec())
    processes = Index.build(points, _spec(execution="processes"), num_workers=2)
    rng = np.random.default_rng(insert_seed)
    try:
        for size in batch_sizes:
            batch = rng.normal(size=(size, DIM))
            assert np.array_equal(threads.insert(batch), processes.insert(batch))
            checks = np.concatenate([batch, probes[:4]])
            for ra, rb in zip(
                threads.query(QuerySpec(checks)), processes.query(QuerySpec(checks))
            ):
                assert_results_equal(ra, rb)
            for ra, rb in zip(
                threads.query(QuerySpec(checks, k=3)),
                processes.query(QuerySpec(checks, k=3)),
            ):
                assert_results_equal(ra, rb)
    finally:
        threads.close(), processes.close()
