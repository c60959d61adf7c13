"""Persistence tests for the Index facade (save / open).

The acceptance bar: ``Index.open(path)`` on a saved 4-shard index must
return bit-identical radius, top-k, and batch answers to the pre-save
index on a fixed query set.
"""

import json
import os

import numpy as np
import pytest

from repro.api import Index, IndexSpec, QuerySpec
from repro.exceptions import ConfigurationError

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis"
)
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _build(points, **overrides):
    base = dict(metric="l2", radius=1.0, num_tables=6, cost_ratio=6.0, seed=1)
    base.update(overrides)
    return Index.build(points, IndexSpec(**base))


def _assert_identical_answers(a: Index, b: Index, queries: np.ndarray) -> None:
    for x, y in zip(a.query(QuerySpec(queries)), b.query(QuerySpec(queries))):
        assert np.array_equal(x.ids, y.ids)
        assert np.array_equal(x.distances, y.distances)
        assert x.stats.strategy == y.stats.strategy
    for qi in range(0, queries.shape[0], 7):
        x = a.query(QuerySpec(queries[qi]))
        y = b.query(QuerySpec(queries[qi]))
        assert np.array_equal(x.ids, y.ids)
        assert np.array_equal(x.distances, y.distances)
        x = a.query(QuerySpec(queries[qi], k=9))
        y = b.query(QuerySpec(queries[qi], k=9))
        assert np.array_equal(x.ids, y.ids)
        assert np.array_equal(x.distances, y.distances)


class TestShardedRoundTrip:
    def test_four_shard_round_trip_is_bit_identical(self, gaussian_points, tmp_path):
        """The ISSUE acceptance criterion, verbatim."""
        index = _build(gaussian_points, num_shards=4)
        path = str(tmp_path / "sharded")
        index.save(path)
        reopened = Index.open(path)
        assert reopened.num_shards == 4
        assert reopened.n == index.n
        assert reopened.spec == index.spec
        _assert_identical_answers(index, reopened, gaussian_points[:40])

    def test_round_trip_after_inserts_preserves_id_maps(self, gaussian_points, tmp_path):
        index = _build(gaussian_points, num_shards=3)
        inserted = index.insert(gaussian_points[:5] + 1e-5)
        path = str(tmp_path / "with-inserts")
        index.save(path)
        reopened = Index.open(path)
        assert reopened.n == index.n
        _assert_identical_answers(index, reopened, gaussian_points[:20])
        # Insert routing state survives: the next inserts land on the
        # same shards in both instances.
        a = index.insert(gaussian_points[5:9] + 1e-5)
        b = reopened.insert(gaussian_points[5:9] + 1e-5)
        assert np.array_equal(a, b)
        assert index.engine.shard_sizes() == reopened.engine.shard_sizes()
        assert inserted[0] in reopened.query(QuerySpec(gaussian_points[0])).ids

    def test_cost_model_restored_not_recalibrated(self, gaussian_points, tmp_path):
        """A timing-calibrated model must reload from its saved constants."""
        index = _build(gaussian_points, num_shards=2, cost_ratio=None)
        path = str(tmp_path / "calibrated")
        index.save(path)
        reopened = Index.open(path)
        assert reopened.cost_model.alpha == index.cost_model.alpha
        assert reopened.cost_model.beta == index.cost_model.beta
        _assert_identical_answers(index, reopened, gaussian_points[:10])


class TestSingleRoundTrip:
    def test_single_index_round_trip(self, gaussian_points, tmp_path):
        index = _build(gaussian_points, cache_size=32)
        path = str(tmp_path / "single")
        index.save(path)
        reopened = Index.open(path)
        assert reopened.num_shards == 1
        assert reopened.cache is not None and reopened.cache.maxsize == 32
        _assert_identical_answers(index, reopened, gaussian_points[:25])

    def test_meta_file_is_json_with_spec(self, gaussian_points, tmp_path):
        index = _build(gaussian_points)
        path = str(tmp_path / "meta")
        index.save(path)
        with open(os.path.join(path, "index.json")) as fh:
            meta = json.load(fh)
        assert IndexSpec.from_dict(meta["spec"]) == index.spec
        assert meta["cost_model"]["beta"] == pytest.approx(6.0)


class TestErrors:
    def test_open_missing_path_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            Index.open(str(tmp_path / "nothing-here"))


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"num_shards": 3},
        {"num_shards": 2, "layout": "frozen", "execution": "processes"},
    ],
    ids=["single", "sharded", "processes"],
)
def test_parent_format_artifact_reopens_bit_identically(
    gaussian_points, tmp_path, overrides
):
    """An index saved before the policy lost three fields still opens.

    The saved policy document is rewritten to the nine-key shape the
    previous format wrote; answers (radius, batch, adaptive top-k) must
    equal the index that was saved.  (Without a policy the document is
    ``"adaptive": null`` in both formats — the round-trip tests above.)
    """
    index = _build(gaussian_points, adaptive={"target_candidates": 40}, **overrides)
    path = str(tmp_path / "ix")
    index.save(path)
    meta_path = os.path.join(path, "index.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    meta["spec"]["adaptive"].update(k_safety=2.0, radius_growth=2.0, max_escalations=3)
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    reopened = Index.open(path)
    try:
        assert reopened.spec == index.spec
        _assert_identical_answers(index, reopened, gaussian_points[:21])
    finally:
        index.close(), reopened.close()


@settings(max_examples=5, deadline=None)
@given(
    num_shards=st.integers(1, 5),
    metric=st.sampled_from(["l2", "l1"]),
    data_seed=st.integers(0, 2**10),
)
def test_round_trip_property(num_shards, metric, data_seed, tmp_path_factory):
    """Any (metric, K, data) combination saved and reopened answers
    bit-identically on a fixed query set."""
    rng = np.random.default_rng(data_seed)
    points = rng.normal(size=(180, 8))
    index = Index.build(
        points,
        IndexSpec(
            metric=metric, radius=1.2, num_tables=4, cost_ratio=6.0,
            num_shards=num_shards, seed=3,
        ),
    )
    path = str(tmp_path_factory.mktemp("roundtrip") / "ix")
    index.save(path)
    reopened = Index.open(path)
    queries = points[:8]
    for x, y in zip(index.query(QuerySpec(queries)), reopened.query(QuerySpec(queries))):
        assert np.array_equal(x.ids, y.ids)
        assert np.array_equal(x.distances, y.distances)
