"""Tests for the spec-driven Index facade.

The facade's contract is delegation without deviation: answers must be
bit-identical to the legacy engines it wraps, for every request shape
(radius / top-k / batch, single index / sharded), while adding the
spec-driven construction, uniform query surface, per-shard cache
invalidation, and plugin registries.
"""

import json
import os
import tempfile

import numpy as np
import pytest

from repro.api import facade
from repro.api import (
    Index,
    IndexSpec,
    QuerySpec,
    available_families,
    register_family,
)
from repro.core import CostModel
from repro.core.hybrid import HybridLSH
from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.service.sharded import ShardedHybridIndex
from repro.service.stream import serve_stream
from repro.service.workers import WorkerPool


def _spec(**overrides):
    base = dict(metric="l2", radius=1.0, num_tables=6, cost_ratio=6.0, seed=1)
    base.update(overrides)
    return IndexSpec(**base)


@pytest.fixture
def single_index(gaussian_points) -> Index:
    return Index.build(gaussian_points, _spec())


@pytest.fixture
def sharded_index(gaussian_points) -> Index:
    return Index.build(gaussian_points, _spec(num_shards=4))


class TestBuildParity:
    def test_single_build_matches_legacy_hybrid(self, gaussian_points):
        """Default spec == HybridLSH with the same seed, bit for bit."""
        index = Index.build(gaussian_points, _spec())
        legacy = HybridLSH(
            gaussian_points, metric="l2", radius=1.0, num_tables=6,
            cost_model=CostModel.from_ratio(6.0), seed=1,
        )
        for qi in (0, 101, 599):
            a = index.query(QuerySpec(gaussian_points[qi]))
            b = legacy.query(gaussian_points[qi])
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)
            assert a.stats.strategy == b.stats.strategy

    def test_sharded_build_matches_legacy_sharded(self, gaussian_points):
        index = Index.build(gaussian_points, _spec(num_shards=3))
        legacy = ShardedHybridIndex(
            gaussian_points, metric="l2", radius=1.0, num_shards=3,
            num_tables=6, cost_model=CostModel.from_ratio(6.0), seed=1,
        )
        a = index.query(QuerySpec(gaussian_points[:20]))
        b = legacy.query_batch(gaussian_points[:20])
        for x, y in zip(a, b):
            assert np.array_equal(x.ids, y.ids)
            assert np.array_equal(x.distances, y.distances)

    def test_build_accepts_raw_spec_document(self, gaussian_points):
        index = Index.build(
            gaussian_points,
            {"metric": "l2", "radius": 1.0, "num_tables": 6, "seed": 1},
        )
        assert isinstance(index.spec, IndexSpec)
        assert index.n == gaussian_points.shape[0]

    def test_custom_k_and_family_by_name(self, gaussian_points):
        index = Index.build(
            gaussian_points,
            _spec(hash_family="pstable_l2", bucket_width=2.0, k=4),
        )
        assert index.engine.index.k == 4
        result = index.query(QuerySpec(gaussian_points[0]))
        assert 0 in result.ids

    def test_sharded_build_honours_custom_spec(self, gaussian_points):
        """Custom k/family/width specs now build sharded too (PR 4)."""
        index = Index.build(
            gaussian_points,
            _spec(num_shards=2, hash_family="pstable_l2", bucket_width=2.0, k=4),
        )
        assert index.num_shards == 2
        assert all(shard.index.k == 4 for shard in index.engine.shards)
        result = index.query(QuerySpec(gaussian_points[0]))
        assert 0 in result.ids
        index.close()

    def test_sharded_custom_spec_persists_and_reopens(self, gaussian_points, tmp_path):
        index = Index.build(
            gaussian_points, _spec(num_shards=2, k=4, lazy_threshold=16)
        )
        path = str(tmp_path / "custom-sharded")
        index.save(path)
        reopened = Index.open(path)
        queries = gaussian_points[:8]
        for ra, rb in zip(index.query(queries), reopened.query(queries)):
            assert np.array_equal(ra.ids, rb.ids)
            assert np.array_equal(ra.distances, rb.distances)
        index.close(), reopened.close()

    def test_spec_dedup_reaches_sharded_engines(self, gaussian_points):
        index = Index.build(gaussian_points, _spec(num_shards=2, dedup="scalar"))
        assert all(e.dedup == "scalar" for e in index.engine._engines)


class TestProcessPoolArtifact:
    """A process-pool build that fails leaves no transient artifact in
    the temp dir (pinned under a private ``tempfile.tempdir``)."""

    @pytest.fixture
    def private_tmp(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_bad_num_workers_is_refused_before_any_build(
        self, gaussian_points, private_tmp, monkeypatch
    ):
        builds = []
        build = facade._build_single_index
        monkeypatch.setattr(
            facade, "_build_single_index", lambda *a, **k: builds.append(a) or build(*a, **k)
        )
        spec = _spec(num_shards=2, execution="processes")
        with pytest.raises(ConfigurationError, match="num_workers"):
            Index.build(gaussian_points, spec, num_workers=0)
        assert builds == []
        assert os.listdir(private_tmp) == []

    def test_a_pool_that_fails_to_start_removes_the_artifact(
        self, gaussian_points, private_tmp, monkeypatch
    ):
        def refuse(pool, path, **kwargs):
            assert os.path.exists(os.path.join(path, "index.json"))  # it was saved
            raise RuntimeError("no pool today")

        monkeypatch.setattr(WorkerPool, "__init__", refuse)
        with pytest.raises(RuntimeError, match="no pool today"):
            Index.build(gaussian_points, _spec(num_shards=2, execution="processes"))
        assert os.listdir(private_tmp) == []


class TestQuerySurface:
    def test_single_vector_returns_one_result(self, single_index, gaussian_points):
        result = single_index.query(QuerySpec(gaussian_points[0]))
        assert 0 in result.ids

    def test_matrix_returns_list(self, single_index, gaussian_points):
        results = single_index.query(QuerySpec(gaussian_points[:5]))
        assert [int(r.ids[0]) for r in results] == [0, 1, 2, 3, 4]

    def test_raw_ndarray_convenience(self, single_index, gaussian_points):
        result = single_index.query(gaussian_points[0], radius=0.5)
        assert 0 in result.ids

    def test_radius_in_both_places_rejected(self, single_index, gaussian_points):
        with pytest.raises(ConfigurationError):
            single_index.query(QuerySpec(gaussian_points[0], radius=1.0), radius=2.0)

    def test_topk_single_matches_sharded(self, gaussian_points):
        """Exact top-k must agree between 1-shard and K-shard layouts."""
        single = Index.build(gaussian_points, _spec())
        sharded = Index.build(gaussian_points, _spec(num_shards=4))
        for qi in (0, 250, 510):
            a = single.query(QuerySpec(gaussian_points[qi], k=7))
            b = sharded.query(QuerySpec(gaussian_points[qi], k=7))
            assert np.array_equal(a.ids, b.ids)
            assert np.allclose(a.distances, b.distances)

    def test_topk_k_exceeding_n_rejected(self, single_index, gaussian_points):
        with pytest.raises(ConfigurationError):
            single_index.query(QuerySpec(gaussian_points[0], k=single_index.n + 1))

    def test_dimension_mismatch_rejected(self, single_index):
        with pytest.raises(DimensionMismatchError):
            single_index.query(QuerySpec(np.zeros(3)))

    def test_stats_accumulate(self, single_index, gaussian_points):
        single_index.query(QuerySpec(gaussian_points[:10]))
        single_index.query(QuerySpec(gaussian_points[0], k=3))
        assert single_index.stats.queries_served == 11
        assert single_index.stats.batches == 2
        assert sum(single_index.stats.strategy_counts.values()) == 11


class TestInsertAndCacheInvalidation:
    def test_insert_visible_to_next_query(self, sharded_index, gaussian_points):
        new = gaussian_points[:2] + 1e-5
        ids = sharded_index.insert(new)
        assert ids.tolist() == [600, 601]
        result = sharded_index.query(QuerySpec(gaussian_points[0]))
        assert 600 in result.ids

    def test_insert_only_invalidates_affected_shards(self, gaussian_points):
        """The ROADMAP item: whole-cache drops become per-shard drops."""
        index = Index.build(
            gaussian_points, _spec(num_shards=4, cache_size=256)
        )
        index.query(QuerySpec(gaussian_points[:6]))
        assert len(index.cache) == 6 * 4  # one partial per (query, shard)
        # One point routes to exactly one shard; the other 3 shards'
        # partials must survive.
        index.insert(gaussian_points[:1] + 2e-5)
        assert len(index.cache) == 6 * 3

    def test_cached_sharded_answers_stay_correct_after_insert(self, gaussian_points):
        cached = Index.build(gaussian_points, _spec(num_shards=3, cache_size=512))
        bare = Index.build(gaussian_points, _spec(num_shards=3))
        queries = gaussian_points[:8]
        cached.query(QuerySpec(queries))  # warm the cache
        new = queries[:3] + 1e-5
        cached.insert(new)
        bare.insert(new)
        a = cached.query(QuerySpec(queries))  # part cached, part recomputed
        b = bare.query(QuerySpec(queries))
        for x, y in zip(a, b):
            assert np.array_equal(x.ids, y.ids)
            assert np.array_equal(x.distances, y.distances)

    def test_cache_hits_count_full_hits_only(self, gaussian_points):
        index = Index.build(gaussian_points, _spec(num_shards=2, cache_size=64))
        index.query(QuerySpec(gaussian_points[0]))
        index.query(QuerySpec(gaussian_points[0]))
        assert index.stats.cache_misses == 1
        assert index.stats.cache_hits == 1

    def test_single_backend_insert_clears_its_partition(self, gaussian_points):
        index = Index.build(gaussian_points, _spec(cache_size=64))
        before = index.query(QuerySpec(gaussian_points[0]))
        ids = index.insert(gaussian_points[:1] + 1e-5)
        after = index.query(QuerySpec(gaussian_points[0]))
        assert ids[0] in after.ids and ids[0] not in before.ids


class TestRegistries:
    def test_builtin_families_present(self):
        names = available_families()
        for name in ("bit_sampling", "simhash", "pstable_l1", "pstable_l2", "minhash"):
            assert name in names

    def test_register_custom_family_and_use_in_spec(self, gaussian_points):
        from repro.hashing.pstable import PStableLSH

        def narrow_l2(dim, seed=None, **kwargs):
            kwargs.setdefault("w", 1.0)
            return PStableLSH(dim, p=2, seed=seed, **kwargs)

        register_family("narrow-l2-test", narrow_l2)
        index = Index.build(
            gaussian_points, _spec(hash_family="narrow-l2-test", k=5)
        )
        assert index.engine.index.family.w == 1.0
        assert 0 in index.query(QuerySpec(gaussian_points[0])).ids

    def test_estimator_matches_between_single_and_batch(self, gaussian_points):
        """The merged-HLL ``candSize`` a batch reports per row is the one
        the single-query path reports; k=1 at ratio 8 leaves rows open."""
        index = Index.build(gaussian_points, _spec(k=1, cost_ratio=8.0))
        queries = gaussian_points[:6]
        batch = index.query(QuerySpec(queries))
        for qi, res in enumerate(batch):
            solo = index.query(QuerySpec(queries[qi]))
            assert np.array_equal(res.ids, solo.ids)
            assert res.stats.estimated_candidates == solo.stats.estimated_candidates
            assert res.stats.strategy == solo.stats.strategy

    def test_user_registration_before_builtins_does_not_suppress_them(self):
        """Regression: registering a name early must not stop the lazy
        builtin pass, nor clobber a user's metric default with a builtin."""
        import subprocess
        import sys

        code = (
            "from repro.hashing.base import register_family, get_family, "
            "family_for_metric\n"
            "class Fam:  # registered before any registry lookup\n"
            "    def __init__(self, dim, seed=None): self.dim = dim\n"
            "register_family('simhash', Fam, metric='l2')\n"
            "assert get_family('pstable_l1') is not None  # builtins still load\n"
            "assert isinstance(family_for_metric('l2', 4), Fam)  # user default kept\n"
            "assert get_family('simhash') is Fam  # user override kept\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


class TestStreamSpecOps:
    def test_spec_save_open_create_roundtrip(self, sharded_index, gaussian_points, tmp_path):
        saved = str(tmp_path / "served-index")
        lines = [
            json.dumps({"op": "spec"}),
            json.dumps({"op": "save", "path": saved}),
            json.dumps({"query": gaussian_points[0].tolist()}),
            json.dumps({"op": "open", "path": saved}),
            json.dumps({"query": gaussian_points[0].tolist()}),
            json.dumps(
                {
                    "op": "create",
                    "spec": {"metric": "l2", "radius": 1.0, "num_tables": 4, "seed": 2},
                    "points": gaussian_points[:50].tolist(),
                }
            ),
            json.dumps({"query": gaussian_points[0].tolist()}),
        ]
        out = [json.loads(line) for line in serve_stream(sharded_index, lines)]
        assert out[0]["spec"]["metric"] == "l2"
        assert out[0]["spec"]["num_shards"] == 4
        assert out[1] == {"saved": saved}
        assert out[3]["opened"] == saved and out[3]["n"] == 600
        assert out[4] == out[2]  # reopened index answers identically
        assert out[5]["created"] is True and out[5]["n"] == 50
        assert 0 in out[6]["ids"]

    def test_topk_over_the_wire(self, single_index, gaussian_points):
        lines = [json.dumps({"query": gaussian_points[0].tolist(), "k": 5})]
        out = [json.loads(line) for line in serve_stream(single_index, lines)]
        assert out[0]["found"] == 5
        assert out[0]["ids"][0] == 0

    def test_radius_and_k_together_is_an_error_line(self, single_index, gaussian_points):
        lines = [
            json.dumps({"query": gaussian_points[0].tolist(), "k": 5, "radius": 1.0})
        ]
        out = [json.loads(line) for line in serve_stream(single_index, lines)]
        assert "error" in out[0]


class TestStreamTelemetryOps:
    def test_stats_op_returns_enriched_snapshot(self, sharded_index, gaussian_points):
        lines = [
            json.dumps({"query": q.tolist()}) for q in gaussian_points[:6]
        ] + [json.dumps({"op": "stats"})]
        out = [json.loads(line) for line in serve_stream(sharded_index, lines)]
        snapshot = out[-1]
        assert snapshot["queries_served"] == 6
        assert snapshot["latency"]["count"] == 6
        # The cumulative bucket counts must form a monotone CDF that
        # accounts for every served query.
        counts = snapshot["latency"]["counts"]
        assert all(c >= 0 for c in counts)
        assert sum(counts) == 6
        assert snapshot["latency"]["p50"] <= snapshot["latency"]["p99"]
        assert "gauges" in snapshot and "stages" in snapshot

    def test_metrics_op_returns_prometheus_text(self, sharded_index, gaussian_points):
        lines = [
            json.dumps({"query": q.tolist()}) for q in gaussian_points[:4]
        ] + [json.dumps({"op": "metrics"})]
        out = [json.loads(line) for line in serve_stream(sharded_index, lines)]
        text = out[-1]["metrics"]
        assert "repro_queries_served_total 4" in text
        assert "# TYPE repro_query_latency_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_query_latency_seconds_count 4" in text

    def test_traced_index_ships_stage_metrics(self, sharded_index, gaussian_points):
        sharded_index.enable_tracing(True)
        lines = [
            json.dumps({"query": q.tolist()}) for q in gaussian_points[:4]
        ] + [json.dumps({"op": "metrics"})]
        out = [json.loads(line) for line in serve_stream(sharded_index, lines)]
        text = out[-1]["metrics"]
        assert 'repro_stage_seconds_total{stage="hash"}' in text
        assert 'repro_stage_seconds_total{stage="merge"}' in text
