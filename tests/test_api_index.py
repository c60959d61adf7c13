"""Tests for the spec-driven Index facade.

The facade's contract is delegation without deviation: answers must be
bit-identical to the dict-layout reference index of the same spec and
seed (``conftest.reference_index``), for every request shape
(radius / top-k / batch, single index / sharded), while adding the
spec-driven construction, uniform query surface and the result cache.
"""

import inspect
import json
import os
import re
import tempfile

import numpy as np
import pytest

from repro.api import facade, persist
from repro.api import Index, IndexSpec, QuerySpec
from repro.core import CostModel, HybridSearcher
from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.hashing import BitSamplingLSH, PStableLSH, SimHashLSH
from repro.hashing.params import concatenation_width
from repro.service.stream import serve_stream
from repro.service.workers import WorkerPool
from repro.utils.rng import spawn_rngs

from conftest import merge_radius_results, reference_index, served_shards, shard_states


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
    def test_single_build_matches_reference(self, gaussian_points):
        """Default spec == the dict-layout reference of the same seed,
        bit for bit."""
        spec = _spec()
        index = Index.build(gaussian_points, spec)
        reference = HybridSearcher(
            reference_index(gaussian_points, spec), CostModel.from_ratio(6.0)
        )
        for qi in (0, 101, 599):
            a = index.query(QuerySpec(gaussian_points[qi]))
            b = reference.query(gaussian_points[qi], spec.radius)
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)
            assert a.stats.strategy == b.stats.strategy
        index.close()

    @pytest.mark.parametrize("execution", ["threads", "processes"])
    def test_sharded_build_matches_reference(self, gaussian_points, execution):
        """Shard ``s`` holds rows ``s, s + K, ...`` hashed from the
        ``s``-th spawned stream; the pool's merged answers are the
        per-shard dict-layout references' merged by
        ``merge_radius_results``, wherever the endpoints run."""
        spec = _spec(num_shards=3, execution=execution)
        index = Index.build(gaussian_points, spec)
        queries = gaussian_points[:20]
        gids = [np.arange(s, gaussian_points.shape[0], 3) for s in range(3)]
        parts = [
            HybridSearcher(
                reference_index(gaussian_points[g], spec, seed=rng),
                CostModel.from_ratio(6.0),
            ).query_batch(queries, spec.radius)
            for g, rng in zip(gids, spawn_rngs(spec.seed, 3))
        ]
        for qi, got in enumerate(index.query(QuerySpec(queries))):
            want = merge_radius_results(gids, [p[qi] for p in parts], spec.radius)
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.distances, want.distances)
        index.close()

    def test_build_accepts_raw_spec_document(self, gaussian_points):
        index = Index.build(
            gaussian_points,
            {"metric": "l2", "radius": 1.0, "num_tables": 6, "seed": 1},
        )
        assert isinstance(index.spec, IndexSpec)
        assert index.n == gaussian_points.shape[0]

    def test_custom_k_and_bucket_width(self, gaussian_points):
        index = Index.build(gaussian_points, _spec(bucket_width=2.0, k=4))
        assert index.engine.index.k == 4
        assert index.engine.index.family.w == 2.0
        result = index.query(QuerySpec(gaussian_points[0]))
        assert 0 in result.ids

    def test_sharded_build_honours_custom_spec(self, gaussian_points):
        """Custom k/width specs build sharded too."""
        index = Index.build(gaussian_points, _spec(num_shards=2, bucket_width=2.0, k=4))
        assert index.num_shards == 2
        assert all(shard.k == 4 for shard in served_shards(index))
        result = index.query(QuerySpec(gaussian_points[0]))
        assert 0 in result.ids
        index.close()

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
        engines = [e for state in shard_states(index) for e in state.engines.values()]
        assert len(engines) == 2 and all(e.dedup == "scalar" for e in engines)
        index.close()

    @pytest.mark.parametrize("dedup", ["scalar", "vectorized"])
    @pytest.mark.parametrize("variant", ["multiprobe", "covering"])
    def test_spec_dedup_reaches_the_served_index(self, binary_points, tmp_path, variant, dedup):
        """The served index runs Step S2 the spec's way even where a
        caller passes no ``dedup`` (the searcher then reads the index's),
        also after a save and reopen."""
        spec = _spec(metric="hamming", radius=2.0, variant=variant, dedup=dedup)
        index = Index.build(binary_points, spec)
        path = str(tmp_path / "dedup")
        index.save(path)
        reopened = Index.open(path)
        try:
            assert index.engine.index.dedup == dedup
            assert reopened.engine.index.dedup == dedup
        finally:
            index.close(), reopened.close()


def _binary(points):
    return (points > 0).astype(np.uint8)


class TestFamilyDraws:
    """The served index hashes with the metric's family drawn from the
    spec's seed: its saved ``kernel_*.npy`` arrays are those of the
    family built directly (``k`` and ``w`` as the spec and the paper
    say), so resolving the family in one place moved no draw."""

    @pytest.mark.parametrize(
        "metric, overrides, family, k",
        [
            ("l2", {}, lambda d: PStableLSH(d, w=2 * 1.0, p=2, seed=1), 7),
            ("l2", {"k": 4}, lambda d: PStableLSH(d, w=2 * 1.0, p=2, seed=1), 4),
            ("l2", {"k": 4, "bucket_width": 0.7}, lambda d: PStableLSH(d, w=0.7, p=2, seed=1), 4),
            ("l1", {}, lambda d: PStableLSH(d, w=4 * 1.0, p=1, seed=1), 8),
            ("l1", {"k": 5}, lambda d: PStableLSH(d, w=4 * 1.0, p=1, seed=1), 5),
            ("l1", {"bucket_width": 2.5}, lambda d: PStableLSH(d, w=2.5, p=1, seed=1), 8),
            ("cosine", {}, lambda d: SimHashLSH(d, seed=1), None),
            ("cosine", {"k": 5}, lambda d: SimHashLSH(d, seed=1), 5),
            ("hamming", {}, lambda d: BitSamplingLSH(d, seed=1), None),
            ("hamming", {"k": 3}, lambda d: BitSamplingLSH(d, seed=1), 3),
        ],
        ids=[
            "l2", "l2-k", "l2-k-width", "l1", "l1-k", "l1-width",
            "cosine", "cosine-k", "hamming", "hamming-k",
        ],
    )
    def test_saved_kernel_is_the_family_drawn_from_the_seed(
        self, gaussian_points, tmp_path, metric, overrides, family, k
    ):
        points = _binary(gaussian_points) if metric == "hamming" else gaussian_points
        spec = _spec(metric=metric, **overrides)
        direct = family(points.shape[1])
        if k is None:  # the parameter rule at the spec's radius
            k = concatenation_width(
                spec.num_tables, spec.delta, direct.collision_probability(spec.radius)
            )
        expected = direct.sample_batch(k, spec.num_tables)
        index = Index.build(points, spec)
        assert index.engine.index.k == k
        path = str(tmp_path / metric)
        index.save(path)
        index.close()
        shard = os.path.join(path, "shard_000.frozen")
        saved = {
            name[len("kernel_"):-len(".npy")]: np.load(os.path.join(shard, name))
            for name in os.listdir(shard)
            if name.startswith("kernel_")
        }
        assert sorted(saved) == sorted(expected.params)
        for name, array in expected.params.items():
            assert np.array_equal(saved[name], array), name


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

    def test_insert_drops_every_cached_answer(self, gaussian_points):
        """A cached entry is a whole answer, which a point on any shard
        can change: one insert empties the cache, whatever K is."""
        index = Index.build(
            gaussian_points, _spec(num_shards=4, cache_size=256)
        )
        try:
            index.query(QuerySpec(gaussian_points[:6]))
            assert len(index.cache) == 6  # one whole answer per query
            index.insert(gaussian_points[:1] + 2e-5)
            assert len(index.cache) == 0
        finally:
            index.close()

    @pytest.mark.parametrize("execution", ["threads", "processes"])
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_cached_sharded_answers_stay_correct_after_insert(
        self, gaussian_points, num_shards, execution
    ):
        """Through misses, a fully cached repeat, an insert and in-batch
        duplicates, the cache reports what the uncached batch path does:
        ids, distances and every field of each row's ``QueryStats``."""
        spec = _spec(num_shards=num_shards, execution=execution)
        cached = Index.build(gaussian_points, spec.with_overrides(cache_size=512))
        bare = Index.build(gaussian_points, spec)
        try:
            queries = gaussian_points[:8]

            def check(batch):
                for x, y in zip(cached.query(QuerySpec(batch)), bare.query(QuerySpec(batch))):
                    assert np.array_equal(x.ids, y.ids)
                    assert np.array_equal(x.distances, y.distances)
                    assert x.radius == y.radius
                    assert repr(x.stats) == repr(y.stats)  # the floats too, nan-aware
                    assert (x.degraded, x.missing_shards) == (y.degraded, y.missing_shards)

            check(queries)  # 8 misses
            check(queries)  # 8 hits
            new = queries[:3] + 1e-5
            cached.insert(new)
            bare.insert(new)
            assert len(cached.cache) == 0
            check(np.concatenate([queries, queries[:3]]))  # 8 misses, 3 shared
            stats = cached.stats
            assert (stats.cache_hits, stats.cache_misses, stats.deduplicated) == (8, 16, 3)
        finally:
            cached.close()
            bare.close()

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


    def test_inserts_route_by_id_whatever_next_shard_says(self, gaussian_points, tmp_path):
        """New id ``i`` goes to shard ``i % K``, even when
        ``index.json``'s ``next_shard`` names another shard."""
        built = Index.build(gaussian_points, _spec(num_shards=3))
        path = str(tmp_path / "idx")
        built.save(path)
        built.close()
        meta_path = os.path.join(path, "index.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        n = meta["n"]
        target = n % 3
        meta["next_shard"] = (target + 1) % 3
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        index = Index.open(path)
        try:
            sizes = [shard.n for shard in served_shards(index)]
            assert index.insert(gaussian_points[:1] + 1e-5).tolist() == [n]
            sizes[target] += 1
            assert [shard.n for shard in served_shards(index)] == sizes
        finally:
            index.close()


#: every engine member ``Index`` and its persistence call, with its
#: parameter names (None: read as an attribute or property).
ENGINE_SURFACE = {
    "n": None,
    "dim": None,
    "num_shards": None,
    "cost_model": None,
    "pool_workers": None,
    "local_points": None,
    "resolve_radius": ("radius",),
    "query_batch": ("queries", "radius", "trace", "allow_partial", "adaptive"),
    "query_topk_batch": ("queries", "k", "trace", "allow_partial"),
    "insert": ("new_points",),
    "save_shards": ("path",),
    "counters": (),
    "reset_stats": (),
    "worker_stats": (),
    "gauge_hooks": (),
    "close": (),
}


class TestEngineSurface:
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"num_shards": 2}, {"num_shards": 2, "execution": "processes"}],
        ids=["single", "threads", "processes"],
    )
    def test_every_engine_presents_what_the_facade_calls(self, gaussian_points, overrides):
        called = set(
            re.findall(
                r"\bengine\.(\w+)",
                inspect.getsource(facade) + inspect.getsource(persist),
            )
        )
        assert called == set(ENGINE_SURFACE)
        index = Index.build(gaussian_points, _spec(**overrides))
        try:
            engine = index.engine
            for name, params in ENGINE_SURFACE.items():
                assert hasattr(engine, name), name
                if params is not None:
                    signature = inspect.signature(getattr(engine, name))
                    assert tuple(signature.parameters) == params, name
        finally:
            index.close()


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
        # A sharded index's spans are the pool's: its endpoints' round
        # trip and the merge.
        assert 'repro_stage_seconds_total{stage="ipc"}' in text
        assert 'repro_stage_seconds_total{stage="merge"}' in text
