"""Tests for the query-result cache, a cache-fronted Index and the stream."""

import json

import numpy as np
import pytest

from repro.api import Index, IndexSpec, QuerySpec
from repro.core.results import QueryResult
from repro.exceptions import ConfigurationError
from repro.service import QueryResultCache, serve_stream


def _dummy_result(ids=(1, 2)) -> QueryResult:
    ids = np.asarray(ids, dtype=np.int64)
    return QueryResult(ids=ids, distances=np.zeros(ids.size), radius=1.0)


class TestLruSemantics:
    def test_hit_miss_and_counters(self):
        cache = QueryResultCache(maxsize=4)
        key = cache.make_key(np.array([1.0, 2.0]), radius=0.5)
        assert cache.get(key) is None
        cache.put(key, _dummy_result())
        assert cache.get(key).ids.tolist() == [1, 2]
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_eviction_order_is_lru(self):
        cache = QueryResultCache(maxsize=2)
        keys = [cache.make_key(np.array([float(i)]), radius=1.0) for i in range(3)]
        cache.put(keys[0], _dummy_result())
        cache.put(keys[1], _dummy_result())
        assert cache.get(keys[0]) is not None  # refresh 0; 1 becomes LRU
        cache.put(keys[2], _dummy_result())
        assert len(cache) == 2
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) is not None

    def test_clear(self):
        cache = QueryResultCache(maxsize=2)
        key = cache.make_key(np.array([0.0]), radius=1.0)
        cache.put(key, _dummy_result())
        cache.get(key)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            QueryResultCache(maxsize=0)
        with pytest.raises(ConfigurationError):
            QueryResultCache(quantum=-1.0)


class TestKeying:
    def test_radius_is_part_of_the_key(self):
        cache = QueryResultCache()
        q = np.array([1.0, 2.0])
        assert cache.make_key(q, 0.5) != cache.make_key(q, 0.6)

    def test_quantisation_buckets_nearby_queries(self):
        cache = QueryResultCache(quantum=0.1)
        a = cache.make_key(np.array([1.00, 2.00]), 0.5)
        b = cache.make_key(np.array([1.04, 1.96]), 0.5)
        c = cache.make_key(np.array([1.30, 2.00]), 0.5)
        assert a == b
        assert a != c

    def test_zero_quantum_keys_exact_bytes(self):
        cache = QueryResultCache(quantum=0.0)
        a = cache.make_key(np.array([1.0]), 0.5)
        b = cache.make_key(np.array([1.0 + 1e-12]), 0.5)
        assert a != b

    def test_huge_coordinates_do_not_collide(self):
        """Regression: values past int64 range after quantisation must
        not saturate onto one key."""
        cache = QueryResultCache(quantum=1e-9)
        a = cache.make_key(np.array([1e10, 0.0]), 1.0)
        b = cache.make_key(np.array([2e10, 0.0]), 1.0)
        assert a != b
        nan_key = cache.make_key(np.array([np.nan, 0.0]), 1.0)
        assert nan_key not in (a, b)

    def test_negative_zero_canonicalised(self):
        cache = QueryResultCache(quantum=1e-6)
        assert cache.make_key(np.array([0.0]), 1.0) == cache.make_key(
            np.array([-0.0]), 1.0
        )


def _spec(**overrides) -> IndexSpec:
    base = dict(metric="l2", radius=1.0, num_tables=6, cost_ratio=6.0, seed=1)
    base.update(overrides)
    return IndexSpec(**base)


@pytest.fixture
def service(gaussian_points) -> Index:
    return Index.build(gaussian_points, _spec(cache_size=64))


class TestQueryService:
    """The cache in front of ``Index.query`` (``IndexSpec.cache_size > 0``)."""

    def test_repeat_query_hits_cache(self, service, gaussian_points):
        first = service.query(QuerySpec(gaussian_points[0]))
        second = service.query(QuerySpec(gaussian_points[0]))
        assert np.array_equal(first.ids, second.ids)
        assert service.stats.cache_hits == 1
        assert service.stats.cache_misses == 1
        assert service.stats.queries_served == 2

    def test_duplicates_within_one_batch_collapse(self, service, gaussian_points):
        batch = np.stack([gaussian_points[0], gaussian_points[1], gaussian_points[0]])
        results = service.query(QuerySpec(batch))
        assert np.array_equal(results[0].ids, results[2].ids)
        assert service.stats.cache_misses == 2  # only two engine queries
        # The duplicate is engine work avoided, but not a cache hit —
        # it was answered by its batch-mate's fresh result.
        assert service.stats.deduplicated == 1
        assert service.stats.cache_hits == 0

    def test_cached_results_match_uncached(self, gaussian_points, service):
        bare = Index.build(gaussian_points, _spec())  # same seed, no cache
        queries = QuerySpec(gaussian_points[::50])
        service.query(queries)  # warm the cache
        cached = service.query(queries)  # all hits
        assert service.stats.cache_hits == len(cached)
        for c, u in zip(cached, bare.query(queries)):
            assert np.array_equal(c.ids, u.ids)
            assert np.array_equal(c.distances, u.distances)

    def test_insert_invalidates_cache(self, service, gaussian_points):
        """Regression: stale cached answers after an insert."""
        query = QuerySpec(gaussian_points[0])
        before = service.query(query)
        ids = service.insert(gaussian_points[:1] + 1e-5)
        after = service.query(query)
        assert ids[0] in after.ids
        assert ids[0] not in before.ids
        assert after.output_size == before.output_size + 1

    def test_strategy_counts_accumulate(self, service, gaussian_points):
        service.query(QuerySpec(gaussian_points[:10]))
        assert sum(service.stats.strategy_counts.values()) == 10

    def test_stats_snapshot_roundtrips_json(self, service, gaussian_points):
        service.query(QuerySpec(gaussian_points[0]))
        payload = json.dumps(service.stats.as_dict())
        assert json.loads(payload)["queries_served"] == 1


class TestServeStream:
    def test_query_insert_stats_roundtrip(self, service, gaussian_points):
        lines = [
            json.dumps({"query": gaussian_points[0].tolist()}),
            json.dumps({"query": gaussian_points[0].tolist(), "radius": 0.5}),
            json.dumps({"op": "insert", "points": [(gaussian_points[1] + 1e-5).tolist()]}),
            json.dumps({"query": gaussian_points[1].tolist()}),
            json.dumps({"op": "stats"}),
        ]
        out = [json.loads(line) for line in serve_stream(service, lines, batch_size=8)]
        assert out[0]["found"] >= 1 and 0 in out[0]["ids"]
        assert out[1]["strategy"] in ("lsh", "linear")
        assert out[2]["inserted"] == 1
        assert out[2]["ids"][0] in out[3]["ids"]  # insert visible to later query
        assert out[4]["queries_served"] == 3

    def test_malformed_lines_do_not_poison_the_batch(self, service, gaussian_points):
        lines = [
            json.dumps({"query": gaussian_points[0].tolist()}),
            "not json at all",
            json.dumps({"query": [1.0, 2.0]}),  # wrong dimension
            json.dumps({"query": gaussian_points[2].tolist(), "radius": -3}),
            json.dumps({"op": "warp"}),
            json.dumps({"query": gaussian_points[3].tolist()}),
        ]
        out = [json.loads(line) for line in serve_stream(service, lines, batch_size=2)]
        assert len(out) == 6
        assert "error" in out[1] and "error" in out[2]
        assert "error" in out[3] and "error" in out[4]
        assert out[0]["found"] >= 1 and out[5]["found"] >= 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("k", 2.9),  # was answered as k = 2
            ("k", True),  # was answered as k = 1
            ("target_candidates", 3.7),  # was truncated to 3
            ("allow_partial", "false"),  # a non-empty string: turned it ON
            ("query", "nan"),  # was an empty answer plus a RuntimeWarning
        ],
    )
    def test_mistyped_field_is_an_error_line(
        self, service, gaussian_points, field, value
    ):
        request = {"query": gaussian_points[0].tolist(), field: value}
        if field == "query":
            request["query"] = [float("nan")] + gaussian_points[0, 1:].tolist()
        lines = [
            json.dumps(request),
            json.dumps({"query": gaussian_points[1].tolist()}),
        ]
        bad, good = (json.loads(line) for line in serve_stream(service, lines))
        assert field in bad["error"]
        assert 1 in good["ids"]  # the stream lives on

    def test_missing_radius_yields_error_lines_not_a_dead_stream(self, gaussian_points):
        """Regression: an engine-level failure (no default radius) must
        produce per-line errors, not kill the generator mid-stream."""
        bare = Index.build(gaussian_points, _spec())
        bare.engine.radius = None  # the engine loses its default radius
        lines = [
            json.dumps({"query": gaussian_points[0].tolist()}),  # no radius
            json.dumps({"query": gaussian_points[1].tolist(), "radius": 1.0}),
            json.dumps({"op": "stats"}),
        ]
        out = [json.loads(line) for line in serve_stream(bare, lines, batch_size=8)]
        assert len(out) == 3
        assert "error" in out[0] and "radius" in out[0]["error"]
        assert 1 in out[1]["ids"]
        assert out[2]["queries_served"] == 1

    def test_micro_batching_preserves_order(self, service, gaussian_points):
        queries = gaussian_points[:7]
        lines = [json.dumps({"query": q.tolist()}) for q in queries]
        out = [
            json.loads(line)
            for line in serve_stream(
                service, lines, batch_size=3, more_ready=lambda: True
            )
        ]
        for i, response in enumerate(out):
            assert i in response["ids"]  # each query finds itself

    def test_idle_client_gets_an_immediate_response(self, service, gaussian_points):
        """Regression: with no backlog the stream must answer each query
        as it arrives, never holding it hostage for batch_size peers."""
        consumed = []

        def tracking_lines():
            for i in (0, 1):
                consumed.append(i)
                yield json.dumps({"query": gaussian_points[i].tolist()})

        stream = serve_stream(service, tracking_lines(), batch_size=64)
        first = json.loads(next(stream))
        assert consumed == [0]  # responded without waiting for more input
        assert 0 in first["ids"]
        assert 1 in json.loads(next(stream))["ids"]
