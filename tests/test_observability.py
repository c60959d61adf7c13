"""The observability layer: histograms, tracing, stats, exposition.

Two properties anchor the design and are pinned with Hypothesis:

* **merge exactness** — merging per-worker/per-shard histograms yields
  bit-for-bit the bucket counts of one histogram fed the concatenated
  samples, so distributed aggregation never distorts the distribution;
* **tracing is timing-only** — enabling stage tracing on the facade
  returns byte-identical ids and distances to the untraced path.

The rest covers the supporting contracts: quantile semantics, JSON
round-trips, ``ServiceStats`` accounting/merge/reset, gauge hooks, and
the Prometheus text rendering (monotone cumulative buckets).
"""

import json
import math

import numpy as np
import pytest

from repro.api import Index, IndexSpec, QuerySpec
from repro.observability import STAGES, LatencyHistogram, StageTrace, prometheus_text, stage_timer
from repro.observability.tracing import _NULL_SPAN
from repro.service.stats import ServiceStats

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis"
)
from hypothesis import given, settings
from hypothesis import strategies as st

durations = st.floats(
    min_value=1e-9, max_value=1e4, allow_nan=False, allow_infinity=False
)


class TestLatencyHistogram:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert math.isnan(h.quantile(0.5))

    def test_record_and_count(self):
        h = LatencyHistogram()
        h.record(0.001)
        h.record(0.002, count=3)
        assert h.count == 4
        assert h.total_seconds == pytest.approx(0.001 + 3 * 0.002)

    def test_quantile_is_conservative_upper_edge(self):
        h = LatencyHistogram()
        h.record(0.0009)  # lands in the bucket with upper edge 10**-3
        assert h.quantile(0.5) == pytest.approx(1e-3)
        assert h.quantile(0.99) == pytest.approx(1e-3)

    def test_quantile_monotone_in_p(self):
        h = LatencyHistogram()
        h.record_many(np.array([1e-5, 1e-4, 1e-3, 1e-2, 1e-1]))
        qs = [h.quantile(p) for p in (0.1, 0.5, 0.9, 0.99, 1.0)]
        assert qs == sorted(qs)

    def test_quantile_rejects_out_of_range(self):
        h = LatencyHistogram()
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_overflow_bucket_resolves_to_inf(self):
        h = LatencyHistogram()
        h.record(10.0 ** 3)  # beyond the largest finite edge (100 s)
        assert h.quantile(0.5) == float("inf")

    def test_record_many_equals_repeated_record(self):
        values = np.array([3e-6, 4e-4, 0.02, 0.02, 1.7])
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record_many(values)
        for v in values:
            b.record(float(v))
        assert np.array_equal(a.counts, b.counts)
        assert a.total_seconds == pytest.approx(b.total_seconds)

    def test_json_round_trip_is_exact(self):
        h = LatencyHistogram()
        h.record_many(np.array([1e-5, 2e-3, 0.4]))
        doc = json.loads(json.dumps(h.to_dict()))
        back = LatencyHistogram.from_dict(doc)
        assert back == h
        assert back.quantiles() == h.quantiles()

    def test_from_dict_rejects_foreign_scheme(self):
        doc = LatencyHistogram().to_dict()
        doc["scheme"] = "linear[0..1]x10"
        with pytest.raises(ValueError, match="scheme"):
            LatencyHistogram.from_dict(doc)

    def test_from_dict_rejects_wrong_bucket_count(self):
        doc = LatencyHistogram().to_dict()
        doc["counts"] = [0, 1, 2]
        with pytest.raises(ValueError, match="buckets"):
            LatencyHistogram.from_dict(doc)

    @settings(max_examples=50, deadline=None)
    @given(
        samples=st.lists(durations, max_size=60),
        split=st.integers(0, 60),
    )
    def test_merge_equals_concatenated_samples(self, samples, split):
        """The headline property: distributed merge is exact."""
        split = min(split, len(samples))
        left, right = LatencyHistogram(), LatencyHistogram()
        left.record_many(np.array(samples[:split]))
        right.record_many(np.array(samples[split:]))
        merged = LatencyHistogram().merge(left).merge(right)

        reference = LatencyHistogram()
        reference.record_many(np.array(samples))

        # Counts are integers: bit-for-bit equal, any regrouping.
        assert np.array_equal(merged.counts, reference.counts)
        # Quantiles resolve to bucket edges, so they are equal too.
        if samples:
            assert merged.quantiles() == reference.quantiles()
        # total_seconds is a float sum — approximate under reordering.
        assert merged.total_seconds == pytest.approx(reference.total_seconds)

    @settings(max_examples=25, deadline=None)
    @given(samples=st.lists(durations, min_size=1, max_size=40))
    def test_quantile_bounds_every_sample_distribution(self, samples):
        h = LatencyHistogram()
        h.record_many(np.array(samples))
        p100 = h.quantile(1.0)
        assert all(v <= p100 for v in samples)


class TestStageTrace:
    def test_add_and_merge(self):
        a, b = StageTrace(), StageTrace()
        a.add("hash", 0.5)
        b.add("hash", 0.25, calls=2)
        b.add("merge", 1.0)
        a.merge(b)
        assert a.seconds["hash"] == pytest.approx(0.75)
        assert a.calls["hash"] == 3
        assert a.total_seconds == pytest.approx(1.75)

    def test_as_dict_orders_known_stages_first(self):
        t = StageTrace()
        t.add("zcustom", 1.0)
        t.add("merge", 1.0)
        t.add("hash", 1.0)
        keys = list(t.as_dict())
        assert keys == ["hash", "merge", "zcustom"]
        assert all(s in STAGES for s in keys[:2])

    def test_stage_timer_records_wall_time(self):
        t = StageTrace()
        with stage_timer(t, "linear"):
            pass
        assert t.calls["linear"] == 1
        assert t.seconds["linear"] >= 0.0

    def test_stage_timer_none_is_shared_noop(self):
        # Disabled tracing must not allocate per call.
        assert stage_timer(None, "hash") is stage_timer(None, "linear") is _NULL_SPAN
        with stage_timer(None, "hash"):
            pass


class TestServiceStats:
    def test_record_batch_charges_each_query(self):
        stats = ServiceStats()
        stats.record_batch(8, 0.004, strategies={"lsh": 5, "linear": 3})
        assert stats.queries_served == 8
        assert stats.batches == 1
        assert stats.latency.count == 8
        assert stats.strategy_counts == {"lsh": 5, "linear": 3}

    def test_as_dict_round_trips_through_from_dict(self):
        stats = ServiceStats(pool_workers=3)
        trace = StageTrace()
        trace.add("hash", 0.01, calls=2)
        stats.record_batch(5, 0.002, strategies={"lsh": 5}, trace=trace)
        stats.bytes_shipped = 4096
        stats.gauges["overflow_points"] = 7.0

        doc = json.loads(json.dumps(stats.as_dict()))  # must be JSON-safe
        back = ServiceStats.from_dict(doc)
        assert back.queries_served == stats.queries_served
        assert back.pool_workers == 3
        assert back.bytes_shipped == 4096
        assert back.strategy_counts == stats.strategy_counts
        assert back.latency == stats.latency
        assert back.stage_seconds == stats.stage_seconds
        assert back.stage_calls == stats.stage_calls
        assert back.gauges == {"overflow_points": 7.0}
        # Round-tripping again is a fixed point.
        assert back.as_dict() == json.loads(json.dumps(doc))

    def test_as_dict_is_json_safe_and_keeps_flat_legacy_keys(self):
        stats = ServiceStats()
        stats.record_batch(2, 0.001, strategies={"lsh": 2})
        doc = stats.as_dict()
        json.dumps(doc)
        for key in ("queries_served", "batches", "qps", "pool_workers", "strategy_lsh"):
            assert key in doc

    def test_merge_sums_contributors(self):
        a, b = ServiceStats(pool_workers=4), ServiceStats(pool_workers=1)
        a.record_batch(3, 0.003)
        b.record_batch(2, 0.002)
        b.gauges["overflow_points"] = 2.0
        a.gauges["overflow_points"] = 1.0
        a.merge(b)
        assert a.queries_served == 5
        assert a.latency.count == 5
        assert a.pool_workers == 4  # aggregator's own width wins
        assert a.gauges["overflow_points"] == 3.0

    def test_reset_zeroes_traffic_but_keeps_structure(self):
        stats = ServiceStats(pool_workers=2)
        stats.gauge_hooks["live"] = lambda: 42.0
        stats.record_batch(4, 0.004, strategies={"linear": 4})
        stats.reset()
        assert stats.queries_served == 0
        assert stats.latency.count == 0
        assert stats.strategy_counts == {}
        assert stats.stage_seconds == {}
        assert stats.pool_workers == 2
        assert stats.read_gauges() == {"live": 42.0}

    def test_gauge_hooks_read_live_values(self):
        box = {"value": 1.0}
        stats = ServiceStats()
        stats.gauge_hooks["depth"] = lambda: box["value"]
        assert stats.as_dict()["gauges"] == {"depth": 1.0}
        box["value"] = 9.0
        assert stats.as_dict()["gauges"] == {"depth": 9.0}


class TestPrometheusText:
    @staticmethod
    def _sample_doc():
        stats = ServiceStats(pool_workers=2)
        trace = StageTrace()
        trace.add("hash", 0.02, calls=4)
        trace.add("linear", 0.10, calls=1)
        stats.record_batch(6, 0.012, strategies={"lsh": 4, "linear": 2}, trace=trace)
        stats.gauges["overflow_points"] = 3.0
        return stats.as_dict()

    def test_counters_and_gauges_rendered(self):
        text = prometheus_text(self._sample_doc())
        assert text.endswith("\n")
        assert "repro_queries_served_total 6" in text
        assert "repro_pool_workers 2" in text
        assert 'repro_strategy_queries_total{strategy="lsh"} 4' in text
        assert 'repro_stage_seconds_total{stage="hash"}' in text
        assert 'repro_stage_calls_total{stage="linear"} 1' in text
        assert "repro_overflow_points 3" in text

    def test_histogram_cdf_is_monotone_and_complete(self):
        text = prometheus_text(self._sample_doc())
        counts = []
        for line in text.splitlines():
            if line.startswith("repro_query_latency_seconds_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts, "no histogram buckets rendered"
        assert counts == sorted(counts)  # cumulative => monotone
        assert 'le="+Inf"' in text
        assert counts[-1] == 6  # +Inf bucket equals total count
        assert "repro_query_latency_seconds_count 6" in text
        assert "repro_query_latency_seconds_sum" in text

    def test_tolerates_minimal_and_unknown_keys(self):
        text = prometheus_text({"queries_served": 1, "mystery_key": 5})
        assert "repro_queries_served_total 1" in text
        assert "mystery" not in text

    def test_prefix_comment(self):
        text = prometheus_text({"queries_served": 0}, prefix_comment="serve snapshot")
        assert text.startswith("# serve snapshot\n")


@st.composite
def traced_workload(draw):
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(50, 140))
    dim = draw(st.integers(3, 8))
    num_queries = draw(st.integers(1, 6))
    num_shards = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(seed)
    tight = rng.normal(scale=0.2, size=(n // 2, dim))
    loose = rng.uniform(-4.0, 4.0, size=(n - n // 2, dim))
    points = np.concatenate([tight, loose])
    queries = points[rng.choice(n, size=num_queries, replace=False)]
    return points, queries, seed, num_shards


class TestTracingBitIdentity:
    @settings(max_examples=15, deadline=None)
    @given(workload=traced_workload())
    def test_tracing_never_changes_answers(self, workload):
        """The second headline property: tracing observes, never steers."""
        points, queries, seed, num_shards = workload
        index = Index.build(
            points,
            IndexSpec(
                metric="l2", radius=1.0, num_tables=4,
                num_shards=num_shards, cost_ratio=6.0, seed=seed,
            ),
        )
        try:
            plain = index.query(queries)
            index.enable_tracing(True)
            traced = index.query(queries)
            topk_traced = index.query(QuerySpec(queries, k=3))
            index.enable_tracing(False)
            topk_plain = index.query(QuerySpec(queries, k=3))
            for a, b in zip(plain, traced):
                assert np.array_equal(a.ids, b.ids)
                assert np.array_equal(a.distances, b.distances)
            for a, b in zip(topk_plain, topk_traced):
                assert np.array_equal(a.ids, b.ids)
                assert np.array_equal(a.distances, b.distances)
        finally:
            index.close()

    def test_traced_queries_populate_stage_attribution(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(300, 8))
        index = Index.build(
            points,
            IndexSpec(metric="l2", radius=1.2, num_tables=6,
                      num_shards=2, cost_ratio=6.0, seed=1),
        )
        try:
            index.enable_tracing(True)
            index.query(points[:10])
            stats = index.stats
            assert stats.stage_seconds, "tracing produced no stage attribution"
            assert set(stats.stage_seconds) <= set(STAGES)
            assert all(v >= 0.0 for v in stats.stage_seconds.values())
            assert "merge" in stats.stage_seconds  # sharded merge ran
        finally:
            index.close()

    def test_untraced_queries_record_no_stages(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(200, 6))
        index = Index.build(
            points,
            IndexSpec(metric="l2", radius=1.2, num_tables=4,
                      num_shards=1, cost_ratio=6.0, seed=2),
        )
        try:
            assert not index.tracing_enabled
            index.query(points[:5])
            assert index.stats.stage_seconds == {}
        finally:
            index.close()


class TestTracingWorkUnits:
    def test_span_count_is_per_stage_not_per_row(self):
        """Enabled tracing costs a fixed number of spans per batch.

        The count, not a wall-clock ratio, is the gate: one span per
        stage a batch runs, however many rows it carries.  The disabled
        path is the shared null span (one ``is None`` check).
        """
        from repro.datasets import mixed_workload

        points, queries, radius = mixed_workload(2000, seed=0)
        index = Index.build(
            points,
            IndexSpec(metric="l2", radius=radius, num_tables=50,
                      layout="frozen", cost_ratio=6.0, seed=0),
        )

        def spans(rows):
            index.reset_stats()
            outcomes = index.query(QuerySpec(rows, radius=radius))
            return dict(index.stats.stage_calls), outcomes

        try:
            _, outcomes = spans(queries)
            assert index.stats.stage_calls == {}  # tracing still off
            lsh_rows = queries[[o.strategy == "lsh" for o in outcomes]]
            index.enable_tracing(True)
            one, _ = spans(lsh_rows[:1])
            many, _ = spans(lsh_rows[:64])
            assert one == many == {"hash": 1, "estimate": 1, "candidates": 1}
            mixed, outcomes = spans(queries[:64])
            assert {o.strategy for o in outcomes} == {"lsh", "linear"}
            assert set(mixed) <= set(STAGES)
            assert set(mixed.values()) == {1}
        finally:
            index.close()
        assert stage_timer(None, "hash") is _NULL_SPAN


class TestStatsSnapshot:
    def test_snapshot_includes_gauges_and_latency(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(400, 8))
        index = Index.build(
            points,
            IndexSpec(metric="l2", radius=1.2, num_tables=6,
                      num_shards=2, layout="frozen", cost_ratio=6.0, seed=4),
        )
        try:
            index.query(points[:12])
            snapshot = index.stats_snapshot()
            json.dumps(snapshot)
            assert snapshot["queries_served"] == 12
            assert snapshot["latency"]["count"] == 12
            # Frozen backends register live overflow/refreeze gauges.
            gauges = snapshot["gauges"]
            assert gauges["overflow_points"] == 0.0
            assert gauges["refreeze_generations"] == 0.0
            # Insert enough to trigger overflow accounting.
            index.insert(rng.normal(size=(3, 8)))
            assert index.stats_snapshot()["gauges"]["overflow_points"] == 3.0
        finally:
            index.close()
