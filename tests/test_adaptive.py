"""Query-adaptive execution and the typed result envelope.

The contracts under test:

* :class:`~repro.api.QueryOutcome` / :class:`~repro.api.BatchOutcome`
  are the only shapes :meth:`repro.api.Index.query` returns, on every
  execution path; the envelope wraps the engine's own arrays (never a
  copy) and the stream's response line is its JSON rendering;
* a bounded probe budget (``target_candidates``) only ever *trims*:
  adaptive radius answers are a subset of the fixed-budget answers with
  ``probes_used`` never above the fixed fan-out — and with a
  non-binding budget the answers are bit-identical;
* adaptive top-k under the default ``quality_floor`` certifies only
  exact rows, so its answers are bit-identical to the exact top-k
  reference — across inserts/re-freezes and across the thread, process
  and TCP transports;
* the EWMA-recalibrated cost model never dispatches a strategy whose
  true cost exceeds 2x the oracle's choice on the calibration set;
* ``Index.reset_stats()`` propagates through a worker pool: transport
  counters, worker-side stats and recalibration counts all read zero in
  the next snapshot;
* the JSON-lines stream answers with the envelope body and consumes
  the adaptive request fields;
* dispatch is *bound-first*: ``largest_bucket <= candSize <=
  min(#collisions, n)`` holds exactly on every layout x variant, across
  inserts and a re-freeze; the verdict is Equation (1) at the estimate
  clamped to those bounds (a budgeted batch's ring-walk estimates
  included; only the budget may then force LSH), and the estimator — merged HLL or a
  registered one — runs on exactly the rows the bounds leave open;
* on those rows the merged HLL estimate keeps the paper's Table 1
  error bound for the configured ``m``, the same floats on both layouts.
"""

import json
import math
import warnings

import numpy as np
import pytest

from repro.api import (
    AdaptivePolicy,
    BatchOutcome,
    Index,
    IndexSpec,
    QueryOutcome,
    QuerySpec,
)
from repro.core.adaptive import CostModelTuner
from repro.core.cost_model import CostModel
from repro.core.hybrid import HybridSearcher
from repro.core.results import Strategy
from repro.exceptions import ConfigurationError
from repro.service.stream import serve_stream

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis"
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

DIM = 10


def _points(n, seed, dim=DIM):
    rng = np.random.default_rng(seed)
    tight = rng.normal(scale=0.3, size=(n // 2, dim))
    loose = rng.uniform(-3.0, 3.0, size=(n - n // 2, dim))
    return np.concatenate([tight, loose])


def _fig1_points(n, seed, dim=DIM):
    """The paper's Fig. 1 in miniature: one dense cluster (linear-bound
    queries), four mid clusters (collision-heavy LSH), a sparse rest."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(scale=0.15, size=(2 * n // 5, dim))
    mids = [
        centre + rng.normal(scale=0.45, size=(n // 10, dim))
        for centre in rng.uniform(-6.0, 6.0, size=(4, dim))
    ]
    rest = rng.uniform(-8.0, 8.0, size=(n - 2 * n // 5 - 4 * (n // 10), dim))
    return np.concatenate([dense, *mids, rest])


def _spec(**overrides):
    base = dict(
        metric="l2",
        radius=1.5,
        num_tables=8,
        layout="frozen",
        variant="multiprobe",
        num_probes=4,
        seed=3,
    )
    base.update(overrides)
    return IndexSpec(**base)


def _assert_id_subset(a_ids, a_dists, b_ids, b_dists):
    """ids nest exactly; distances agree within float tolerance.

    A budget flip from the scan to the LSH kernel changes the BLAS
    reduction order, so a shared id's distance may differ in the final
    ulps between the two strategies — the subset contract is on ids.
    The absolute tolerance covers a query's distance to itself: both
    kernels compute it by cancellation, landing anywhere in ~1e-8.
    """
    ref = dict(zip(list(b_ids), list(b_dists)))
    for i, d in zip(list(a_ids), list(a_dists)):
        assert i in ref
        assert np.isclose(d, ref[i], rtol=1e-9, atol=1e-6)


class TestAdaptivePolicy:
    def test_validation_rejects_bad_knobs(self):
        for bad in (
            dict(target_candidates=0),
            dict(target_candidates=True),
            dict(quality_floor=1.5),
            dict(min_probes=-2),
            dict(ewma_weight=0.0),
        ):
            with pytest.raises(ConfigurationError):
                AdaptivePolicy(**bad)

    def test_dict_round_trip(self):
        policy = AdaptivePolicy(
            target_candidates=64, quality_floor=0.9, recalibrate=True
        )
        doc = json.loads(json.dumps(policy.to_dict()))
        assert AdaptivePolicy.from_dict(doc) == policy
        with pytest.raises(ConfigurationError):
            AdaptivePolicy.from_dict({"no_such_knob": 1})

    def test_retired_keys_load_only_at_their_old_value(self):
        """Documents written while these were fields carry all three."""
        old = {"k_safety": 2.0, "radius_growth": 2.0, "max_escalations": 3}
        policy = AdaptivePolicy.from_dict({"target_candidates": 8, **old})
        assert policy == AdaptivePolicy(target_candidates=8)
        assert not set(old) & set(policy.to_dict())
        for key, value in (
            ("k_safety", 3.0), ("radius_growth", 1.5), ("max_escalations", 0),
        ):
            with pytest.raises(ConfigurationError, match=key):
                AdaptivePolicy.from_dict({**old, key: value})

    def test_resolve_folds_request_overrides(self):
        base = AdaptivePolicy(target_candidates=64)
        assert base.resolve() is base
        resolved = base.resolve(adaptive=False, target_candidates=8)
        assert resolved.enabled is False and resolved.target_candidates == 8
        assert base.resolve(quality_floor=0.8).quality_floor == 0.8

    def test_bounds_probes(self):
        assert not AdaptivePolicy().bounds_probes
        assert AdaptivePolicy(target_candidates=4).bounds_probes
        assert not AdaptivePolicy(
            enabled=False, target_candidates=4
        ).bounds_probes

    def test_index_spec_round_trips_the_policy(self):
        spec = _spec(adaptive={"target_candidates": 32})
        doc = json.loads(json.dumps(spec.to_dict()))
        reread = IndexSpec.from_dict(doc)
        assert reread == spec
        assert isinstance(reread.adaptive, AdaptivePolicy)

    def test_query_spec_round_trips_the_overrides(self):
        q = QuerySpec(
            np.zeros(DIM), adaptive=True, target_candidates=16,
            quality_floor=0.8,
        )
        doc = json.loads(json.dumps(q.to_dict()))
        assert QuerySpec.from_dict(doc) == q


class TestEnvelope:
    @pytest.fixture(scope="class")
    def index(self):
        return Index.build(_points(500, seed=0), _spec())

    def test_single_query_returns_outcome(self, index):
        out = index.query(QuerySpec(_points(500, seed=0)[7]))
        assert isinstance(out, QueryOutcome)
        assert out.output_size == len(out.ids) == len(out.distances)
        assert out.strategy in ("lsh", "linear")
        assert out.stats.strategy.value == out.strategy

    def test_batch_is_a_sequence(self, index):
        queries = _points(500, seed=0)[:6]
        batch = index.query(QuerySpec(queries))
        assert isinstance(batch, BatchOutcome)
        assert len(batch) == 6
        assert isinstance(batch[0], QueryOutcome)
        assert isinstance(batch[1:3], BatchOutcome) and len(batch[1:3]) == 2
        assert [o.output_size for o in batch] == [
            batch[i].output_size for i in range(6)
        ]
        assert sum(batch.strategy_counts.values()) == 6
        assert batch.degraded_count == 0

    def test_topk_outcome_is_exact(self, index):
        out = index.query(QuerySpec(_points(500, seed=0)[7], k=5))
        assert out.exact and out.output_size == 5
        assert out.radius == float(out.distances[-1])

    def test_as_dict_is_json_safe(self, index):
        out = index.query(QuerySpec(_points(500, seed=0)[7], k=5))
        doc = json.loads(json.dumps(out.as_dict()))
        assert doc["exact"] is True
        assert doc["strategy"] == out.strategy
        assert doc["ids"] == [int(i) for i in out.ids]
        if out.estimated_candidates != out.estimated_candidates:
            assert doc["estimated_candidates"] is None

    def test_recall_against(self, index):
        out = index.query(QuerySpec(_points(500, seed=0)[7], k=5))
        assert out.recall_against(out.ids) == 1.0
        assert out.recall_against(np.array([], dtype=np.int64)) == 1.0


@st.composite
def adaptive_case(draw):
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(80, 300))
    num_queries = draw(st.integers(1, 6))
    target = draw(st.integers(1, 40))
    points = _points(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    queries = points[rng.choice(n, size=num_queries, replace=False)]
    return points, queries, target, seed


@st.composite
def envelope_case(draw):
    """An index of any layout x variant x shard count, plus a batch."""
    points, queries, _, seed = draw(adaptive_case())
    overrides = dict(
        layout=draw(st.sampled_from(["dict", "frozen"])),
        variant=draw(st.sampled_from(["plain", "multiprobe", "covering"])),
        num_shards=draw(st.sampled_from([1, 3])),
        seed=seed % 97,
    )
    if overrides["variant"] == "covering":  # a Hamming-space construction
        overrides.update(metric="hamming", radius=2.0)
        points, queries = (points > 0).astype(float), (queries > 0).astype(float)
    return points, queries, overrides


def _dispatch_case(seed, n, layout, variant, ratio, num_inserts):
    points = _fig1_points(n, seed)
    rng = np.random.default_rng(seed + 1)
    queries = points[rng.choice(n, size=12, replace=False)]
    inserts = _fig1_points(n, seed + 2)[rng.choice(n, size=num_inserts, replace=False)]
    overrides = dict(layout=layout, variant=variant, cost_ratio=ratio, seed=seed % 97)
    if variant == "covering":  # a Hamming-space construction
        overrides.update(metric="hamming", radius=2.0)
        points, queries, inserts = (
            (a > 0).astype(float) for a in (points, queries, inserts)
        )
    return points, queries, inserts, overrides


@st.composite
def dispatch_case(draw):
    """A Fig. 1 landscape on any layout x variant, a cost ratio that
    moves Equation (1)'s crossover through it, and points to insert."""
    return _dispatch_case(
        seed=draw(st.integers(0, 2**16)),
        n=draw(st.integers(150, 400)),
        layout=draw(st.sampled_from(["dict", "frozen"])),
        variant=draw(st.sampled_from(["plain", "multiprobe", "covering"])),
        ratio=draw(st.sampled_from([0.5, 1.0, 2.0, 6.0])),
        num_inserts=draw(st.integers(1, 40)),
    )


class TestOneEnvelope:
    @given(envelope_case())
    @settings(max_examples=20, deadline=None)
    def test_outcome_is_the_engine_answer_and_the_stream_line(self, case):
        points, queries, overrides = case
        index = Index.build(points, _spec(**overrides))
        try:
            batch = index.query(QuerySpec(queries))
            rows = index.engine.query_batch(queries, index.spec.radius)
            assert len(batch) == len(rows) == len(queries)
            for outcome, row in zip(batch, rows):
                assert np.array_equal(outcome.ids, row.ids)
                assert np.array_equal(outcome.distances, row.distances)
                assert outcome.strategy == outcome.stats.strategy.value
                wrapped = QueryOutcome.from_result(row)
                assert wrapped.ids is row.ids  # the envelope never copies
                assert wrapped.distances is row.distances
            (reply,) = serve_stream(
                index, [json.dumps({"query": queries[0].tolist()})]
            )
            outcome = index.query(QuerySpec(queries[0]))
            body = {"v": 2, "found": outcome.output_size, **outcome.as_dict()}
            assert json.loads(reply) == json.loads(json.dumps(body))
        finally:
            index.close()


class TestAdaptiveRadiusProperties:
    @given(adaptive_case())
    @settings(max_examples=12, deadline=None)
    def test_bounded_budget_only_trims(self, case):
        points, queries, target, seed = case
        fixed = Index.build(points, _spec(seed=seed % 97)).query(
            QuerySpec(queries)
        )
        adaptive = Index.build(
            points, _spec(seed=seed % 97, adaptive={"target_candidates": target})
        ).query(QuerySpec(queries))
        for a, b in zip(adaptive, fixed):
            _assert_id_subset(a.ids, a.distances, b.ids, b.distances)
            if a.probes_used >= 0 and b.probes_used >= 0:
                assert a.probes_used <= b.probes_used

    @given(adaptive_case())
    @settings(max_examples=10, deadline=None)
    def test_non_binding_budget_is_bit_identical(self, case):
        points, queries, _, seed = case
        fixed = Index.build(points, _spec(seed=seed % 97)).query(
            QuerySpec(queries)
        )
        adaptive = Index.build(
            points,
            _spec(seed=seed % 97, adaptive={"target_candidates": 10 * len(points)}),
        ).query(QuerySpec(queries))
        for a, b in zip(adaptive, fixed):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)
            assert a.strategy == b.strategy

    def test_request_overrides_win_over_the_spec(self):
        points = _points(400, seed=5)
        index = Index.build(points, _spec(adaptive={"target_candidates": 2}))
        fixed = Index.build(points, _spec())
        queries = points[:20]
        trimmed = index.query(QuerySpec(queries))
        disabled = index.query(QuerySpec(queries, adaptive=False))
        reference = fixed.query(QuerySpec(queries))
        for a, b in zip(disabled, reference):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)
        assert sum(o.probes_used for o in trimmed) <= sum(
            o.probes_used for o in reference
        )

    def test_adaptive_probe_telemetry(self):
        points = _points(300, seed=6)
        index = Index.build(points, _spec(adaptive={"target_candidates": 4}))
        index.query(QuerySpec(points[:15]))
        snap = index.stats_snapshot()
        assert snap["adaptive_probes"] == 15


def _occupancy(raw, queries):
    """``(#collisions, largest bucket)`` per query, bounds checked on the way."""
    out = []
    for query, lookup in zip(queries, raw.lookup_batch(queries)):
        solo = raw.lookup(query)  # a batch of one == its row of the batch
        pair = (lookup.num_collisions, lookup.largest_bucket)
        assert pair == (solo.num_collisions, solo.largest_bucket)
        cand_size = raw.candidate_ids(lookup).size
        assert lookup.largest_bucket <= cand_size <= min(lookup.num_collisions, raw.n)
        out.append(pair)
    return out


def _open_rows(searcher, lookups):
    """Indices of the lookups whose Equation (1) the exact bounds leave open."""
    n = searcher.index.n
    rows = []
    for i, lookup in enumerate(lookups):
        certain, possible = searcher.cost_model.lsh_bounds(
            lookup.num_collisions,
            lookup.largest_bucket,
            min(lookup.num_collisions, n),
            n,
        )
        if possible and not certain:
            rows.append(i)
    return rows


class TestBoundFirstDispatch:
    @given(dispatch_case())
    @example(_dispatch_case(3, 300, "frozen", "multiprobe", 1.0, 40))
    @example(_dispatch_case(7, 200, "dict", "covering", 2.0, 5))
    @settings(max_examples=15, deadline=None)
    def test_exact_bounds_hold_across_inserts_and_refreeze(self, case):
        points, queries, inserts, overrides = case
        twin_layout = "dict" if overrides["layout"] == "frozen" else "frozen"
        index = Index.build(points, _spec(**overrides))
        twin = Index.build(points, _spec(**{**overrides, "layout": twin_layout}))
        raw, raw_twin = index.engine.index, twin.engine.index
        assert _occupancy(raw, queries) == _occupancy(raw_twin, queries)
        index.insert(inserts)
        twin.insert(inserts)
        queries = np.concatenate([queries, inserts[:3]])
        # A frozen slot's overflow parts count with it as one bucket, so
        # the bounds are the dict layout's, overflow generation or not...
        grown = _occupancy(raw, queries)
        assert grown == _occupancy(raw_twin, queries)
        for layout_raw in (raw, raw_twin):
            if layout_raw.layout == "frozen":  # ...and a re-freeze moves nothing
                layout_raw.refreeze()
                assert _occupancy(layout_raw, queries) == grown

    @given(dispatch_case())
    @example(_dispatch_case(3, 400, "dict", "plain", 1.0, 1))
    @example(_dispatch_case(3, 400, "frozen", "multiprobe", 2.0, 1))
    @settings(max_examples=15, deadline=None)
    def test_verdict_is_equation_1_at_the_clamped_estimate(self, case):
        points, queries, _, overrides = case
        index = Index.build(points, _spec(**overrides))
        searcher = index.engine.searcher
        raw, model, radius = searcher.index, searcher.cost_model, index.spec.radius
        lookups = raw.lookup_batch(queries)
        estimates = raw.merged_estimates_batch(lookups).tolist()
        open_rows = _open_rows(searcher, lookups)
        rows = searcher.query_batch(queries, radius)
        for i, (query, lookup, estimate) in enumerate(zip(queries, lookups, estimates)):
            collisions = lookup.num_collisions
            lower, upper = lookup.largest_bucket, min(collisions, raw.n)
            clamped = min(max(estimate, lower), upper)
            verdict = model.choose(collisions, clamped, raw.n)
            stats = rows[i].stats
            assert stats.strategy is verdict
            assert searcher.decide(query) is verdict
            assert searcher.query(query, radius).stats == stats
            # The pre-bounds rule (Equation (1) at the raw estimate) can
            # only disagree where the estimator was provably wrong.
            if model.choose(collisions, estimate, raw.n) is not verdict:
                assert not lower <= estimate <= upper
            # Reported stats: finite, self-consistent, and saying which
            # value the verdict was taken at.
            assert math.isfinite(stats.estimated_candidates)
            assert stats.estimated_lsh_cost == model.lsh_cost(
                collisions, stats.estimated_candidates
            )
            assert (stats.strategy is Strategy.LSH) == (
                stats.estimated_lsh_cost < stats.linear_cost
            )
            if i in open_rows:
                assert stats.estimated_candidates == clamped
            elif verdict is Strategy.LSH:
                assert stats.estimated_candidates == stats.exact_candidates
            else:
                assert stats.estimated_candidates == lower


def _budgeted_verdicts(points, queries, target, seed, ratio):
    """Check every row of a budgeted batch against Equation (1) at the
    ring-walk estimate clamped to the trimmed lookup's exact bounds;
    returns how many estimates lay outside them, how many verdicts the
    clamp changed, and how many rows the budget forced onto LSH."""
    index = Index.build(points, _spec(seed=seed % 97, cost_ratio=ratio))
    searcher = index.engine.searcher
    raw, model = searcher.index, searcher.cost_model
    policy = AdaptivePolicy(target_candidates=target)
    lookups, _, ring = raw.lookup_batch_adaptive(
        queries, target, min_probes=policy.min_probes
    )
    rows = searcher.query_batch(queries, index.spec.radius, adaptive=policy)
    outside = flipped = forced = 0
    for lookup, estimate, row in zip(lookups, ring.tolist(), rows):
        collisions = lookup.num_collisions
        lower, upper = lookup.largest_bucket, min(collisions, raw.n)
        clamped = min(max(estimate, lower), upper)
        verdict = model.choose(collisions, clamped, raw.n)
        assert row.stats.estimated_candidates == clamped
        # Only the budget overrides Equation (1), only towards LSH, and
        # on the raw estimate: it certifies what the ring walk collected.
        assert (row.stats.strategy is Strategy.LSH) == (
            verdict is Strategy.LSH or estimate >= target
        )
        outside += not lower <= estimate <= upper
        flipped += model.choose(collisions, estimate, raw.n) is not verdict
        forced += row.stats.strategy is not verdict
    assert flipped <= outside  # the clamp matters only where the HLL was wrong
    return outside, flipped, forced


class TestBudgetedVerdicts:
    """The adaptive path's decision rule since bound-first dispatch:
    its free ring-walk estimates are clamped like any other, so a
    non-binding budget still dispatches exactly as the fixed path."""

    @given(adaptive_case(), st.sampled_from([0.5, 2.0, 6.0]))
    @settings(max_examples=12, deadline=None)
    def test_verdict_is_equation_1_at_the_clamped_ring_estimate(self, case, ratio):
        _budgeted_verdicts(*case, ratio)

    def test_clamp_and_budget_both_bind_on_a_fig1_landscape(self):
        points = _fig1_points(300, seed=19)
        queries = points[np.random.default_rng(20).choice(300, size=12, replace=False)]
        outside, flipped, forced = _budgeted_verdicts(points, queries, 40, 19, 2.0)
        assert outside >= flipped >= 1 and forced >= 1


class TestEstimatorWorkUnits:
    """The gain of bound-first dispatch as a deterministic count: how
    many rows reach the estimator (ROADMAP item 7's work-unit check), so
    it cannot regress silently between benchmark runs."""

    @staticmethod
    def _spy(monkeypatch, raw):
        merged = []
        batch, single = raw.merged_estimates_batch, raw.merged_sketch

        def spy_batch(lookups):
            merged.extend(lookups)
            return batch(lookups)

        def spy_single(lookup):
            merged.append(lookup)
            return single(lookup)

        monkeypatch.setattr(raw, "merged_estimates_batch", spy_batch)
        monkeypatch.setattr(raw, "merged_sketch", spy_single)
        return merged

    @pytest.mark.parametrize("layout", ["dict", "frozen"])
    def test_many_small_clusters_merge_nothing(self, monkeypatch, layout):
        rng = np.random.default_rng(5)
        centres = rng.uniform(-8.0, 8.0, size=(60, 1, DIM))
        points = (centres + rng.normal(scale=0.2, size=(60, 20, DIM))).reshape(-1, DIM)
        index = Index.build(points, _spec(layout=layout, variant="plain"))
        searcher = index.engine.searcher
        merged = self._spy(monkeypatch, searcher.index)
        queries = points[::7]
        batch = index.query(QuerySpec(queries))
        for query in queries:
            searcher.query(query, index.spec.radius)
            searcher.decide(query)
        assert merged == []
        assert {outcome.strategy for outcome in batch} == {"lsh"}
        # Undisturbed by the shortcut: the stats stay finite and exact.
        assert all(o.estimated_candidates == o.candidates_examined for o in batch)

    @pytest.mark.parametrize(
        "overrides",
        [dict(layout="dict", variant="plain"), dict(layout="frozen", variant="multiprobe")],
        ids=["dict-plain", "frozen-multiprobe"],
    )
    def test_fig1_landscape_merges_exactly_the_open_rows(self, monkeypatch, overrides):
        points = _fig1_points(800, seed=3)
        index = Index.build(points, _spec(cost_ratio=1.0, **overrides))
        searcher = index.engine.searcher
        queries = points[::8]
        lookups = searcher.index.lookup_batch(queries)
        open_rows = _open_rows(searcher, lookups)
        strategies = [o.strategy for o in index.query(QuerySpec(queries))]
        # All three verdicts occur, so "exactly the open rows" is not vacuous.
        decided = [s for i, s in enumerate(strategies) if i not in open_rows]
        assert 0 < len(open_rows) < len(queries)
        assert {"lsh", "linear"} == set(decided)

        merged = self._spy(monkeypatch, searcher.index)
        index.query(QuerySpec(queries))
        assert len(merged) == len(open_rows)
        del merged[:]
        for query in queries:
            searcher.query(query, index.spec.radius)
        assert len(merged) == len(open_rows)

        del merged[:]
        called = []

        def pessimist(idx, lookup):
            called.append(lookup)
            return float(idx.n)

        custom = HybridSearcher(searcher.index, searcher.cost_model, estimator=pessimist)
        custom.query_batch(queries, index.spec.radius)
        # Consulted once per open row, on open rows only; no HLL merge.
        assert len(called) == len(open_rows)
        assert _open_rows(searcher, called) == list(range(len(called)))
        assert merged == []


class TestEstimatorFidelity:
    """The estimator half of the paper's Table 1 as a tier-1 check: the
    HLL standard error is ``1.04 / sqrt(m)``, and the merged bucket
    sketches must deliver it on the rows where Equation (1) reads them."""

    def test_merged_hll_error_within_the_table_1_bound(self):
        precision = 7  # m = 128 registers, the serving default
        points = _fig1_points(2000, seed=3)
        queries = points[::4]
        per_layout = {}
        for layout in ("dict", "frozen"):
            index = Index.build(
                points,
                _spec(layout=layout, variant="plain", cost_ratio=1.0,
                      hll_precision=precision),
            )
            searcher = index.engine.searcher
            raw = searcher.index
            lookups = raw.lookup_batch(queries)
            undecided = [lookups[i] for i in _open_rows(searcher, lookups)]
            per_layout[layout] = (
                raw.merged_estimates_batch(undecided),
                np.array([raw.candidate_ids(lookup).size for lookup in undecided]),
            )
        estimates, exact = per_layout["frozen"]
        assert np.array_equal(per_layout["dict"][0], estimates)  # same floats
        assert np.array_equal(per_layout["dict"][1], exact)
        assert exact.size >= 20  # enough open rows for a median to mean something
        relative_error = np.abs(estimates - exact) / exact
        assert np.median(relative_error) <= 2 * 1.04 / math.sqrt(1 << precision)


@st.composite
def topk_case(draw):
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(60, 250))
    k = draw(st.integers(1, 10))
    insert = draw(st.integers(0, 40))
    points = _points(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    queries = points[rng.choice(n, size=3, replace=False)]
    extra = _points(max(insert, 2), seed=seed + 2)[:insert]
    return points, queries, k, extra, seed


class TestAdaptiveTopKProperties:
    @given(topk_case())
    @settings(max_examples=10, deadline=None)
    def test_adaptive_topk_equals_exact_reference(self, case):
        points, queries, k, extra, seed = case
        spec_kwargs = dict(seed=seed % 97)
        adaptive = Index.build(
            points, _spec(adaptive={"target_candidates": 64}, **spec_kwargs)
        )
        fixed = Index.build(points, _spec(**spec_kwargs))
        for round_ in range(2):
            for q in queries:
                a = adaptive.query(QuerySpec(q, k=k))
                b = fixed.query(QuerySpec(q, k=k))
                assert np.array_equal(a.ids, b.ids)
                assert np.array_equal(a.distances, b.distances)
                assert a.radius == b.radius
                assert a.exact and b.exact
            if round_ == 0 and len(extra):
                # Inserts (and any overflow re-freeze they trigger) must
                # not break the certification rule.
                adaptive.insert(extra)
                fixed.insert(extra)

    def test_adaptive_topk_records_radius_estimates(self):
        points = _points(300, seed=9)
        index = Index.build(
            points, _spec(adaptive={"target_candidates": 64})
        )
        for q in points[:4]:
            index.query(QuerySpec(q, k=3))
        assert index.stats_snapshot()["radius_estimates"] == 4

    def test_k_beyond_n_still_raises(self):
        points = _points(80, seed=10)
        index = Index.build(points, _spec(adaptive={"target_candidates": 8}))
        with pytest.raises(ConfigurationError):
            index.query(QuerySpec(points[0], k=len(points) + 1))


class TestAdaptiveAcrossTransports:
    def test_threads_equal_processes(self, tmp_path):
        points = _points(600, seed=11)
        queries = points[:30]
        base = dict(num_shards=2, adaptive={"target_candidates": 6})
        threads = Index.build(points, _spec(execution="threads", **base))
        processes = Index.build(
            points, _spec(execution="processes", **base), num_workers=2
        )
        try:
            ra = threads.query(QuerySpec(queries))
            rb = processes.query(QuerySpec(queries))
            for a, b in zip(ra, rb):
                assert np.array_equal(a.ids, b.ids)
                assert np.array_equal(a.distances, b.distances)
                assert a.probes_used == b.probes_used
                assert a.exact == b.exact
            ta = threads.query(QuerySpec(queries[0], k=5))
            tb = processes.query(QuerySpec(queries[0], k=5))
            assert np.array_equal(ta.ids, tb.ids)
            assert np.array_equal(ta.distances, tb.distances)
        finally:
            processes.close()

    def test_tcp_equals_pipes(self, tmp_path):
        from repro.service.shard_server import ShardServer

        points = _points(500, seed=12)
        queries = points[:20]
        spec = _spec(
            execution="processes", num_shards=2,
            adaptive={"target_candidates": 6},
        )
        artifact = str(tmp_path / "adaptive-artifact")
        built = Index.build(points, spec, num_workers=2)
        try:
            built.save(artifact)
            expected = built.query(QuerySpec(queries))
        finally:
            built.close()
        servers = [
            ShardServer(artifact, shard_ids=[s]).start() for s in range(2)
        ]
        try:
            remote = Index.open(
                artifact,
                endpoints=[f"127.0.0.1:{server.port}" for server in servers],
            )
            try:
                actual = remote.query(QuerySpec(queries))
                for a, b in zip(actual, expected):
                    assert np.array_equal(a.ids, b.ids)
                    assert np.array_equal(a.distances, b.distances)
                    assert a.probes_used == b.probes_used
            finally:
                remote.close()
        finally:
            for server in servers:
                server.close()


class TestCostModelTuner:
    @given(
        st.floats(0.5, 4.0),
        st.floats(0.5, 4.0),
        st.integers(0, 2**12),
    )
    @settings(max_examples=20, deadline=None)
    def test_recalibrated_choice_within_2x_of_oracle(
        self, true_alpha, true_beta, seed
    ):
        """Feed exact per-stage rates; the tuned model's dispatch choice
        never costs more than 2x the oracle's on the calibration set."""
        oracle = CostModel(alpha=true_alpha, beta=true_beta)
        tuner = CostModelTuner(CostModel(alpha=1.0, beta=1.0), ewma_weight=0.5)
        rng = np.random.default_rng(seed)
        for _ in range(30):
            linear_ops = int(rng.integers(100, 2000))
            cand_ops = int(rng.integers(10, 500))
            tuner.observe_batch(
                linear_ops, true_beta * linear_ops,
                cand_ops, true_alpha * cand_ops,
            )
        assert tuner.recalibrations == 60
        tuned = tuner.model
        for _ in range(50):
            n = int(rng.integers(100, 5000))
            collisions = int(rng.integers(0, 4 * n))
            cand = float(rng.uniform(0, n))
            chosen = tuned.choose(collisions, cand, n)
            best = min(
                oracle.lsh_cost(collisions, cand), oracle.linear_cost(n)
            )
            measured = (
                oracle.lsh_cost(collisions, cand)
                if chosen.value == "lsh"
                else oracle.linear_cost(n)
            )
            assert measured <= 2.0 * best + 1e-9

    def test_ignores_empty_and_foreign_stages(self):
        tuner = CostModelTuner(CostModel(alpha=1.0, beta=1.0))
        tuner.observe("linear", 0, 1.0)
        tuner.observe("hash", 100, 1.0)
        tuner.observe("linear", 100, 0.0)
        assert tuner.recalibrations == 0
        assert tuner.model.alpha == 1.0 and tuner.model.beta == 1.0

    def test_recalibrate_policy_surfaces_counter(self):
        points = _points(400, seed=13)
        index = Index.build(
            points, _spec(adaptive={"recalibrate": True})
        )
        index.query(QuerySpec(points[:20]))
        assert index.stats_snapshot()["recalibrations"] >= 1


class TestResetStatsRegression:
    def test_worker_pool_reset_zeroes_everything(self):
        points = _points(600, seed=14)
        index = Index.build(
            points,
            _spec(
                execution="processes", num_shards=2,
                adaptive={"target_candidates": 6, "recalibrate": True},
            ),
            num_workers=2,
        )
        try:
            index.query(QuerySpec(points[:25]))
            before = index.stats_snapshot()
            assert before["queries_served"] == 25
            assert before["bytes_shipped"] > 0
            assert before["adaptive_probes"] == 25
            index.reset_stats()
            after = index.stats_snapshot()
            # The regression: transport counters were re-synced from
            # pool-lifetime values and worker-local stats survived.
            for key in (
                "queries_served", "batches", "bytes_shipped",
                "worker_respawns", "worker_timeouts", "worker_retries",
                "adaptive_probes", "radius_estimates", "recalibrations",
            ):
                assert after.get(key, 0) == 0, (key, after.get(key))
            assert after.get("respawns_by_cause", {}) == {}
            index.query(QuerySpec(points[:5]))
            again = index.stats_snapshot()
            assert again["queries_served"] == 5
            assert again["bytes_shipped"] > 0
        finally:
            index.close()


class TestStreamProtocolV2:
    @pytest.fixture(scope="class")
    def served(self):
        points = _points(400, seed=15)
        return Index.build(
            points, _spec(adaptive={"target_candidates": 64})
        ), points

    def test_v2_body_carries_the_envelope(self, served):
        index, points = served
        lines = [
            json.dumps({"query": points[0].tolist()}),
            json.dumps({"query": points[1].tolist(), "k": 4}),
        ]
        radius_doc, topk_doc = (
            json.loads(r) for r in serve_stream(index, lines)
        )
        for doc in (radius_doc, topk_doc):
            assert doc["v"] == 2
            assert doc["found"] == len(doc["ids"]) == len(doc["distances"])
            for key in (
                "radius", "strategy", "probes_used", "candidates_examined",
                "estimated_candidates", "exact", "degraded", "missing_shards",
            ):
                assert key in doc
        assert topk_doc["exact"] is True and topk_doc["found"] == 4

    def test_adaptive_request_fields_are_consumed(self, served):
        index, points = served
        lines = [
            json.dumps({"query": points[0].tolist(), "adaptive": True,
                        "target_candidates": 1}),
            json.dumps({"query": points[0].tolist(), "adaptive": False}),
        ]
        trimmed, full = (json.loads(r) for r in serve_stream(index, lines))
        _assert_id_subset(
            trimmed["ids"], trimmed["distances"], full["ids"], full["distances"]
        )
        assert trimmed["probes_used"] <= full["probes_used"]

    def test_bad_adaptive_fields_are_per_line_errors(self, served):
        index, points = served
        lines = [
            json.dumps({"query": points[0].tolist(), "target_candidates": 0}),
            json.dumps({"query": points[0].tolist(), "quality_floor": 2.0}),
            # ragged and non-numeric rows get the bad-shape line, not
            # numpy's conversion error text
            json.dumps({"query": [points[0].tolist(), [1.0, 2.0, 3.0]]}),
            json.dumps({"query": ["a"] * index.dim}),
            json.dumps({"query": points[0].tolist()}),
        ]
        out = [json.loads(r) for r in serve_stream(index, lines)]
        assert "target_candidates" in out[0]["error"]
        assert "quality_floor" in out[1]["error"]
        bad_shape = f"query must be a flat list of {index.dim} numbers"
        assert out[2]["error"] == out[3]["error"] == bad_shape
        assert out[4]["found"] >= 1

    def test_stream_never_touches_deprecated_shapes(self, served):
        index, points = served
        lines = [
            json.dumps({"query": points[0].tolist()}),
            json.dumps({"query": points[1].tolist(), "k": 3}),
            json.dumps({"op": "stats"}),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            out = [json.loads(r) for r in serve_stream(index, lines)]
        assert out[-1]["queries_served"] >= 2
