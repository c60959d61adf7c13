"""Tests for IndexSpec / QuerySpec: validation and JSON round-trips.

The Hypothesis property at the bottom is the load-bearing one: any
valid spec must survive ``IndexSpec.from_dict(spec.to_dict()) == spec``
bit for bit, because saved indexes, the CLI and the wire protocol all
move specs as JSON documents.
"""

import json

import numpy as np
import pytest

from repro.api import IndexSpec, QuerySpec
from repro.exceptions import ConfigurationError


class TestIndexSpecValidation:
    def test_defaults_resolve(self):
        spec = IndexSpec(metric="l2", radius=2.0)
        assert spec.num_tables == 50
        assert spec.delta == 0.1
        assert "estimator" not in spec.to_dict()  # candSize is the merged HLL
        assert spec.num_shards == 1
        assert spec.layout == "frozen"

    def test_metric_canonicalised(self):
        assert IndexSpec(metric="euclidean", radius=1.0).metric == "l2"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"radius": 0.0},
            {"radius": -2.0},
            {"num_tables": 0},
            {"delta": 0.0},
            {"delta": 1.5},
            {"k": -1},
            {"hash_family": "no-such-family"},
            {"num_shards": 0},
            {"cache_size": -1},
            {"cache_quantum": -1e-9},
            {"dedup": "bogus"},
            {"seed": "zero"},
            {"seed": 1.5},
            {"family_params": "w=2"},
            {"execution": "fibers"},
            # frozen is the only serving layout; the dict-layout
            # LSHIndex is what it is assembled from, not a spec option
            {"layout": "dict"},
            {"layout": "dict", "execution": "processes"},
            {"hll_precision": 0},
            {"lazy_threshold": -1},
            {"cost_ratio": 0.0},
            {"bucket_width": 0.0},
            {"variant": "bogus"},
            {"num_probes": -1},
            {"replicas": 2},  # threads run one endpoint per shard
            {"adaptive": "yes"},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        kwargs = {"metric": "l2", "radius": 1.0, **overrides}
        with pytest.raises((ConfigurationError, KeyError)):
            IndexSpec(**kwargs)

    def test_unknown_metric_rejected(self):
        with pytest.raises(KeyError):
            IndexSpec(metric="chebyshev", radius=1.0)

    def test_immutability(self):
        spec = IndexSpec(metric="l2", radius=1.0)
        with pytest.raises(AttributeError):
            spec.radius = 2.0

    def test_with_overrides_revalidates(self):
        spec = IndexSpec(metric="l2", radius=1.0)
        assert spec.with_overrides(num_shards=4).num_shards == 4
        with pytest.raises(ConfigurationError):
            spec.with_overrides(num_shards=0)


class TestIndexSpecRoundTrip:
    def test_json_round_trip(self):
        spec = IndexSpec(
            metric="cosine", radius=0.2, num_tables=12, delta=0.05,
            hll_precision=6, cost_ratio=10.0, num_shards=3,
            cache_size=128, seed=7,
        )
        doc = json.loads(json.dumps(spec.to_dict()))
        assert IndexSpec.from_dict(doc) == spec

    def test_execution_round_trips_and_defaults_to_threads(self):
        assert IndexSpec(metric="l2", radius=1.0).execution == "threads"
        spec = IndexSpec(
            metric="l2", radius=1.0, num_shards=4, execution="processes",
        )
        doc = json.loads(json.dumps(spec.to_dict()))
        assert IndexSpec.from_dict(doc) == spec
        assert IndexSpec.from_dict(doc).execution == "processes"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            IndexSpec.from_dict({"metric": "l2", "radius": 1.0, "tabels": 50})

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            IndexSpec.from_dict({"metric": "l2"})

    @pytest.mark.parametrize("value", ["hll", "hyperloglog", "HLL"])
    def test_retired_estimator_key_loads_its_written_values(self, value):
        """Specs saved while ``estimator`` was a field (always the merged
        HLL) still open, to the same spec."""
        spec = IndexSpec(metric="l2", radius=1.0, seed=3)
        assert IndexSpec.from_dict({**spec.to_dict(), "estimator": value}) == spec

    @pytest.mark.parametrize("value", ["kmv", "exact", None])
    def test_retired_estimator_key_refuses_other_values(self, value):
        doc = {"metric": "l2", "radius": 1.0, "estimator": value}
        with pytest.raises(ConfigurationError, match="estimator"):
            IndexSpec.from_dict(doc)

    def test_retired_plain_variant_is_refused_naming_migrate(self):
        """Specs saved while ``"plain"`` was a variant are refused: ``migrate``
        rewrites a saved index's ``index.json`` as multi-probe at zero
        probes (``tests/test_frozen.py::TestFormatV4Labels``)."""
        spec = IndexSpec(metric="l2", radius=1.0, seed=3)
        assert (spec.variant, spec.num_probes) == ("multiprobe", 0)
        legacy = {**spec.to_dict(), "variant": "plain", "num_probes": 2}
        with pytest.raises(ConfigurationError, match="repro.cli migrate"):
            IndexSpec.from_dict(legacy)

    def test_plain_variant_built_directly_names_zero_probes(self):
        with pytest.raises(ConfigurationError, match="num_probes=0"):
            IndexSpec(metric="l2", radius=1.0, variant="plain")

    def test_unsupported_version_rejected(self):
        doc = IndexSpec(metric="l2", radius=1.0).to_dict()
        doc["spec_version"] = 99
        with pytest.raises(ConfigurationError):
            IndexSpec.from_dict(doc)


class TestQuerySpec:
    def test_single_vector_normalised(self):
        spec = QuerySpec([1.0, 2.0, 3.0])
        assert spec.queries.shape == (1, 3)
        assert spec.single is True
        assert spec.mode == "radius"

    def test_matrix_stays_batch(self):
        spec = QuerySpec(np.zeros((4, 3)), radius=0.5)
        assert spec.queries.shape == (4, 3)
        assert spec.single is False

    def test_topk_mode(self):
        assert QuerySpec([0.0, 1.0], k=5).mode == "topk"

    def test_radius_and_k_exclusive(self):
        with pytest.raises(ConfigurationError):
            QuerySpec([0.0, 1.0], radius=1.0, k=5)

    @pytest.mark.parametrize("bad", [{"radius": -1.0}, {"k": 0}])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            QuerySpec([0.0, 1.0], **bad)

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ConfigurationError):
            QuerySpec(np.zeros((2, 2, 2)))

    def test_json_round_trip(self):
        spec = QuerySpec(np.arange(6.0).reshape(2, 3), radius=0.75)
        doc = json.loads(json.dumps(spec.to_dict()))
        assert QuerySpec.from_dict(doc) == spec

    def test_topk_round_trip(self):
        spec = QuerySpec([1.0, 2.0], k=4)
        assert QuerySpec.from_dict(spec.to_dict()) == spec


# ----------------------------------------------------------------------
# Property: to_dict/from_dict is the identity on valid specs
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis"
)
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def index_specs(draw):
    metric = draw(st.sampled_from(["l2", "l1", "cosine", "hamming", "jaccard"]))
    return IndexSpec(
        metric=metric,
        execution=draw(st.sampled_from(["threads", "processes"])),
        radius=draw(st.floats(1e-3, 1e3)),
        num_tables=draw(st.integers(1, 200)),
        delta=draw(st.floats(0.01, 0.99)),
        k=draw(st.one_of(st.none(), st.integers(1, 32))),
        hll_precision=draw(st.integers(4, 12)),
        hll_seed=draw(st.integers(0, 2**31)),
        lazy_threshold=draw(st.one_of(st.none(), st.integers(0, 512))),
        cost_ratio=draw(st.one_of(st.none(), st.floats(0.1, 100.0))),
        num_shards=draw(st.integers(1, 16)),
        cache_size=draw(st.integers(0, 4096)),
        cache_quantum=draw(st.floats(0.0, 1.0)),
        dedup=draw(st.sampled_from(["scalar", "vectorized"])),
        seed=draw(st.one_of(st.none(), st.integers(0, 2**31))),
        family_params=draw(
            st.one_of(
                st.none(),
                st.dictionaries(
                    st.sampled_from(["w", "p"]), st.floats(0.1, 10.0), max_size=2
                ),
            )
        ),
    )


@settings(max_examples=200, deadline=None)
@given(spec=index_specs())
def test_spec_dict_round_trip_is_identity(spec):
    assert IndexSpec.from_dict(spec.to_dict()) == spec


@settings(max_examples=100, deadline=None)
@given(spec=index_specs())
def test_spec_json_round_trip_is_identity(spec):
    assert IndexSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
