"""Declarative index and query specifications.

:class:`IndexSpec` is the single vocabulary for constructing a hybrid
index — metric, hash family, table count and width, sketch
configuration, cost model, shard count, cache policy — as one
immutable, validated value with a JSON round-trip
(:meth:`IndexSpec.to_dict` / :meth:`IndexSpec.from_dict`).
:meth:`repro.api.Index.build` / :meth:`repro.api.Index.open` are the
only builders, so every frontend (the CLI, the JSON-lines protocol,
saved-index files, the paper experiments in :mod:`repro.evaluation`)
speaks this document; the engines underneath take built indexes.

:class:`QuerySpec` is the request-side counterpart: one value that
expresses a radius query, an exact top-k query, or a whole batch of
either, so ``Index.query`` needs exactly one signature.

JSON schema (all keys optional unless noted)::

    {
      "metric":        "l2" | "l1" | "cosine" | "hamming" | "jaccard",  # required
      "radius":        2.0,            # required; tuned/default query radius
      "num_tables":    50,             # L
      "delta":         0.1,            # failure probability of the (1-delta) guarantee
      "k":             null,           # concatenation width; null = paper rule
      "hash_family":   null,           # registered family name; null = metric default
      "bucket_width":  null,           # w for p-stable families; null = paper preset
      "family_params": null,           # extra kwargs for a custom family factory
      "hll_precision": 7,              # m = 2**p sketch registers
      "hll_seed":      0,
      "lazy_threshold": null,          # small-bucket trick cutoff; null = m
      "cost_ratio":    6.0,            # beta/alpha; null = calibrate by timing
      "num_shards":    1,              # K > 1 builds a sharded index
      "cache_size":    0,              # LRU result-cache capacity; 0 = off
      "cache_quantum": 1e-9,           # cache key quantisation step
      "dedup":         "vectorized",   # serving-side Step-S2 dedup
      "layout":        "frozen",       # bucket storage: the CSR arrays, the
                                       # only serving layout (a dict-layout
                                       # LSHIndex is its bit-identity
                                       # reference)
      "variant":       "multiprobe",   # index variant: "multiprobe" | "covering"
                                       # (hamming only, integer radius)
      "num_probes":    0,              # extra probed buckets per table
                                       # (multiprobe; 0 = classic LSH)
      "execution":     "threads",      # where shard endpoints run: "threads"
                                       # (in this process) | "processes"
      "replicas":      1,              # endpoints per worker slot; > 1
                                       # replicates every shard for failover
                                       # (requires execution "processes")
      "adaptive":      null,           # AdaptivePolicy document; null = fixed
                                       # probe budgets, exact top-k fallback
      "seed":          null            # master randomness (int for reproducibility)
    }

``candSize`` is always estimated from the query's merged HyperLogLog
sketches (Algorithm 2), so the schema has no estimator key; documents
saved while it was one still load (see :meth:`IndexSpec.from_dict`).
A ``"variant": "plain"`` document, from before the plain index became
multi-probe at ``num_probes=0``, is refused: ``python -m repro.cli
migrate PATH`` rewrites a saved one.

:class:`QuerySpec` additionally carries per-request adaptive overrides
(``adaptive`` / ``target_candidates`` / ``quality_floor``, all ``None``
= follow the index policy) — see
:class:`~repro.core.adaptive.AdaptivePolicy`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.core.adaptive import AdaptivePolicy
from repro.distances import get_metric
from repro.exceptions import ConfigurationError
from repro.hashing.base import get_family
from repro.utils.validation import (
    check_delta,
    check_positive,
    check_positive_int,
)

__all__ = ["IndexSpec", "QuerySpec"]


def check_probe_budget(variant: str, policy: AdaptivePolicy | None) -> None:
    """Refuse an adaptive probe budget on the covering variant.

    A budget trims probe rings (``lookup_batch_adaptive`` walks the
    fused hash kernel's rings); a covering index has neither — it
    always probes all ``r + 1`` block tables — so a budget there has
    nothing to trim.  Checked where an index spec is validated and
    where a request's adaptive overrides are resolved.
    """
    if variant == "covering" and policy is not None and policy.bounds_probes:
        raise ConfigurationError(
            'variant="covering" probes every block table and has no probe '
            "rings to trim; an adaptive probe budget (target_candidates) "
            "does not apply to it"
        )

_SPEC_VERSION = 1

#: The values any served index's spec was written with while
#: ``estimator`` was a field: the merged-HLL ``candSize`` estimate.
_RETIRED_ESTIMATORS = ("hll", "hyperloglog")


@dataclass(frozen=True)
class IndexSpec:
    """Immutable, validated description of one hybrid index.

    Examples
    --------
    >>> spec = IndexSpec(metric="l2", radius=2.0, num_shards=4)
    >>> IndexSpec.from_dict(spec.to_dict()) == spec
    True
    >>> IndexSpec(metric="l2", radius=-1.0)
    Traceback (most recent call last):
        ...
    repro.exceptions.ConfigurationError: radius must be finite and > 0, got -1.0
    """

    metric: str
    radius: float
    num_tables: int = 50
    delta: float = 0.1
    k: int | None = None
    hash_family: str | None = None
    bucket_width: float | None = None
    family_params: dict[str, Any] | None = None
    hll_precision: int = 7
    hll_seed: int = 0
    lazy_threshold: int | None = None
    cost_ratio: float | None = 6.0
    num_shards: int = 1
    cache_size: int = 0
    cache_quantum: float = 1e-9
    dedup: str = "vectorized"
    layout: str = "frozen"
    variant: str = "multiprobe"
    num_probes: int = 0
    execution: str = "threads"
    replicas: int = 1
    adaptive: AdaptivePolicy | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        set_(self, "metric", get_metric(self.metric).name)
        set_(self, "radius", check_positive(self.radius, "radius"))
        set_(self, "num_tables", check_positive_int(self.num_tables, "num_tables"))
        set_(self, "delta", check_delta(self.delta))
        if self.k is not None:
            set_(self, "k", check_positive_int(self.k, "k"))
        if self.hash_family is not None:
            get_family(self.hash_family)  # raises on unknown names
            set_(self, "hash_family", self.hash_family.lower())
        if self.bucket_width is not None:
            set_(self, "bucket_width", check_positive(self.bucket_width, "bucket_width"))
        if self.family_params is not None and not isinstance(self.family_params, dict):
            raise ConfigurationError(
                f"family_params must be a dict or None, got {self.family_params!r}"
            )
        set_(self, "hll_precision", check_positive_int(self.hll_precision, "hll_precision"))
        set_(self, "hll_seed", int(self.hll_seed))
        if self.lazy_threshold is not None and (
            not isinstance(self.lazy_threshold, int) or self.lazy_threshold < 0
        ):
            raise ConfigurationError(
                f"lazy_threshold must be a non-negative int or None, "
                f"got {self.lazy_threshold!r}"
            )
        if self.cost_ratio is not None:
            set_(self, "cost_ratio", check_positive(self.cost_ratio, "cost_ratio"))
        set_(self, "num_shards", check_positive_int(self.num_shards, "num_shards"))
        if not isinstance(self.cache_size, int) or self.cache_size < 0:
            raise ConfigurationError(
                f"cache_size must be a non-negative int, got {self.cache_size!r}"
            )
        if not self.cache_quantum >= 0:
            raise ConfigurationError(
                f"cache_quantum must be >= 0, got {self.cache_quantum!r}"
            )
        set_(self, "cache_quantum", float(self.cache_quantum))
        if self.dedup not in ("scalar", "vectorized"):
            raise ConfigurationError(
                f'dedup must be "scalar" or "vectorized", got {self.dedup!r}'
            )
        if self.layout != "frozen":
            raise ConfigurationError(
                f'layout must be "frozen" (the only serving layout), got '
                f"{self.layout!r}; the dict-layout LSHIndex is the reference "
                "a frozen index is checked against: build one directly to "
                "use it"
            )
        if self.variant == "plain":
            raise ConfigurationError(
                'variant "plain" is variant="multiprobe" with num_probes=0 '
                "(the default); `python -m repro.cli migrate PATH` rewrites a "
                "saved index whose index.json still says it"
            )
        if self.variant not in ("multiprobe", "covering"):
            raise ConfigurationError(
                f'variant must be "multiprobe" or "covering", got {self.variant!r}'
            )
        if not isinstance(self.num_probes, int) or isinstance(self.num_probes, bool) or self.num_probes < 0:
            raise ConfigurationError(
                f"num_probes must be a non-negative int, got {self.num_probes!r}"
            )
        if self.variant == "covering":
            if self.metric != "hamming":
                raise ConfigurationError(
                    'variant="covering" is a Hamming-space construction; '
                    f"it requires metric=\"hamming\", got {self.metric!r}"
                )
            if not float(self.radius).is_integer():
                raise ConfigurationError(
                    'variant="covering" builds its guarantee for an integer '
                    f"Hamming radius, got {self.radius!r}"
                )
            if (
                self.hash_family is not None
                or self.k is not None
                or self.bucket_width is not None
                or self.family_params
            ):
                raise ConfigurationError(
                    'variant="covering" derives its tables from the radius '
                    "(r + 1 bit blocks); hash_family/k/bucket_width/"
                    "family_params do not apply"
                )
            # The construction fixes the table count at r + 1; normalise
            # so the persisted document never claims a count the artifact
            # does not have.
            set_(self, "num_tables", int(self.radius) + 1)
        if self.execution not in ("threads", "processes"):
            raise ConfigurationError(
                f'execution must be "threads" or "processes", '
                f"got {self.execution!r}"
            )
        set_(self, "replicas", check_positive_int(self.replicas, "replicas"))
        if self.replicas > 1 and self.execution != "processes":
            raise ConfigurationError(
                'replicas > 1 requires execution="processes" — only the '
                "worker pool runs independent endpoints per shard slot"
            )
        if self.adaptive is not None:
            if isinstance(self.adaptive, dict):
                # JSON documents carry the policy as a nested object.
                set_(self, "adaptive", AdaptivePolicy.from_dict(self.adaptive))
            elif not isinstance(self.adaptive, AdaptivePolicy):
                raise ConfigurationError(
                    f"adaptive must be an AdaptivePolicy, a policy document "
                    f"or None, got {self.adaptive!r}"
                )
            check_probe_budget(self.variant, self.adaptive)
        if self.seed is not None and (
            isinstance(self.seed, bool) or not isinstance(self.seed, int)
        ):
            raise ConfigurationError(
                f"seed must be an int or None (JSON-serialisable), got {self.seed!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable document; inverse of :meth:`from_dict`."""
        doc = asdict(self)
        doc["spec_version"] = _SPEC_VERSION
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> IndexSpec:
        """Validate and build a spec from a (parsed) JSON document."""
        if not isinstance(doc, dict):
            raise ConfigurationError(f"spec document must be an object, got {doc!r}")
        doc = dict(doc)
        version = doc.pop("spec_version", _SPEC_VERSION)
        if version != _SPEC_VERSION:
            raise ConfigurationError(f"unsupported spec_version: {version!r}")
        # Saved ``index.json`` specs, worker spec documents and stream
        # ``create`` ops written while ``estimator`` was a field still
        # carry it; the values they were written with load, any other
        # value names an estimator this build no longer has.
        if "estimator" in doc and str(doc.pop("estimator")).lower() not in _RETIRED_ESTIMATORS:
            raise ConfigurationError(
                "spec key 'estimator' is no longer configurable: candSize is "
                "always the merged-HLL estimate (legacy values "
                f"{list(_RETIRED_ESTIMATORS)} still load)"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigurationError(f"unknown spec keys: {unknown}")
        if "metric" not in doc or "radius" not in doc:
            raise ConfigurationError('spec requires "metric" and "radius"')
        return cls(**doc)

    def with_overrides(self, **overrides: Any) -> IndexSpec:
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **overrides)


@dataclass(frozen=True, eq=False)
class QuerySpec:
    """One request against an :class:`repro.api.Index`.

    A single value covers the whole request surface:

    * ``QuerySpec(vector)`` — radius query at the index's tuned radius;
    * ``QuerySpec(vector, radius=0.5)`` — radius query at an explicit radius;
    * ``QuerySpec(vector, k=10)`` — exact top-k query;
    * ``QuerySpec(matrix, ...)`` — a batch of either kind (one result
      per row, answered through the batched engine).

    ``queries`` is normalised to a ``(q, d)`` float matrix; ``single``
    records whether the caller passed one vector (the facade then
    returns one :class:`~repro.core.results.QueryResult` instead of a
    tuple of them).

    Examples
    --------
    >>> spec = QuerySpec([1.0, 2.0], radius=0.5)
    >>> spec.mode, spec.single
    ('radius', True)
    >>> QuerySpec([[1.0, 2.0], [3.0, 4.0]], k=3).mode
    'topk'
    """

    queries: npt.NDArray[np.float64]
    radius: float | None = None
    k: int | None = None
    #: None until ``__post_init__`` resolves it from the query shape.
    single: bool | None = None
    #: opt into degraded answers when shards are unavailable: results
    #: from the reachable shards, tagged ``degraded=True`` with the
    #: missing shard ids, instead of a ShardUnavailableError.  Only
    #: meaningful for ``execution="processes"`` backends; elsewhere
    #: shards cannot fail independently and the flag is a no-op.
    allow_partial: bool = False
    #: per-request adaptive-execution overrides; ``None`` = follow the
    #: index's :class:`~repro.core.adaptive.AdaptivePolicy` for each.
    adaptive: bool | None = None
    target_candidates: int | None = None
    quality_floor: float | None = None

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        queries = np.asarray(self.queries, dtype=np.float64)
        if queries.ndim == 1:
            if self.single is None:
                set_(self, "single", True)
            queries = queries[None, :]
        elif queries.ndim == 2:
            if self.single is None:
                set_(self, "single", False)
        else:
            raise ConfigurationError(
                f"queries must be a vector or a (q, d) matrix, "
                f"got ndim={queries.ndim}"
            )
        set_(self, "queries", queries)
        if self.radius is not None and self.k is not None:
            raise ConfigurationError("pass either radius or k, not both")
        if self.radius is not None:
            set_(self, "radius", check_positive(self.radius, "radius"))
        if self.k is not None:
            set_(self, "k", check_positive_int(self.k, "k"))
        set_(self, "single", bool(self.single))
        set_(self, "allow_partial", bool(self.allow_partial))
        if self.adaptive is not None:
            set_(self, "adaptive", bool(self.adaptive))
        if self.target_candidates is not None:
            if (
                isinstance(self.target_candidates, bool)
                or not isinstance(self.target_candidates, int)
                or self.target_candidates <= 0
            ):
                raise ConfigurationError(
                    f"target_candidates must be a positive int or None, "
                    f"got {self.target_candidates!r}"
                )
        if self.quality_floor is not None:
            if not 0.0 <= float(self.quality_floor) <= 1.0:
                raise ConfigurationError(
                    f"quality_floor must be in [0, 1] or None, "
                    f"got {self.quality_floor!r}"
                )
            set_(self, "quality_floor", float(self.quality_floor))

    @property
    def mode(self) -> str:
        """``"topk"`` when ``k`` is set, else ``"radius"``."""
        return "topk" if self.k is not None else "radius"

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable document; inverse of :meth:`from_dict`."""
        return {
            "queries": self.queries.tolist(),
            "radius": self.radius,
            "k": self.k,
            "single": self.single,
            "allow_partial": self.allow_partial,
            "adaptive": self.adaptive,
            "target_candidates": self.target_candidates,
            "quality_floor": self.quality_floor,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> QuerySpec:
        """Validate and build a query spec from a (parsed) JSON document."""
        if not isinstance(doc, dict) or "queries" not in doc:
            raise ConfigurationError(f'query spec requires "queries", got {doc!r}')
        known = {
            "queries", "radius", "k", "single", "allow_partial",
            "adaptive", "target_candidates", "quality_floor",
        }
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigurationError(f"unknown query-spec keys: {unknown}")
        return cls(
            queries=np.asarray(doc["queries"], dtype=np.float64),
            radius=doc.get("radius"),
            k=doc.get("k"),
            single=doc.get("single"),
            allow_partial=bool(doc.get("allow_partial", False)),
            adaptive=doc.get("adaptive"),
            target_candidates=doc.get("target_candidates"),
            quality_floor=doc.get("quality_floor"),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuerySpec):
            return NotImplemented
        return (
            np.array_equal(self.queries, other.queries)
            and self.radius == other.radius
            and self.k == other.k
            and self.single == other.single
            and self.allow_partial == other.allow_partial
            and self.adaptive == other.adaptive
            and self.target_candidates == other.target_candidates
            and self.quality_floor == other.quality_floor
        )

    def __repr__(self) -> str:
        q, d = self.queries.shape
        what = f"k={self.k}" if self.k is not None else f"radius={self.radius}"
        return f"QuerySpec({q}x{d}, {what}, single={self.single})"
