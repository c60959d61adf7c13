"""Query-adaptive execution policy and online cost-model recalibration.

The hybrid searcher of Algorithm 2 already consults per-bucket HLL
estimates and a :class:`~repro.core.cost_model.CostModel` per query, but
three of its inputs are frozen at build time: the multi-probe fan-out
(``num_probes``), the radius a top-k query would need to ride the LSH
path, and the cost model's ``alpha``/``beta`` coefficients.  This module
holds the one configuration value that unfreezes all three:

* :class:`AdaptivePolicy` — declarative knobs for per-query probe
  budgets (stop probing once the merged HLL estimate of the collected
  candidates reaches ``target_candidates``), radius-from-k estimation
  (ride the hybrid path for top-k when the calibration distance profile
  can certify at least ``1 - delta`` recall against ``quality_floor``),
  and online recalibration.  The policy is carried by
  :class:`~repro.api.spec.IndexSpec` (per index) and overridable per
  request through :class:`~repro.api.spec.QuerySpec`.

* :class:`CostModelTuner` — EWMA-updated ``alpha``/``beta`` from
  observed per-stage timings, reusing the ``StageTrace`` stage
  vocabulary (``linear`` seconds per distance -> ``beta``,
  ``candidates`` seconds per examined candidate -> ``alpha``), so the
  dispatch decision tracks drift as inserts and overflow re-freezes
  reshape bucket statistics.

Recalibration is off by default (``recalibrate=False``): with a fixed
model the adaptive paths stay property-testable bit-identically against
the fixed-budget reference, which is this repo's house quality gate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any

from repro.core.cost_model import CostModel
from repro.exceptions import ConfigurationError

__all__ = ["AdaptivePolicy", "CostModelTuner"]

#: StageTrace stages the tuner maps onto cost-model coefficients.
_BETA_STAGE = "linear"
_ALPHA_STAGE = "candidates"

#: Policy-document keys that used to be fields, with the only value any
#: document was ever written with (see ``repro.api.facade`` for where
#: the radius-from-k constants live now).
_RETIRED_KEYS = {"k_safety": 2.0, "radius_growth": 2.0, "max_escalations": 3}


@dataclass(frozen=True)
class AdaptivePolicy:
    """Immutable, validated adaptive-execution configuration.

    Attributes
    ----------
    enabled:
        Master switch; a disabled policy behaves exactly like having no
        policy at all (fixed probe budgets, exact top-k fallback).
    target_candidates:
        Per-query probe budget: keep probing rings beyond the home
        bucket only while the merged HLL estimate of the candidates
        collected so far stays below this count.  ``None`` keeps the
        full fixed ``num_probes`` fan-out (bit-identical answers).
    quality_floor:
        Minimum certified recall for an adaptive (LSH-path) top-k
        answer.  The hybrid path carries the paper's ``1 - delta``
        guarantee at the tuned radius, so a floor above ``1 - delta``
        (the default 1.0) restricts certification to exactly-answered
        rows — adaptive top-k is then provably bit-identical to the
        exact reference.
    min_probes:
        Probe rings always examined per table regardless of the
        estimate (ring 0 — the home buckets — is always probed).
    recalibrate:
        Feed observed per-stage timings into a :class:`CostModelTuner`
        and dispatch future batches with the recalibrated model.
    ewma_weight:
        Smoothing weight of the tuner's EWMA updates (0 < w <= 1).
    """

    enabled: bool = True
    target_candidates: int | None = None
    quality_floor: float = 1.0
    min_probes: int = 0
    recalibrate: bool = False
    ewma_weight: float = 0.2

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        set_(self, "enabled", bool(self.enabled))
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
        if not 0.0 <= float(self.quality_floor) <= 1.0:
            raise ConfigurationError(
                f"quality_floor must be in [0, 1], got {self.quality_floor!r}"
            )
        set_(self, "quality_floor", float(self.quality_floor))
        if (
            isinstance(self.min_probes, bool)
            or not isinstance(self.min_probes, int)
            or self.min_probes < 0
        ):
            raise ConfigurationError(
                f"min_probes must be a non-negative int, got {self.min_probes!r}"
            )
        set_(self, "recalibrate", bool(self.recalibrate))
        if not 0.0 < float(self.ewma_weight) <= 1.0:
            raise ConfigurationError(
                f"ewma_weight must be in (0, 1], got {self.ewma_weight!r}"
            )
        set_(self, "ewma_weight", float(self.ewma_weight))

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable document; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> AdaptivePolicy:
        """Validate and build a policy from a (parsed) JSON document."""
        if not isinstance(doc, dict):
            raise ConfigurationError(
                f"adaptive policy document must be an object, got {doc!r}"
            )
        doc = dict(doc)
        # Saved ``index.json`` specs and worker policy documents written
        # while these were fields still carry them; the value they were
        # always written with loads, any other value is one this build
        # can no longer honour.
        for key, fixed in _RETIRED_KEYS.items():
            if key in doc and doc.pop(key) != fixed:
                raise ConfigurationError(
                    f"adaptive-policy key {key!r} is no longer configurable "
                    f"(fixed at {fixed!r})"
                )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigurationError(f"unknown adaptive-policy keys: {unknown}")
        return cls(**doc)

    def with_overrides(self, **overrides: Any) -> AdaptivePolicy:
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **overrides)

    def resolve(
        self,
        adaptive: bool | None = None,
        target_candidates: int | None = None,
        quality_floor: float | None = None,
    ) -> AdaptivePolicy:
        """Fold per-request :class:`~repro.api.spec.QuerySpec` overrides in.

        ``None`` means "follow the index policy" for every field; the
        returned value is what one request actually executes under.
        """
        overrides: dict[str, Any] = {}
        if adaptive is not None:
            overrides["enabled"] = bool(adaptive)
        if target_candidates is not None:
            overrides["target_candidates"] = target_candidates
        if quality_floor is not None:
            overrides["quality_floor"] = quality_floor
        return self.with_overrides(**overrides) if overrides else self

    @property
    def bounds_probes(self) -> bool:
        """True when the policy actually trims probe rings."""
        return self.enabled and self.target_candidates is not None


class CostModelTuner:
    """Online EWMA recalibration of the Equation (1)/(2) coefficients.

    Observes ``(stage, ops, seconds)`` samples in the ``StageTrace``
    vocabulary — ``"linear"`` seconds per distance computation update
    ``beta``, ``"candidates"`` seconds per examined candidate update
    ``alpha`` — and maintains a :class:`~repro.core.cost_model.CostModel`
    whose coefficients track the exponentially weighted averages.  The
    number of completed coefficient updates is exposed as
    :attr:`recalibrations` (surfaced in serving telemetry).

    The tuner is deliberately wall-clock free: callers hand it measured
    seconds (from a real trace in production, synthetic values in the
    deterministic property tests).
    """

    def __init__(self, model: CostModel, ewma_weight: float = 0.2) -> None:
        if not 0.0 < float(ewma_weight) <= 1.0:
            raise ConfigurationError(
                f"ewma_weight must be in (0, 1], got {ewma_weight!r}"
            )
        self._alpha = float(model.alpha)
        self._beta = float(model.beta)
        self.ewma_weight = float(ewma_weight)
        self.recalibrations = 0
        self._model = model

    @property
    def model(self) -> CostModel:
        """The current recalibrated cost model."""
        return self._model

    def observe(self, stage: str, ops: int, seconds: float) -> None:
        """Fold one per-stage timing sample into the coefficients.

        ``stage`` follows the ``StageTrace`` vocabulary; stages other
        than ``"linear"``/``"candidates"`` are ignored, as are empty or
        non-positive samples (a zero-op stage carries no rate).
        """
        if ops <= 0 or not seconds > 0.0:
            return
        sample = float(seconds) / float(ops)
        w = self.ewma_weight
        if stage == _BETA_STAGE:
            self._beta = (1.0 - w) * self._beta + w * sample
        elif stage == _ALPHA_STAGE:
            self._alpha = (1.0 - w) * self._alpha + w * sample
        else:
            return
        self._model = CostModel(alpha=self._alpha, beta=self._beta)
        self.recalibrations += 1

    def observe_batch(
        self, linear_ops: int, linear_seconds: float,
        candidate_ops: int, candidate_seconds: float,
    ) -> None:
        """Convenience wrapper: one batch's linear + candidates samples."""
        self.observe(_BETA_STAGE, linear_ops, linear_seconds)
        self.observe(_ALPHA_STAGE, candidate_ops, candidate_seconds)

    def __repr__(self) -> str:
        return (
            f"CostModelTuner(alpha={self._alpha:.3g}, beta={self._beta:.3g}, "
            f"recalibrations={self.recalibrations})"
        )
