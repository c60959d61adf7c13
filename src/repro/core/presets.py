"""The paper's experiment parameter presets.

Section 4 fixes ``L = 50`` and ``delta = 10%`` and derives ``k`` from
the parameter rule for SimHash and bit sampling; for the p-stable
families (whose collision probability depends on the extra width
parameter ``w``) the paper instead pins

* L1 / CoverType: ``k = 8,  w = 4 r``
* L2 / Corel:     ``k = 7,  w = 2 r``

chosen so the ``delta = 10%`` target is met in practice with ``L = 50``.
Note these pinned values satisfy the 90% reporting guarantee comfortably
for points *well inside* the radius (where most true neighbors of a real
query live) while being somewhat optimistic for points exactly at the
boundary distance ``r`` — a selectivity/recall trade the paper accepts.
:func:`paper_parameters` reproduces exactly this logic for each of the
four metrics, returning everything needed to build the index; it is the
only place a metric's family and ``k`` are resolved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distances import get_metric
from repro.exceptions import ConfigurationError, UnknownMetricError
from repro.hashing.base import LSHFamily
from repro.hashing.bit_sampling import BitSamplingLSH
from repro.hashing.params import concatenation_width
from repro.hashing.pstable import PStableLSH
from repro.hashing.simhash import SimHashLSH
from repro.utils.rng import RandomState
from repro.utils.validation import check_delta, check_positive, check_positive_int

__all__ = ["PaperParameters", "paper_parameters"]

# (k, w/r multiplier) pinned by the paper for the p-stable families, and
# the stable distribution each draws from (p = 1 Cauchy, p = 2 Gaussian).
_PSTABLE_PRESETS = {"l1": (8, 4.0, 1), "l2": (7, 2.0, 2)}
# The families without a width; the parameter rule sets their k.
_WIDTHLESS_FAMILIES: dict[str, type[LSHFamily]] = {
    "hamming": BitSamplingLSH,
    "cosine": SimHashLSH,
}


@dataclass(frozen=True)
class PaperParameters:
    """Resolved index parameters for one (metric, radius) pair.

    Attributes
    ----------
    family:
        A constructed LSH family (p-stable families carry their width).
    k:
        Concatenation width.
    num_tables:
        ``L``.
    p1:
        Atomic collision probability at the radius (for reporting).
    radius / delta:
        Echo of the inputs.
    """

    family: LSHFamily
    k: int
    num_tables: int
    p1: float
    radius: float
    delta: float


def paper_parameters(
    metric: str,
    dim: int,
    radius: float,
    num_tables: int = 50,
    delta: float = 0.1,
    seed: RandomState = None,
    k: int | None = None,
    w: float | None = None,
) -> PaperParameters:
    """Resolve the paper's parameter setting for a metric and radius.

    The one place a metric's LSH family is chosen: bit sampling for
    Hamming, SimHash for cosine, Cauchy p-stable for L1 and Gaussian
    p-stable for L2.  ``k`` and ``w`` override the paper's values.

    Parameters
    ----------
    metric:
        ``"hamming"``, ``"cosine"``, ``"l1"`` or ``"l2"`` (or an alias).
    dim:
        Data dimensionality.
    radius:
        The query radius the index is tuned for (``p1`` and, for
        p-stable families, ``w`` depend on it).
    num_tables:
        ``L`` (paper: 50).
    delta:
        Failure probability (paper: 0.1).
    seed:
        Randomness for family construction.
    k:
        Concatenation width; ``None`` = the paper's (pinned for the
        p-stable families, the parameter rule for the others).
    w:
        Bucket width of a p-stable family; ``None`` = the paper's
        multiple of ``radius``.  The other families have no width.

    Returns
    -------
    PaperParameters
    """
    dim = check_positive_int(dim, "dim")
    radius = check_positive(radius, "radius")
    num_tables = check_positive_int(num_tables, "num_tables")
    delta = check_delta(delta)
    name = get_metric(metric).name
    if name in _PSTABLE_PRESETS:
        pinned_k, w_multiplier, p = _PSTABLE_PRESETS[name]
        family: LSHFamily = PStableLSH(
            dim, w=w_multiplier * radius if w is None else w, p=p, seed=seed
        )
        k = pinned_k if k is None else k
    elif name not in _WIDTHLESS_FAMILIES:
        raise UnknownMetricError(f"no paper preset for metric {metric!r}")
    elif w is not None:
        raise ConfigurationError(f"metric {name!r} has no bucket width; w applies to l1 / l2")
    else:
        family = _WIDTHLESS_FAMILIES[name](dim, seed=seed)
    p1 = family.collision_probability(radius)
    if k is None:
        k = concatenation_width(num_tables, delta, p1)
    return PaperParameters(
        family=family,
        k=check_positive_int(k, "k"),
        num_tables=num_tables,
        p1=p1,
        radius=radius,
        delta=delta,
    )
