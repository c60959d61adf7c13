"""Hybrid LSH: faster near neighbors reporting in high-dimensional space.

A from-scratch reproduction of Ninh Pham's EDBT 2017 paper.  The
package implements the full stack: distance metrics, LSH families
(bit sampling, SimHash, p-stable, MinHash), HyperLogLog bucket
sketches, the multi-table (and multi-probe) index, the computational
cost model, and the hybrid per-query dispatch between LSH-based search
and linear search — plus the synthetic dataset stand-ins and the
evaluation harness regenerating every table and figure.

Quickstart
----------
>>> import numpy as np
>>> from repro import Index, IndexSpec, QuerySpec
>>> rng = np.random.default_rng(0)
>>> points = rng.normal(size=(2000, 32))
>>> index = Index.build(points, IndexSpec(metric="l2", radius=2.0, seed=1))
>>> result = index.query(QuerySpec(points[0]))
>>> 0 in result.ids
True
"""

from repro.api import (
    AdaptivePolicy,
    BatchOutcome,
    Index,
    IndexSpec,
    QueryOutcome,
    QuerySpec,
    available_estimators,
    available_families,
    get_estimator,
    get_family,
    register_estimator,
    register_family,
)
from repro.core import (
    CostModel,
    HybridLSH,
    HybridSearcher,
    LinearScan,
    LSHSearch,
    QueryResult,
    QueryStats,
    Strategy,
    calibrate_cost_model,
    paper_parameters,
)
from repro.distances import get_metric
from repro.hashing import (
    BitSamplingLSH,
    MinHashLSH,
    PStableLSH,
    SimHashLSH,
    concatenation_width,
    family_for_metric,
)
from repro.index import CoveringLSHIndex, LSHIndex, MultiProbeLSHIndex
from repro.index.serialize import load_index, save_index
from repro.service import QueryResultCache
from repro.sketches import HyperLogLog

__version__ = "1.1.0"

__all__ = [
    "AdaptivePolicy",
    "BatchOutcome",
    "Index",
    "IndexSpec",
    "QueryOutcome",
    "QuerySpec",
    "register_family",
    "get_family",
    "available_families",
    "register_estimator",
    "get_estimator",
    "available_estimators",
    "HybridLSH",
    "HybridSearcher",
    "LSHSearch",
    "LinearScan",
    "CostModel",
    "calibrate_cost_model",
    "QueryResult",
    "QueryStats",
    "Strategy",
    "paper_parameters",
    "LSHIndex",
    "MultiProbeLSHIndex",
    "CoveringLSHIndex",
    "save_index",
    "load_index",
    "QueryResultCache",
    "HyperLogLog",
    "BitSamplingLSH",
    "SimHashLSH",
    "PStableLSH",
    "MinHashLSH",
    "family_for_metric",
    "concatenation_width",
    "get_metric",
    "__version__",
]
