"""The paper's primary contribution: cost-model-driven hybrid search.

Layered as:

* :class:`LinearScan` — the brute-force baseline (Equation 2 cost);
* :class:`LSHSearch` — classic LSH-based rNNR reporting (Equation 1
  cost);
* :class:`CostModel` — Equations (1) and (2) with the ``alpha``
  (duplicate removal) and ``beta`` (distance computation) constants;
* :func:`calibrate_cost_model` — the Section 4.2 procedure measuring
  ``alpha`` and ``beta`` on a sample (paper: 100 queries x 10,000
  points);
* :class:`HybridSearcher` — Algorithm 2: estimate ``LSHCost`` from the
  exact ``#collisions`` and the HLL-estimated ``candSize``, compare
  with ``LinearCost``, and dispatch to the cheaper strategy.

The index these search over is built by :meth:`repro.api.Index.build`
from an :class:`~repro.api.spec.IndexSpec` (paper presets by default);
``Index.build(points, spec).engine.searcher`` is its
:class:`HybridSearcher`.
"""

from repro.core.calibration import CalibrationReport, calibrate_cost_model
from repro.core.cost_model import CostModel
from repro.core.hybrid import HybridSearcher
from repro.core.linear_scan import LinearScan
from repro.core.lsh_search import LSHSearch
from repro.core.presets import PaperParameters, paper_parameters
from repro.core.results import QueryResult, QueryStats, ResultBlock, Strategy

__all__ = [
    "LinearScan",
    "LSHSearch",
    "HybridSearcher",
    "CostModel",
    "CalibrationReport",
    "calibrate_cost_model",
    "QueryResult",
    "QueryStats",
    "ResultBlock",
    "Strategy",
    "PaperParameters",
    "paper_parameters",
]
