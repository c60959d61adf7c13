"""Evaluation harness: ground truth, metrics, runners and experiment specs.

Reproduces the paper's Section 4 protocol: 100 queries randomly removed
from each dataset, averages over repeated runs, and one experiment
function per table/figure:

* :func:`table1_experiment` — Table 1 (relative cost and error of HLL);
* :func:`figure2_experiment` — Figure 2 (CPU time vs radius for hybrid
  / LSH / linear);
* :func:`figure3_experiment` — Figure 3 (output-size spread and % of
  linear-search calls on Webspam).
"""

from repro.evaluation.ground_truth import GroundTruth
from repro.evaluation.metrics import (
    mean_recall,
    recall,
    relative_error,
    summarize,
)
from repro.evaluation.runner import StrategyRun, run_queries
from repro.evaluation.experiments import (
    Figure2Row,
    Figure3Row,
    RecallRow,
    Table1Row,
    figure2_experiment,
    figure3_experiment,
    recall_experiment,
    table1_experiment,
)
from repro.evaluation.profile import (
    distance_profile,
    hardness_profile,
    suggest_radii,
)
from repro.evaluation.report import (
    format_figure2,
    format_figure3,
    format_recall,
    format_table,
)

__all__ = [
    "GroundTruth",
    "recall",
    "mean_recall",
    "relative_error",
    "summarize",
    "StrategyRun",
    "run_queries",
    "Table1Row",
    "Figure2Row",
    "Figure3Row",
    "RecallRow",
    "table1_experiment",
    "figure2_experiment",
    "figure3_experiment",
    "recall_experiment",
    "distance_profile",
    "hardness_profile",
    "suggest_radii",
    "format_table",
    "format_figure2",
    "format_figure3",
    "format_recall",
]
