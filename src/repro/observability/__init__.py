"""Serving telemetry: latency histograms, stage tracing, and exposition.

This package is the measurement layer threaded through every serving
path (sequential, batched, and the worker pool wherever its shard
endpoints run).  It has three deliberately small pieces:

- :class:`~repro.observability.histogram.LatencyHistogram` — fixed
  log-bucket counts that merge *exactly* across shards and processes;
- :class:`~repro.observability.tracing.StageTrace` /
  :func:`~repro.observability.tracing.stage_timer` — opt-in per-stage
  wall-time attribution with near-zero disabled cost;
- :func:`~repro.observability.prometheus.prometheus_text` — renders a
  ``ServiceStats`` snapshot in the Prometheus text exposition format.

Only numpy and the standard library are used, so any layer (including
worker subprocesses) can import it without ordering constraints.
"""

from .histogram import LatencyHistogram
from .prometheus import prometheus_text
from .tracing import STAGES, StageTrace, stage_timer

__all__ = [
    "LatencyHistogram",
    "StageTrace",
    "stage_timer",
    "STAGES",
    "prometheus_text",
]
