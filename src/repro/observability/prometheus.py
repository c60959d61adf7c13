"""Render a stats snapshot in the Prometheus text exposition format.

The serving layers all report through ``ServiceStats.as_dict()`` (a
JSON-safe nested dict); :func:`prometheus_text` maps that snapshot onto
the `text format`__ scrape payload — counters as ``*_total``, the
latency histogram as cumulative ``le`` buckets with ``_sum``/``_count``,
stage and strategy attributions as labeled counters, and gauges as
plain gauges.  Keeping this a pure dict -> str function means the same
renderer serves the stream protocol's ``metrics`` op, the CLI, and any
future HTTP endpoint without touching live stats objects.

__ https://prometheus.io/docs/instrumenting/exposition_formats/
"""

from __future__ import annotations

from typing import Any

from .histogram import LatencyHistogram

__all__ = ["prometheus_text"]

#: Flat counter keys in ``as_dict`` output -> metric names.
_COUNTERS = {
    "queries_served": ("repro_queries_served_total", "Queries answered."),
    "batches": ("repro_batches_total", "Query batches executed."),
    "cache_hits": ("repro_cache_hits_total", "Result-cache hits."),
    "cache_misses": ("repro_cache_misses_total", "Result-cache misses."),
    "deduplicated": ("repro_deduplicated_total", "Duplicate queries folded by the batch dedup."),
    "bytes_shipped": ("repro_bytes_shipped_total", "Bytes of query/result payload crossing worker pipes."),
    "worker_respawns": ("repro_worker_respawns_total", "Pool workers respawned after a crash."),
    "worker_timeouts": ("repro_worker_timeouts_total", "Worker replies that missed their recv deadline."),
    "worker_retries": ("repro_worker_retries_total", "Requests re-sent after a worker transport failure."),
    "degraded_responses": ("repro_degraded_responses_total", "Responses served with one or more shards missing."),
    "breaker_opens": ("repro_breaker_opens_total", "Per-worker circuit breakers tripped open."),
    "replica_failovers": ("repro_replica_failovers_total", "Reads re-routed to a surviving replica after a transport failure."),
    "adaptive_probes": ("repro_adaptive_probes_total", "Queries answered under a bounded per-query probe budget."),
    "radius_estimates": ("repro_radius_estimates_total", "Top-k queries attempted via radius-from-k estimation."),
    "recalibrations": ("repro_recalibrations_total", "Completed online cost-model coefficient updates."),
}

_GAUGES = {
    "pool_workers": ("repro_pool_workers", "Configured worker-pool slot count (0 for a single index)."),
    "elapsed_seconds": ("repro_query_busy_seconds", "Accumulated wall time spent answering queries."),
}


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _sanitise_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def prometheus_text(stats: dict[str, Any], prefix_comment: str | None = None) -> str:
    """Render a ``ServiceStats.as_dict()`` snapshot as Prometheus text.

    Unknown flat keys are ignored, so the renderer tolerates snapshots
    from older or newer stats schemas.  Returns a payload ending in a
    newline, as the exposition format requires.
    """
    lines: list[str] = []
    if prefix_comment:
        lines.append(f"# {prefix_comment}")

    for key, (name, help_text) in _COUNTERS.items():
        if key in stats:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_format_value(stats[key])}")

    for key, (name, help_text) in _GAUGES.items():
        if key in stats:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(stats[key])}")

    respawns_by_cause = stats.get("respawns_by_cause") or {}
    if respawns_by_cause:
        name = "repro_worker_respawns_by_cause_total"
        lines.append(f"# HELP {name} Worker respawns keyed by trigger.")
        lines.append(f"# TYPE {name} counter")
        for cause in sorted(respawns_by_cause):
            label = _sanitise_label(str(cause))
            lines.append(
                f'{name}{{cause="{label}"}} '
                f"{_format_value(respawns_by_cause[cause])}"
            )

    strategies = {
        key[len("strategy_"):]: value
        for key, value in stats.items()
        if key.startswith("strategy_")
    }
    if strategies:
        name = "repro_strategy_queries_total"
        lines.append(f"# HELP {name} Queries answered per execution strategy.")
        lines.append(f"# TYPE {name} counter")
        for strategy in sorted(strategies):
            label = _sanitise_label(str(strategy))
            lines.append(
                f'{name}{{strategy="{label}"}} {_format_value(strategies[strategy])}'
            )

    stages = stats.get("stages") or {}
    if stages:
        sec_name = "repro_stage_seconds_total"
        call_name = "repro_stage_calls_total"
        lines.append(f"# HELP {sec_name} Wall seconds attributed to each pipeline stage (traced calls only).")
        lines.append(f"# TYPE {sec_name} counter")
        for stage, entry in stages.items():
            label = _sanitise_label(str(stage))
            lines.append(f'{sec_name}{{stage="{label}"}} {_format_value(entry["seconds"])}')
        lines.append(f"# HELP {call_name} Traced span entries per pipeline stage.")
        lines.append(f"# TYPE {call_name} counter")
        for stage, entry in stages.items():
            label = _sanitise_label(str(stage))
            lines.append(f'{call_name}{{stage="{label}"}} {_format_value(entry["calls"])}')

    for gauge, value in sorted((stats.get("gauges") or {}).items()):
        name = f"repro_{gauge}"
        lines.append(f"# HELP {name} Backend gauge {gauge}.")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(value)}")

    latency = stats.get("latency")
    if latency:
        histogram = LatencyHistogram.from_dict(latency)
        name = "repro_query_latency_seconds"
        lines.append(f"# HELP {name} Per-query serving latency (batch wall time attributed to each query).")
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        edges = LatencyHistogram.bucket_edges()
        for edge, bucket in zip(edges, histogram.counts[: edges.size]):
            cumulative += int(bucket)
            lines.append(f'{name}_bucket{{le="{_format_value(float(edge))}"}} {cumulative}')
        cumulative += int(histogram.counts[-1])
        lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{name}_sum {_format_value(histogram.total_seconds)}")
        lines.append(f"{name}_count {cumulative}")

    return "\n".join(lines) + "\n"
