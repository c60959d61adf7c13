"""Per-stage wall-time attribution for the query pipeline.

A :class:`StageTrace` is an opt-in accumulator handed down the call
chain (facade -> batch engine -> hybrid searcher, or facade -> worker
pool).  Each layer brackets its named pipeline stage with
:func:`stage_timer`; when no trace was requested the bracket degrades to
a shared no-op span, so the disabled path costs one ``is None`` check
and no allocation — tracing must be safe to leave compiled into every
serving layer.

Tracing observes, never steers: a span wraps timing around existing
computation and the traced code path is otherwise byte-identical to the
untraced one (the observability tests pin tracing-on == tracing-off
result bit-identity with Hypothesis).

Stage names are a closed vocabulary (:data:`STAGES`) so dashboards and
the Prometheus exposition can rely on stable label values:

``hash``
    LSH bucket key computation + table lookups.
``estimate``
    HyperLogLog candidate-size estimation + cost-model evaluation.
``candidates``
    Candidate gather, dedup, and exact distance filtering (LSH path).
``linear``
    Full linear scans for queries the cost model routed away from LSH.
``merge``
    Cross-shard / cross-worker result merging.
``ipc``
    Round trips to the pool's shard endpoints (includes their compute
    time, since the coordinator only observes the request/reply).
"""

from __future__ import annotations

import time
from types import TracebackType

__all__ = ["STAGES", "StageTrace", "stage_timer"]

#: The closed stage vocabulary, in pipeline order.
STAGES = ("hash", "estimate", "candidates", "linear", "merge", "ipc")


class StageTrace:
    """Accumulated seconds and call counts per pipeline stage.

    Not thread-safe by design: one trace follows one request, which
    keeps the hot path free of locks.
    """

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, stage: str, seconds: float, calls: int = 1) -> None:
        """Attribute ``seconds`` of wall time to ``stage``."""
        self.seconds[stage] = self.seconds.get(stage, 0.0) + seconds
        self.calls[stage] = self.calls.get(stage, 0) + calls

    @property
    def total_seconds(self) -> float:
        """Sum of attributed time across all stages."""
        return sum(self.seconds.values())

    def as_dict(self) -> dict[str, dict[str, float]]:
        """JSON-friendly ``{stage: {seconds, calls}}`` in stable stage order."""
        known = [s for s in STAGES if s in self.seconds]
        extra = sorted(set(self.seconds) - set(STAGES))
        return {
            stage: {"seconds": self.seconds[stage], "calls": self.calls[stage]}
            for stage in known + extra
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{s}={v:.4g}s" for s, v in self.as_dict_flat().items())
        return f"StageTrace({parts})"

    def as_dict_flat(self) -> dict[str, float]:
        """``{stage: seconds}`` view used by stats accumulation."""
        return dict(self.seconds)


class _Span:
    """Context manager that adds its wall time to one trace stage."""

    __slots__ = ("_trace", "_stage", "_started")

    def __init__(self, trace: StageTrace, stage: str) -> None:
        self._trace = trace
        self._stage = stage
        self._started = 0.0

    def __enter__(self) -> _Span:
        self._started = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self._trace.add(self._stage, time.perf_counter() - self._started)


class _NullSpan:
    """Shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None


_NULL_SPAN = _NullSpan()


def stage_timer(trace: StageTrace | None, stage: str) -> _Span | _NullSpan:
    """Bracket a pipeline stage: a timing span, or a no-op when untraced.

    Usage at every instrumentation point::

        with stage_timer(trace, "hash"):
            lookups = index.lookup_batch(queries)

    ``trace=None`` (the default everywhere) returns a shared singleton
    whose ``__enter__``/``__exit__`` do nothing, keeping disabled-path
    overhead to a single branch.
    """
    if trace is None:
        return _NULL_SPAN
    return _Span(trace, stage)
