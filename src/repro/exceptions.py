"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still being able to distinguish configuration
mistakes from runtime state problems.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CorruptArtifactError",
    "DeadlineExceededError",
    "DimensionMismatchError",
    "EmptyIndexError",
    "ShardUnavailableError",
    "UnknownMetricError",
    "SketchError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter combination was supplied.

    Raised eagerly at construction time (for instance a non-positive
    number of hash tables, a ``delta`` outside ``(0, 1)``, or an HLL
    precision outside the supported range) so that misconfiguration
    never surfaces as a confusing downstream failure.
    """


class DimensionMismatchError(ReproError, ValueError):
    """Query or data dimensionality disagrees with the indexed data."""


class EmptyIndexError(ReproError, RuntimeError):
    """A query was issued against an index with no points inserted."""


class UnknownMetricError(ReproError, KeyError):
    """A metric name was requested that is none of the four metrics."""


class CorruptArtifactError(ReproError, RuntimeError):
    """A saved index artifact is truncated, missing files, or unreadable.

    Raised by the persistence loaders (:func:`repro.api.persist.open_index`,
    :func:`repro.index.frozen.load_frozen_index`) instead of leaking raw
    numpy/json tracebacks, so operators can tell a damaged artifact from
    a code bug and restore from a good copy.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """A blocking worker-pool operation missed its per-op deadline.

    The pool treats a breach as a hang: the worker is killed and
    respawned, and the operation retried within the retry budget.  The
    error only escapes to callers once the budget is exhausted (wrapped
    in :class:`ShardUnavailableError` on the query paths).
    """


class ShardUnavailableError(ReproError, RuntimeError):
    """One or more shards stayed unavailable past the retry budget.

    Carries the shard ids that could not be served.  Query paths raise
    it when ``allow_partial`` is off; with ``allow_partial`` on, the
    caller instead receives partial results tagged ``degraded`` with the
    same shard list.
    """

    def __init__(self, message: str, shards: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.shards = tuple(int(s) for s in shards)


class SketchError(ReproError, ValueError):
    """A sketch operation received incompatible operands.

    The canonical example is merging two HyperLogLog sketches that were
    created with different register counts: their registers are not
    comparable, so the merge is refused rather than silently corrupted.
    """
