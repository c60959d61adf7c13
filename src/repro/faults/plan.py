"""Seeded fault schedules: which worker misbehaves, when, and how.

A :class:`FaultPlan` is an immutable, picklable value built either from
an explicit script (:meth:`FaultPlan.scripted`) or from a seeded random
draw (:meth:`FaultPlan.seeded`); the pool ships it to each worker at
spawn time (and a :class:`~repro.service.shard_server.ShardServer` can
be constructed with one directly).  Workers count the requests they
receive and consult their :class:`FaultInjector` before answering each
one, so a schedule like "worker 1 crashes on its 3rd request"
reproduces exactly across runs.

How request indices are counted is governed by each spec's ``scope``:

* ``scope="process"`` (the default, and the historical behaviour) —
  indices restart from zero in every worker process/session.  A
  long-``repeat`` fault at a low index models a *persistently sick*
  endpoint: it misbehaves again after every recovery, because the
  respawned process counts from zero and re-enters the window.
* ``scope="lifetime"`` — indices accumulate across respawns and
  reconnects (the pool threads the endpoint's running op count into
  each new injector via ``start``).  An ``op_index=0`` crash with
  ``scope="lifetime"`` fires exactly once in the endpoint's life: the
  respawned process resumes counting *past* the window, modelling a
  transient glitch rather than a permanent outage.

With replica sets, ``replica=None`` (the default) matches every replica
of the target worker slot — the pre-replica behaviour — while an
explicit ``replica`` index pins the fault to one endpoint, which is how
failover drills break a single replica and assert the others carry the
slot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["FaultKind", "FaultSpec", "FaultPlan", "FaultInjector"]

#: valid values for :attr:`FaultSpec.scope`.
_SCOPES = ("process", "lifetime")


class FaultKind(str, enum.Enum):
    """How a scheduled fault manifests inside the worker."""

    #: the worker process exits abruptly mid-request (no reply).
    CRASH = "crash"
    #: the worker stops responding: it sleeps and never replies.
    HANG = "hang"
    #: the reply is delayed by ``seconds`` but otherwise correct.
    SLOW = "slow"
    #: the reply frame's body is cut short under a prefix that agrees,
    #: so the receiver's decode step fails.
    CORRUPT = "corrupt"
    #: the reply is silently dropped; the worker stays alive.
    DROP = "drop"
    #: transport-level: the connection is closed instead of replying —
    #: the peer survives and accepts reconnects (a network partition's
    #: signature, distinct from a crash).
    DISCONNECT = "disconnect"
    #: transport-level: the reply is delayed by ``seconds`` in the
    #: framing layer (a congested or lossy link, not a slow compute).
    SLOW_LINK = "slow_link"
    #: transport-level: the reply frame's checksum is broken so the
    #: receiver rejects it at the framing gate (over a pipe, whose frames
    #: carry no checksum, this degrades to the cut body of ``CORRUPT``).
    CORRUPT_FRAME = "corrupt_frame"


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: ``worker`` misbehaves on request ``op_index``.

    ``repeat`` widens the window: the fault fires for every request
    index in ``[op_index, op_index + repeat)``.  ``seconds`` is the
    sleep for the delay-bearing kinds (:attr:`FaultKind.SLOW`,
    :attr:`FaultKind.HANG`, :attr:`FaultKind.SLOW_LINK`; a hang with
    ``seconds=0`` sleeps effectively forever and relies on the parent's
    deadline to kill it).  ``scope`` selects per-process or
    endpoint-lifetime request counting (see the module docstring) and
    ``replica`` optionally pins the fault to one replica of the worker
    slot (``None`` matches all).
    """

    kind: FaultKind
    worker: int
    op_index: int
    seconds: float = 0.0
    repeat: int = 1
    scope: str = "process"
    replica: int | None = None

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ConfigurationError(f"worker must be >= 0, got {self.worker}")
        if self.op_index < 0:
            raise ConfigurationError(f"op_index must be >= 0, got {self.op_index}")
        if self.repeat < 1:
            raise ConfigurationError(f"repeat must be >= 1, got {self.repeat}")
        if not self.seconds >= 0:
            raise ConfigurationError(f"seconds must be >= 0, got {self.seconds}")
        if self.scope not in _SCOPES:
            raise ConfigurationError(
                f"scope must be one of {_SCOPES}, got {self.scope!r}"
            )
        if self.replica is not None and self.replica < 0:
            raise ConfigurationError(
                f"replica must be >= 0 or None, got {self.replica}"
            )

    def covers(self, op_index: int) -> bool:
        """Whether this fault fires for the given request index."""
        return self.op_index <= op_index < self.op_index + self.repeat


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of :class:`FaultSpec` entries.

    Examples
    --------
    >>> plan = FaultPlan.scripted(
    ...     FaultSpec(FaultKind.CRASH, worker=0, op_index=2),
    ...     FaultSpec(FaultKind.DROP, worker=1, op_index=0),
    ... )
    >>> plan.for_worker(0).next_fault() is None  # request 0: clean
    True
    """

    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def scripted(cls, *specs: FaultSpec) -> FaultPlan:
        """A plan from an explicit list of faults."""
        return cls(specs=tuple(specs))

    @classmethod
    def seeded(
        cls,
        seed: int,
        num_workers: int,
        num_ops: int,
        rate: float = 0.1,
        kinds: tuple[FaultKind, ...] = (
            FaultKind.CRASH,
            FaultKind.HANG,
            FaultKind.SLOW,
            FaultKind.CORRUPT,
            FaultKind.DROP,
        ),
        max_delay: float = 0.05,
    ) -> FaultPlan:
        """Draw a random schedule deterministically from ``seed``.

        Each (worker, request) slot independently faults with
        probability ``rate``; the kind is drawn uniformly from
        ``kinds`` and sleep-bearing kinds get a delay in
        ``(0, max_delay]``.  The same seed always yields the same plan.
        The transport kinds are not in the default pool — add them to
        ``kinds`` explicitly to soak the framing layer too.
        """
        if num_workers < 1:
            raise ConfigurationError(f"num_workers must be >= 1, got {num_workers}")
        if num_ops < 0:
            raise ConfigurationError(f"num_ops must be >= 0, got {num_ops}")
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"rate must be in [0, 1], got {rate}")
        if not kinds:
            raise ConfigurationError("kinds must not be empty")
        rng = np.random.default_rng(seed)
        specs: list[FaultSpec] = []
        for worker in range(num_workers):
            for op_index in range(num_ops):
                if rng.random() >= rate:
                    continue
                kind = kinds[int(rng.integers(len(kinds)))]
                seconds = 0.0
                if kind in (FaultKind.SLOW, FaultKind.HANG, FaultKind.SLOW_LINK):
                    seconds = float(max_delay) * float(rng.random())
                specs.append(
                    FaultSpec(kind, worker=worker, op_index=op_index, seconds=seconds)
                )
        return cls(specs=tuple(specs))

    def for_worker(
        self, worker: int, replica: int = 0, start: int = 0
    ) -> FaultInjector:
        """The injector one endpoint consults on every request it receives.

        ``replica`` selects which replica of the worker slot this
        endpoint is (specs with ``replica=None`` match every replica);
        ``start`` is the endpoint's lifetime op count so far — a fresh
        process/session passes the count its predecessors consumed, and
        ``scope="lifetime"`` specs are matched against ``start + index``
        while ``scope="process"`` specs see the session-local ``index``.
        """
        return FaultInjector(
            tuple(
                spec
                for spec in self.specs
                if spec.worker == worker and spec.replica in (None, replica)
            ),
            start=start,
        )

    def __bool__(self) -> bool:
        return bool(self.specs)


class FaultInjector:
    """Per-endpoint request counter matching requests against the plan.

    ``next_fault()`` is called exactly once per received request; the
    first listed spec covering the current index wins.  ``start`` seeds
    the lifetime index for ``scope="lifetime"`` specs; the session-local
    index always begins at zero.
    """

    def __init__(self, specs: tuple[FaultSpec, ...], start: int = 0) -> None:
        self._specs = specs
        self._start = int(start)
        self._op_index = 0

    @property
    def op_index(self) -> int:
        """Requests consumed this session (the next request's index)."""
        return self._op_index

    def next_fault(self) -> FaultSpec | None:
        index = self._op_index
        self._op_index += 1
        for spec in self._specs:
            effective = index if spec.scope == "process" else self._start + index
            if spec.covers(effective):
                return spec
        return None
