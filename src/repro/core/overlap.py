"""Algorithm 2's two partitions side by side: one helper thread per index.

Algorithm 2 sends each query of a batch either to linear search or to
LSH-based search.  The two partitions read the same immutable arrays
and share nothing else, so :meth:`HybridSearcher.query_batch
<repro.core.hybrid.HybridSearcher.query_batch>` can run the linear
partition on a :class:`PartitionHelper` thread while the calling thread
runs the LSH partition (Steps S2 + S3).  The kernels and their inputs
are unchanged, so answers and ``QueryStats`` are bit-identical to the
serial order; only wall time moves.

:meth:`PartitionHelper.run_beside` runs both parts inline, with no
thread hop, when the helper cannot help:

* the helper is busy serving another caller's batch;
* fewer than two CPUs are usable (:func:`_usable_cpus`);
* the helper is closed.

There is no knob.  Where a second core exists the overlap is free, and
where it does not the helper is skipped on its own.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Any, TypeVar

__all__ = ["PartitionHelper", "THREAD_NAME"]

#: Name prefix of the helper thread (tests look for live ones by it).
THREAD_NAME = "repro-linear-partition"

S = TypeVar("S")
M = TypeVar("M")


def _usable_cpus() -> int:
    """CPUs this process may run on; below two every batch runs inline.

    A module-level hook: tests force the inline path by patching it.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _timed(fn: Callable[[], S]) -> tuple[S, float]:
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


class PartitionHelper:
    """One persistent thread that runs one side of a batch beside its caller.

    The thread starts on the first :meth:`run_beside` that uses it and
    serves one job at a time: a caller that finds it busy runs both
    parts itself rather than queueing.  :meth:`close` joins the thread;
    later calls run inline.  ``submits`` counts the jobs handed over.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
        self._busy = False
        self._closed = False
        self.submits = 0

    def _submit(self, side: Callable[[], S]) -> Future[Any] | None:
        """``side`` on the helper thread, or ``None``: run it inline."""
        if _usable_cpus() < 2:
            return None
        with self._lock:
            if self._busy or self._closed:
                return None
            if self._executor is None:
                self._executor = ThreadPoolExecutor(1, thread_name_prefix=THREAD_NAME)
            self._busy = True
            self.submits += 1
            return self._executor.submit(_timed, side)

    def _release(self) -> None:
        with self._lock:
            self._busy = False

    def run_beside(
        self, side: Callable[[], S], main: Callable[[], M]
    ) -> tuple[S, float, M]:
        """``(side(), side's wall seconds, main())``, the two overlapped.

        ``side`` runs on the helper thread and ``main`` on the caller;
        inline, ``side`` runs first.  Either part's exception propagates,
        ``main``'s first; the helper is free again once this returns.
        """
        future = self._submit(side)
        if future is None:
            side_value, seconds = _timed(side)
            return side_value, seconds, main()
        try:
            main_value = main()
        finally:
            # The helper stays this caller's until its job is over, so a
            # failing main never leaves work running behind the call.
            wait([future])
            self._release()
        side_value, seconds = future.result()
        return side_value, seconds, main_value

    def close(self) -> None:
        """Join the helper thread; idempotent.  Later calls run inline."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
