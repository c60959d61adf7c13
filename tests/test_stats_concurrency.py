"""ServiceStats is accounted into from many threads at once.

``serve_stream(..., window=W)`` runs batches on a thread pool, and every
pool thread accounts into the *same* stats object; before the stats
lock landed, the bare ``+=`` counters silently lost updates under
contention.  These tests hammer the mutating accessors from many
threads and assert the totals are exact.
"""

import threading

from repro.observability import StageTrace
from repro.service.stats import ServiceStats

THREADS = 8
ITERATIONS = 2000


def _hammer(target):
    """Run ``target(thread_index)`` in THREADS threads, join them all."""
    barrier = threading.Barrier(THREADS)

    def run(i):
        barrier.wait()
        target(i)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()


def test_record_batch_totals_are_exact_under_contention():
    stats = ServiceStats()

    def account(_):
        for _ in range(ITERATIONS):
            stats.record_batch(3, 0.001, strategies={"lsh": 2, "linear": 1})

    _hammer(account)
    assert stats.queries_served == THREADS * ITERATIONS * 3
    assert stats.batches == THREADS * ITERATIONS
    assert stats.latency.count == stats.queries_served
    assert stats.strategy_counts == {
        "lsh": THREADS * ITERATIONS * 2,
        "linear": THREADS * ITERATIONS,
    }


def test_record_cache_and_stage_totals_are_exact_under_contention():
    stats = ServiceStats()

    def account(_):
        for _ in range(ITERATIONS):
            stats.record_cache(hits=2, misses=1, deduplicated=1)
            local = StageTrace()
            local.add("merge", 0.001)
            stats.add_stages(local)

    _hammer(account)
    assert stats.cache_hits == THREADS * ITERATIONS * 2
    assert stats.cache_misses == THREADS * ITERATIONS
    assert stats.deduplicated == THREADS * ITERATIONS
    assert stats.stage_calls["merge"] == THREADS * ITERATIONS


def test_merge_under_contention_sums_exactly():
    total = ServiceStats()
    part = ServiceStats()
    part.record_batch(5, 0.002)
    doc = part.as_dict()

    def fold(_):
        for _ in range(ITERATIONS):
            total.merge(ServiceStats.from_dict(doc))

    _hammer(fold)
    assert total.queries_served == THREADS * ITERATIONS * 5
    assert total.batches == THREADS * ITERATIONS
    assert total.latency.count == total.queries_served
