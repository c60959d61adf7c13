"""The request loop's in-flight window must be observationally synchronous.

``serve_stream(..., window=W)`` runs up to ``W`` micro-batches at once,
but the wire contract is the one-at-a-time loop's: the same responses,
in request order, with ops and top-k acting as barriers.  These tests
replay mixed request scripts with ``window=1`` and no backlog probe
(every line answered before the next is read) and with a wider window
behind a probe that always reports a backlog, as a bulk pipe would,
and require byte-equal response sequences (modulo timing counters in
the stats payload).
"""

import json
import threading

import numpy as np
import pytest

from repro.api import Index, IndexSpec
from repro.service.stream import serve_stream


@pytest.fixture(scope="module")
def served_index():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(500, 8))
    index = Index.build(
        points,
        IndexSpec(
            metric="l2", radius=1.2, num_tables=6, num_shards=2,
            cost_ratio=6.0, seed=3,
        ),
    )
    yield index
    index.close()


def _script(dim, count=30):
    rng = np.random.default_rng(7)
    lines = [
        json.dumps({"query": rng.normal(size=dim).tolist(), "radius": 1.2})
        for _ in range(count)
    ]
    lines.insert(5, json.dumps({"op": "stats"}))
    lines.insert(12, json.dumps({"query": rng.normal(size=dim).tolist(), "k": 4}))
    lines.insert(20, "this is not json")
    lines.insert(25, json.dumps({"query": [1.0], "radius": 1.0}))  # bad dim
    return lines


def _normalise(line):
    doc = json.loads(line)
    # Timing-dependent stats fields differ between runs by construction:
    # the loops group batches differently, so wall-clock counters, the
    # latency bucket distribution, per-stage seconds, and live gauges
    # all legitimately diverge.  Count-style fields stay compared.
    # The shard endpoints' own documents (``workers``) group the same way.
    workers = doc.get("workers", {})
    for part in [doc, workers.get("aggregate", {}), *workers.get("per_worker", [])]:
        for volatile in ("elapsed_seconds", "qps", "batches", "latency", "stages", "gauges"):
            part.pop(volatile, None)
    return doc


def _backlog():
    """A ``more_ready`` probe for a pipe whose next line always waits."""
    return True


def _windowed(index, lines, window, **kwargs):
    return serve_stream(index, lines, more_ready=_backlog, window=window, **kwargs)


class TestConcurrentLoop:
    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_matches_synchronous_loop_in_order(self, served_index, window):
        lines = _script(served_index.dim)
        served_index.reset_stats()
        sync = list(serve_stream(served_index, lines, batch_size=8))
        served_index.reset_stats()
        concurrent = list(_windowed(served_index, lines, window, batch_size=8))
        assert len(sync) == len(concurrent) == len(lines)
        for a, b in zip(sync, concurrent):
            assert _normalise(a) == _normalise(b)

    def test_small_batch_size_exercises_many_inflight_batches(self, served_index):
        lines = _script(served_index.dim, count=50)
        served_index.reset_stats()
        sync = list(serve_stream(served_index, lines, batch_size=2))
        served_index.reset_stats()
        concurrent = list(_windowed(served_index, lines, 4, batch_size=2))
        for a, b in zip(sync, concurrent):
            assert _normalise(a) == _normalise(b)

    def test_stats_totals_match_sync_loop(self, served_index):
        """Overlapped batches must account identically to the sync loop.

        With ``batch_size=1`` both loops dispatch every query as its own
        batch, so the full counter set — queries served, batch count,
        histogram sample total, strategy tallies — is deterministic and
        must agree exactly (only the latency *distribution* is timing).
        """
        rng = np.random.default_rng(11)
        lines = [
            json.dumps({"query": rng.normal(size=served_index.dim).tolist(),
                        "radius": 1.2})
            for _ in range(40)
        ]

        def totals():
            stats = served_index.stats
            return {
                "queries_served": stats.queries_served,
                "batches": stats.batches,
                "histogram_total": stats.latency.count,
                "strategies": dict(stats.strategy_counts),
            }

        served_index.reset_stats()
        list(serve_stream(served_index, lines, batch_size=1))
        sync_totals = totals()
        served_index.reset_stats()
        list(_windowed(served_index, lines, 4, batch_size=1))
        concurrent_totals = totals()

        assert sync_totals == concurrent_totals
        assert sync_totals["queries_served"] == len(lines)
        # Every query in a batch is charged the batch's latency, so the
        # histogram's sample total always equals queries_served.
        assert sync_totals["histogram_total"] == sync_totals["queries_served"]

    def test_stats_query_totals_match_under_grouping(self, served_index):
        """Larger micro-batches regroup work but never lose queries."""
        rng = np.random.default_rng(13)
        lines = [
            json.dumps({"query": rng.normal(size=served_index.dim).tolist(),
                        "radius": 1.2})
            for _ in range(30)
        ]
        served_index.reset_stats()
        list(_windowed(served_index, lines, 4, batch_size=8))
        stats = served_index.stats
        assert stats.queries_served == len(lines)
        assert stats.latency.count == stats.queries_served
        assert sum(stats.strategy_counts.values()) == len(lines)

    def test_insert_op_is_a_barrier(self, served_index):
        rng = np.random.default_rng(9)
        new_point = rng.normal(size=served_index.dim)
        lines = [
            json.dumps({"query": new_point.tolist(), "radius": 0.5}),
            json.dumps({"op": "insert", "points": [new_point.tolist()]}),
            json.dumps({"query": new_point.tolist(), "radius": 0.5}),
        ]
        out = [
            json.loads(r)
            for r in _windowed(served_index, lines, 4)
        ]
        assert out[1]["inserted"] == 1
        # The post-insert query must see the point the barrier added.
        assert out[2]["found"] == out[0]["found"] + 1

    def test_window_must_be_positive(self, served_index):
        with pytest.raises(ValueError):
            list(serve_stream(served_index, [], window=0))

    def test_failing_backend_yields_per_line_errors_and_stream_survives(
        self, served_index
    ):
        """A batch whose backend blows up must not hang or misalign.

        Regression for the mid-batch worker-death hang: the future's
        exception is converted into one error line per buffered query,
        and later requests keep being served.
        """

        class FlakyService:
            """Stand-in serving target whose query always raises."""

            def __init__(self, real):
                self._real = real
                self.dim = real.dim
                self.calls = 0

            def query(self, request):
                self.calls += 1
                raise RuntimeError("worker pool lost a shard mid-batch")

        flaky = FlakyService(served_index)
        rng = np.random.default_rng(17)
        lines = [
            json.dumps({"query": rng.normal(size=flaky.dim).tolist(),
                        "radius": 1.2})
            for _ in range(9)
        ]
        out = [
            json.loads(r)
            for r in _windowed(flaky, lines, 2, batch_size=4)
        ]
        assert len(out) == len(lines)  # alignment preserved
        assert all("error" in doc for doc in out)
        assert all("mid-batch" in doc["error"] for doc in out)
        assert flaky.calls >= 1

    def test_escaping_future_exception_is_contained(self, served_index):
        """Even an exception _flush cannot catch owes its batch's lines.

        ``np.stack`` runs before ``_flush``'s per-group try, so a target
        whose ``dim`` attribute lies produces queries that fail there —
        the drain path must still emit one error per buffered query
        instead of killing the generator mid-stream.
        """

        class LyingDim:
            def __init__(self, real):
                self._real = real
                self.dim = real.dim

            def query(self, request):
                return self._real.query(request)

        target = LyingDim(served_index)
        good = json.dumps(
            {"query": np.zeros(target.dim).tolist(), "radius": 1.2}
        )
        out = list(_windowed(target, [good], 2))
        assert len(out) == 1
        assert "found" in json.loads(out[0])

    def test_closing_the_generator_early_stops_the_reader(self, served_index):
        """Abandoning the response stream must not leak a serving thread.

        Closing the generator with batches in flight runs its
        ``finally``: the window's thread pool shuts down and every
        ``repro-serve`` thread has exited when ``close()`` returns.
        """
        rng = np.random.default_rng(19)
        lines = [
            json.dumps({"query": rng.normal(size=served_index.dim).tolist(),
                        "radius": 1.2})
            for _ in range(3000)
        ]
        responses = _windowed(served_index, iter(lines), 2, batch_size=8)
        assert "found" in json.loads(next(responses))
        responses.close()  # runs the finally: shut the pool down, join
        alive = [t.name for t in threading.enumerate() if t.name.startswith("repro-serve")]
        assert alive == []

    def test_interactive_client_is_never_starved(self, served_index):
        """A client that sends one request and waits must get its answer.

        Regression: the loop used to drain completed futures only when
        the *next* input line arrived, deadlocking against a
        request/response client.  Without a backlog probe every line is
        answered before the next is read, whatever the window.
        """
        _lockstep(served_index, more_ready=None)

    def test_idle_client_gets_a_finished_batch_behind_a_probe(self, served_index):
        """With a probe that sees no waiting input, the loop waits on the
        in-flight batch instead of blocking on the next line."""
        _lockstep(served_index, more_ready=lambda requests: not requests.empty())


def _lockstep(served_index, more_ready):
    """Send three queries one at a time, each awaited before the next."""
    import queue

    requests: queue.Queue[str | None] = queue.Queue()

    def lines():
        while True:
            item = requests.get()
            if item is None:
                return
            yield item

    probe = None if more_ready is None else lambda: more_ready(requests)
    responses = serve_stream(
        served_index, lines(), batch_size=8, more_ready=probe, window=2
    )
    rng = np.random.default_rng(3)
    received = []

    def consume_one():
        received.append(json.loads(next(responses)))

    for _ in range(3):  # strict request -> response lockstep
        requests.put(
            json.dumps(
                {"query": rng.normal(size=served_index.dim).tolist(),
                 "radius": 1.2}
            )
        )
        consumer = threading.Thread(target=consume_one)
        consumer.start()
        consumer.join(timeout=10.0)
        assert not consumer.is_alive(), "interactive client starved"
    requests.put(None)
    assert len(list(responses)) == 0
    assert all("found" in r for r in received)
