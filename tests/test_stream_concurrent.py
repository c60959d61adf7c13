"""The concurrent request loop must be observationally synchronous.

``serve_stream_concurrent`` overlaps in-flight batches behind a reader
thread, but the wire contract is unchanged: same responses as
``serve_stream``, in request order, with ops and top-k acting as
barriers.  These tests replay mixed request scripts through both loops
and require byte-equal response sequences (modulo timing counters in
the stats payload).
"""

import json

import numpy as np
import pytest

from repro.api import Index, IndexSpec
from repro.service.stream import serve_stream, serve_stream_concurrent


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
    for volatile in ("elapsed_seconds", "qps", "batches", "latency", "stages", "gauges"):
        doc.pop(volatile, None)
    return doc


class TestConcurrentLoop:
    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_matches_synchronous_loop_in_order(self, served_index, window):
        lines = _script(served_index.dim)
        served_index.reset_stats()
        sync = list(serve_stream(served_index, lines, batch_size=8))
        served_index.reset_stats()
        concurrent = list(
            serve_stream_concurrent(
                served_index, lines, batch_size=8, window=window
            )
        )
        assert len(sync) == len(concurrent) == len(lines)
        for a, b in zip(sync, concurrent):
            assert _normalise(a) == _normalise(b)

    def test_small_batch_size_exercises_many_inflight_batches(self, served_index):
        lines = _script(served_index.dim, count=50)
        served_index.reset_stats()
        sync = list(serve_stream(served_index, lines, batch_size=2))
        served_index.reset_stats()
        concurrent = list(
            serve_stream_concurrent(served_index, lines, batch_size=2, window=4)
        )
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
        list(serve_stream_concurrent(served_index, lines, batch_size=1, window=4))
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
        list(serve_stream_concurrent(served_index, lines, batch_size=8, window=4))
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
            for r in serve_stream_concurrent(served_index, lines, window=4)
        ]
        assert out[1]["inserted"] == 1
        # The post-insert query must see the point the barrier added.
        assert out[2]["found"] == out[0]["found"] + 1

    def test_window_must_be_positive(self, served_index):
        with pytest.raises(ValueError):
            list(serve_stream_concurrent(served_index, [], window=0))

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
            for r in serve_stream_concurrent(flaky, lines, batch_size=4, window=2)
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
        out = list(serve_stream_concurrent(target, [good], window=2))
        assert len(out) == 1
        assert "found" in json.loads(out[0])

    def test_closing_the_generator_early_stops_the_reader(self, served_index):
        """Abandoning the response stream must not leak a blocked reader.

        The reader thread fills a bounded queue; if the consumer stops
        early the ``finally`` path has to unstick and join it rather
        than leave it pinned on a full queue forever.
        """
        rng = np.random.default_rng(19)
        lines = [
            json.dumps({"query": rng.normal(size=served_index.dim).tolist(),
                        "radius": 1.2})
            for _ in range(3000)  # far more than the inbox bound
        ]
        responses = serve_stream_concurrent(
            served_index, iter(lines), batch_size=8, window=2
        )
        assert "found" in json.loads(next(responses))
        responses.close()  # runs the finally: stop, drain, join

    def test_interactive_client_is_never_starved(self, served_index):
        """A client that sends one request and waits must get its answer.

        Regression: the loop used to drain completed futures only when
        the *next* input line arrived, deadlocking against a
        request/response client.
        """
        import queue
        import threading

        requests: queue.Queue[str | None] = queue.Queue()

        def lines():
            while True:
                item = requests.get()
                if item is None:
                    return
                yield item

        responses = serve_stream_concurrent(
            served_index, lines(), batch_size=8, window=2
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
