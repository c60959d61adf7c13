"""Tail latency under open-loop load — pipes vs TCP, with a replica kill.

The acceptance bars for the networked shard tier, measured with the
open-loop Poisson load generator (:mod:`repro.service.loadgen` — latency
is charged from the *scheduled* arrival, so a stalled server cannot hide
its queue delay, the classic coordinated-omission trap):

* ``pipes`` — the locally spawned worker pool: the baseline tail.
* ``tcp`` — one standalone shard server per slot (``repro.cli
  shard-serve``): the same answers over sockets; records what the frame
  codec and loopback TCP cost at the tail.
* ``tcp_failover`` — one slot backed by **two** replica servers, one of
  which is SIGKILLed mid-run.  The strict contract: **zero failed
  requests** (every in-flight and subsequent read fails over to the
  surviving replica) and the p99/max blip stays inside the fault
  policy's retry budget — ``(max_retries + 1) * recv_deadline`` plus
  scheduling slack — rather than an unbounded stall.

Emits ``BENCH_latency.json`` at the repo root so later PRs can track
the serving-tail trajectory.  The closed-loop yardstick
(``BENCHMARK.json``, ``benchmarks/perf/run.py``) measures everything
else; open-loop p99 and the replica kill are what it does not cover.

Environment knobs: ``REPRO_BENCH_LATENCY_N`` (default 8,000 points),
``REPRO_BENCH_LATENCY_RATE`` (default 120 req/s),
``REPRO_BENCH_LATENCY_DURATION`` (default 3 s per scenario).

Runs under pytest (``pytest benchmarks/bench_latency.py``) or directly
(``PYTHONPATH=src python benchmarks/bench_latency.py``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

from repro.api import Index, IndexSpec
from repro.datasets import mixed_workload
from repro.faults import FaultTolerancePolicy
from repro.service.loadgen import run_loadgen

LATENCY_N = int(os.environ.get("REPRO_BENCH_LATENCY_N", "8000"))
RATE = float(os.environ.get("REPRO_BENCH_LATENCY_RATE", "120"))
DURATION = float(os.environ.get("REPRO_BENCH_LATENCY_DURATION", "3"))
NUM_SHARDS = 2
NUM_TABLES = int(os.environ.get("REPRO_BENCH_TABLES", "20"))
ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_latency.json"
_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: the drill policy every scenario runs under — identical budgets so the
#: three tails are comparable, and tight enough that the failover bar
#: below means something.
POLICY = FaultTolerancePolicy(
    recv_deadline=0.5,
    startup_deadline=30.0,
    max_retries=2,
    backoff_base=0.01,
    backoff_max=0.05,
    breaker_threshold=10,
    breaker_cooldown=30.0,
)

#: worst honest request during the kill: every retry burns a full
#: deadline before the read lands on the surviving replica, plus
#: scheduling/reconnect slack.  The failover scenario's slowest request
#: must stay under this — that is the bounded-blip contract.
P99_BUDGET_MS = (POLICY.max_retries + 1) * POLICY.recv_deadline * 1000 + 1500


def _spawn_shard_server(artifact: str, shards: str | None = None):
    """Launch ``repro.cli shard-serve``; return (process, banner dict)."""
    argv = [sys.executable, "-m", "repro.cli", "shard-serve", "--artifact", artifact]
    if shards is not None:
        argv += ["--shards", shards]
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    if not line:
        proc.wait(timeout=10)
        raise RuntimeError(f"shard-serve exited {proc.returncode} without a banner")
    return proc, json.loads(line)


def _measure(index: Index, seed: int) -> dict:
    doc = run_loadgen(index, rate=RATE, duration=DURATION, seed=seed)
    doc.pop("samples", None)
    return doc


def _run_latency() -> dict:
    points, _queries, radius = mixed_workload(LATENCY_N, num_queries=8, seed=0)
    spec = IndexSpec(
        metric="l2",
        radius=radius,
        num_tables=NUM_TABLES,
        num_shards=NUM_SHARDS,
        execution="processes",
        cost_ratio=6.0,
        seed=0,
    )
    scenarios: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        art = os.path.join(tmp, "idx")
        built = Index.build(points, spec, num_workers=NUM_SHARDS)
        built.save(art)
        built.close()

        # --- pipes: the locally spawned pool is the latency baseline.
        index = Index.open(art, num_workers=NUM_SHARDS, fault_policy=POLICY)
        try:
            scenarios["pipes"] = _measure(index, seed=1)
        finally:
            index.close()

        # --- tcp: one standalone server per worker slot, no replicas.
        servers = [
            _spawn_shard_server(art, shards=str(s)) for s in range(NUM_SHARDS)
        ]
        try:
            index = Index.open(
                art,
                fault_policy=POLICY,
                endpoints=[
                    f"{banner['host']}:{banner['port']}" for _, banner in servers
                ],
            )
            try:
                scenarios["tcp"] = _measure(index, seed=2)
            finally:
                index.close()
        finally:
            for proc, _banner in servers:
                proc.kill()
                proc.wait(timeout=10)

        # --- tcp_failover: one slot, two full-artifact replicas; kill
        # one mid-run and demand zero strict failures.
        proc_a, banner_a = _spawn_shard_server(art)
        proc_b, banner_b = _spawn_shard_server(art)
        try:
            index = Index.open(
                art,
                fault_policy=POLICY,
                endpoints=[
                    f"{banner_a['host']}:{banner_a['port']},"
                    f"{banner_b['host']}:{banner_b['port']}"
                ],
            )
            try:
                killer = threading.Timer(DURATION / 2, proc_a.kill)
                killer.start()
                try:
                    doc = _measure(index, seed=3)
                finally:
                    killer.cancel()
                doc["killed_replica_at_s"] = DURATION / 2
                doc["p99_budget_ms"] = P99_BUDGET_MS
                scenarios["tcp_failover"] = doc
            finally:
                index.close()
        finally:
            for proc in (proc_a, proc_b):
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)

    result = {
        "schema": "repro-latency-bench/1",
        "meta": {
            "n": LATENCY_N,
            "num_shards": NUM_SHARDS,
            "num_tables": NUM_TABLES,
            "radius": radius,
            "rate": RATE,
            "duration": DURATION,
            "recv_deadline": POLICY.recv_deadline,
            "max_retries": POLICY.max_retries,
            "p99_budget_ms": P99_BUDGET_MS,
        },
        "scenarios": scenarios,
    }
    ARTIFACT.write_text(json.dumps(result, indent=2) + "\n")
    for name, doc in scenarios.items():
        latency = doc["latency"]
        print(
            f"{name:>14}: {doc['requests']} requests, "
            f"{doc['failures']} failures, {doc['degraded']} degraded; "
            f"p50 {latency['p50_ms']:.2f}ms p95 {latency['p95_ms']:.2f}ms "
            f"p99 {latency['p99_ms']:.2f}ms max {latency['max_ms']:.2f}ms"
        )
    print(f"wrote {ARTIFACT}")
    return result


try:
    import pytest
except ImportError:  # direct execution without pytest installed
    pytest = None


if pytest is not None:

    @pytest.fixture(scope="module")
    def latency_doc():
        return _run_latency()

    def test_zero_strict_failures_everywhere(latency_doc):
        """Every scenario — including the mid-run kill — answers strictly."""
        for name, doc in latency_doc["scenarios"].items():
            assert doc["failures"] == 0, (name, doc)
            assert doc["degraded"] == 0, (name, doc)
            assert doc["requests"] > 0, (name, doc)

    def test_percentiles_are_ordered(latency_doc):
        for name, doc in latency_doc["scenarios"].items():
            latency = doc["latency"]
            assert (
                latency["p50_ms"] <= latency["p95_ms"]
                <= latency["p99_ms"] <= latency["max_ms"]
            ), (name, latency)

    def test_failover_blip_is_bounded_by_the_retry_budget(latency_doc):
        """The kill may cost a deadline per retry, never an open-ended stall."""
        doc = latency_doc["scenarios"]["tcp_failover"]
        assert doc["latency"]["max_ms"] <= doc["p99_budget_ms"], doc


if __name__ == "__main__":
    result = _run_latency()
    for name, doc in result["scenarios"].items():
        assert doc["failures"] == 0, (name, doc)
        assert doc["degraded"] == 0, (name, doc)
    failover = result["scenarios"]["tcp_failover"]
    assert failover["latency"]["max_ms"] <= failover["p99_budget_ms"], failover
    print(
        f"failover max {failover['latency']['max_ms']:.1f}ms "
        f"<= budget {failover['p99_budget_ms']:.0f}ms: OK"
    )
