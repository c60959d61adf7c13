"""One benchmark run: set-up, the fixed op schedule, verification, metrics.

The schedule is a count of cycles, never a timed loop.  A query cycle is

    yardstick (two oracle scans of the cycle's 64 queries)
    -> Index.query(QuerySpec(64 x d))                      one batch op
    -> Index.query(QuerySpec(vector)) x singles            single ops
    -> every 4th cycle: the pure-strategy pair on the same slice
       (and, under an adaptive budget, the batch again with adaptive=False)
    -> where the workload writes beside its reads: Index.insert(32 x d)

and a tail cycle (workloads that insert after their reads) is one
yardstick followed by four 32-point inserts.  Every timing is divided by
the scan measured in the same cycle before it is aggregated.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.api import AdaptivePolicy, Index, IndexSpec, QuerySpec
from repro.service.shard_server import open_shard_state

from layers import LayerReplay
from oracle import Oracle, Truth
from strategies import PureStrategies
from workloads import (
    BASE_SECONDS,
    BATCH,
    COMPARE_EVERY,
    INSERT,
    N,
    RADIUS,
    TAIL_INSERTS,
    TRACE_EVERY,
    Landscape,
    Workload,
)

#: unrecorded cycles before measurement: lazy state (prepared norms,
#: first-touch pages, worker imports) is paid here, not in the metrics.
WARMUP_CYCLES = 2
#: stop scheduling query cycles once the measured phase has taken this
#: multiple of ``--seconds``: the driver caps a run (and all runs
#: together), and a partial run still reports medians over what it did.
OVERRUN_FACTOR = 2.0
P95_BLOCKS = 5


@dataclass
class Samples:
    """Raw per-cycle and per-op measurements of the recorded cycles."""

    scan: list[float] = field(default_factory=list)
    batch_seconds: list[float] = field(default_factory=list)
    batch_scans: list[float] = field(default_factory=list)
    single_seconds: list[float] = field(default_factory=list)
    single_scans: list[float] = field(default_factory=list)
    insert_seconds: list[float] = field(default_factory=list)
    insert_scans: list[float] = field(default_factory=list)
    pure_lsh_scans: list[float] = field(default_factory=list)
    pure_linear_scans: list[float] = field(default_factory=list)
    hybrid_over_best: list[float] = field(default_factory=list)
    budget_over_fixed: list[float] = field(default_factory=list)
    # exact counts over the measured Index.query answers
    queries: int = 0
    linear_rows: int = 0
    candidates: int = 0
    probes: int = 0
    budget_candidates: int = 0
    fixed_candidates: int = 0
    recall_sum: float = 0.0
    recall_queries: int = 0


class Run:
    """State of one ``--workload NAME --seed S`` run."""

    def __init__(
        self, workload: Workload, seed: int, seconds: float, scale: float, trace: bool
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        factor = seconds / BASE_SECONDS * scale
        self.full_size = factor >= 1.0
        self.cycles = max(TRACE_EVERY * 2, round(workload.cycles * factor))
        self.tail_cycles = (
            max(2, round(workload.tail_cycles * factor)) if workload.tail_cycles else 0
        )
        self.landscape = Landscape(workload.groups, seed)
        self.samples = Samples()
        self.attempted = 0
        self.failed = 0
        self.failures_logged = 0
        self.index: Index | None = None
        self.pure_twin: Index | None = None
        self.shard_twins = None
        self.replay: LayerReplay | None = None
        self.setup_s = float("nan")
        self.memory: dict[str, float] = {}
        self.cut_short = False
        #: perf_counter at the start of the latest op (root span start).
        self.last_start = 0.0

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------
    def spec(self) -> IndexSpec:
        policy = None
        if self.workload.budget is not None:
            policy = AdaptivePolicy(target_candidates=self.workload.budget)
        return IndexSpec(
            metric="l2",
            radius=RADIUS,
            num_tables=50,
            delta=0.1,
            hll_precision=7,
            cost_ratio=6.0,
            cache_size=0,
            adaptive=policy,
            seed=self.seed,
            **self.workload.spec,
        )

    def setup(self) -> None:
        data = self.landscape.draw(N)
        spec = self.spec()
        inserted = INSERT * (
            (self.cycles + WARMUP_CYCLES) * self.workload.inserts_per_cycle
            + self.tail_cycles * TAIL_INSERTS
        )
        self.oracle = Oracle(data, RADIUS, capacity=N + inserted)

        # setup_s: the faster of two consecutive builds; the first is
        # closed, the second serves the run.
        started = time.perf_counter()
        first = Index.build(data, spec)
        first_s = time.perf_counter() - started
        first.close()
        del first
        started = time.perf_counter()
        self.index = Index.build(data, spec)
        self.setup_s = min(first_s, time.perf_counter() - started)
        self.policy = spec.adaptive

        self.pooled = self.index.execution == "processes"
        if self.pooled:
            pool = self.index.engine
            model = self.index.cost_model
            # The workers' own open path, in-process: mmap'd twins of
            # every shard, for the memory report and the layer replay.
            self.shard_twins = open_shard_state(
                pool.path, list(range(pool.num_shards)), spec.to_dict(),
                model.alpha, model.beta,
            )
            shard_indexes = [
                self.shard_twins.indexes[s] for s in range(pool.num_shards)
            ]
            # The pure strategies need one in-process index of the same
            # spec; it is built after setup_s stops and mirrors every
            # insert untimed.
            self.pure_twin = Index.build(
                data, spec.with_overrides(num_shards=1, execution="threads")
            )
            pure_index = self.pure_twin.engine.index
            dedup = self.pure_twin.engine.dedup
            # Mirrored inserts must not leave compaction threads running
            # beside the measured ops, and the big twin compacts inline
            # (untimed, ~0.5 s) four times less often than a shard does.
            for index in (pure_index, *shard_indexes):
                index.background_refreeze = False
            pure_index.refreeze_threshold *= 4
            if not self.trace:
                self.shard_twins = None
        else:
            shard_indexes = [self.index.engine.index]
            pure_index = self.index.engine.index
            dedup = self.index.engine.dedup
        self.pure = PureStrategies(pure_index, dedup)

        reports = [index.memory_report() for index in shard_indexes]
        n = sum(index.n for index in shard_indexes)
        self.memory = {
            "index_bytes_per_point": sum(r["total"] for r in reports) / n,
            "index.bytes_points": sum(r["points"] for r in reports) / n,
            "index.bytes_members": sum(r["bucket_ids"] for r in reports) / n,
            "index.bytes_keys_offsets": sum(r["bucket_keys"] for r in reports) / n,
            "index.bytes_sketches": sum(r["sketches"] for r in reports) / n,
        }
        if self.trace:
            self.replay = LayerReplay(self)
        # Everything built so far is long-lived: keep the collector from
        # re-scanning it (the dict layout alone is ~10^6 objects).
        gc.collect()
        gc.freeze()

    def close(self) -> None:
        for index in (self.index, self.pure_twin):
            if index is not None:
                index.close()
        self.index = self.pure_twin = None

    # ------------------------------------------------------------------
    # Ops and verification
    # ------------------------------------------------------------------
    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failures_logged < 5:
            self.failures_logged += 1
            print(f"FAILED OP: {what}", file=sys.stderr)

    def call(self, what: str, fn):
        """Run one program op; ``(seconds, result-or-None)``."""
        self.attempted += 1
        started = self.last_start = time.perf_counter()
        try:
            result = fn()
        except Exception:
            elapsed = time.perf_counter() - started
            self.fail(f"{what} raised\n{traceback.format_exc()}")
            return elapsed, None
        return time.perf_counter() - started, result

    def judge(self, what: str, outcomes, truth: Truth, first_row: int = 0) -> list | None:
        """Check one answered op; ``[(found, expected), ...]`` or None if it failed."""
        rows = []
        for i, outcome in enumerate(outcomes):
            if outcome.degraded:
                self.fail(f"{what}: degraded answer for row {i}")
                return None
            valid, found, expected = truth.judge(first_row + i, outcome.ids)
            if not valid:
                self.fail(f"{what}: row {i} names an id beyond the radius (or unordered)")
                return None
            rows.append((found, expected))
        return rows

    def account(self, outcomes, judged: list) -> None:
        s = self.samples
        for outcome, (found, expected) in zip(outcomes, judged):
            s.queries += 1
            s.linear_rows += outcome.strategy == "linear"
            s.candidates += max(outcome.candidates_examined, 0)
            s.probes += max(outcome.probes_used, 0)
            if expected:
                s.recall_sum += found / expected
                s.recall_queries += 1

    def insert(self, scan: float, recorded: bool, op_number: int) -> None:
        """One 32-point insert, mirrored into the oracle and the twins."""
        points = self.landscape.draw(INSERT)
        expected_ids = np.arange(self.oracle.n, self.oracle.n + INSERT)
        level = self.replay.insert_level(op_number, recorded) if self.replay else "api"
        target = self.index
        if level != "api":  # the traced run's direct entry points
            target = target.engine if level == "service" else target.engine.index
        seconds, ids = self.call(f"insert via {level}", lambda: target.insert(points))
        if ids is not None and not np.array_equal(ids, expected_ids):
            self.fail(f"insert returned ids {ids[:3]}..., expected {expected_ids[:3]}...")
        self.oracle.extend(points)
        if self.pure_twin is not None:
            self.pure_twin.insert(points)
        if self.replay:
            self.replay.mirror_insert(points, level, seconds, recorded)
        if recorded and level == "api":
            self.samples.insert_seconds.append(seconds)
            self.samples.insert_scans.append(seconds / INSERT / scan)

    # ------------------------------------------------------------------
    # Cycles
    # ------------------------------------------------------------------
    def query_cycle(self, cycle: int, recorded: bool) -> None:
        w = self.workload
        s = self.samples
        index = self.index
        batch = self.landscape.draw(BATCH)
        singles = self.landscape.draw(w.singles)
        compare = recorded and cycle % COMPARE_EVERY == 0
        # Warm-up cycle 0 is replayed too, so the replay's own lazy
        # state is paid before the first recorded span.
        traced = self.replay is not None and cycle % TRACE_EVERY == 0

        scan, truth = self.oracle.timed_scan(batch)

        batch_s, outcomes = self.call("batch query", lambda: index.query(QuerySpec(batch)))
        judged = None if outcomes is None else self.judge("batch query", outcomes, truth)
        if recorded and judged is not None:
            s.scan.append(scan)
            s.batch_seconds.append(batch_s)
            s.batch_scans.append(batch_s / BATCH / scan)
            self.account(outcomes, judged)
        if traced and judged is not None:
            self.replay.batch(cycle, batch, batch_s)

        single_truth = self.oracle.truth(singles)
        for i, vector in enumerate(singles):
            single_s, outcome = self.call(
                "single query", lambda: index.query(QuerySpec(vector))
            )
            if outcome is None:
                continue
            judged_one = self.judge("single query", [outcome], single_truth, first_row=i)
            if recorded and judged_one is not None:
                s.single_seconds.append(single_s)
                s.single_scans.append(single_s / scan)
                self.account([outcome], judged_one)
            if traced:
                self.replay.single(cycle, vector, single_s)

        if compare and judged is not None:
            self.compare(batch, batch_s, scan, truth, outcomes)
        for i in range(w.inserts_per_cycle):
            self.insert(scan, recorded, cycle * w.inserts_per_cycle + i)

    def compare(self, batch, batch_s: float, scan: float, truth: Truth, outcomes) -> None:
        """The hybrid batch against both pure strategies on the same slice."""
        s = self.samples
        started = time.perf_counter()
        lsh_answers = self.pure.lsh_batch(batch, RADIUS)
        lsh_s = time.perf_counter() - started
        started = time.perf_counter()
        linear_answers = self.pure.linear_batch(batch, RADIUS)
        linear_s = time.perf_counter() - started
        for name, answers in (("pure LSH", lsh_answers), ("pure linear", linear_answers)):
            self.attempted += 1
            self.judge(name, answers, truth)
        s.pure_lsh_scans.append(lsh_s / BATCH / scan)
        s.pure_linear_scans.append(linear_s / BATCH / scan)
        s.hybrid_over_best.append(batch_s / min(lsh_s, linear_s))
        if self.policy is not None:
            fixed_s, fixed = self.call(
                "fixed fan-out batch",
                lambda: self.index.query(QuerySpec(batch, adaptive=False)),
            )
            if fixed is not None and self.judge("fixed fan-out batch", fixed, truth):
                s.budget_over_fixed.append(batch_s / fixed_s)
                s.budget_candidates += sum(max(o.candidates_examined, 0) for o in outcomes)
                s.fixed_candidates += sum(max(o.candidates_examined, 0) for o in fixed)

    def tail_cycle(self, cycle: int) -> None:
        scan, _truth = self.oracle.timed_scan(self.landscape.draw(BATCH))
        for i in range(TAIL_INSERTS):
            self.insert(scan, True, cycle * TAIL_INSERTS + i)

    def verify_inserted(self) -> None:
        """The last inserted points must find themselves (distance 0)."""
        count = min(BATCH, self.oracle.n - N)
        if count <= 0:
            return
        first_id = self.oracle.n - count
        points = self.oracle.points[first_id:]
        _s, outcomes = self.call(
            "read-back of inserted points", lambda: self.index.query(QuerySpec(points))
        )
        if outcomes is None:
            return
        if self.judge("read-back of inserted points", outcomes, self.oracle.truth(points)):
            missing = [
                first_id + i for i, o in enumerate(outcomes) if first_id + i not in o.ids
            ]
            if missing:
                self.fail(f"inserted points {missing[:3]}... do not find themselves")

    def execute(self) -> None:
        deadline = time.perf_counter() + OVERRUN_FACTOR * self.seconds
        for cycle in range(WARMUP_CYCLES):
            self.query_cycle(cycle, recorded=False)
        if self.replay:
            self.replay.reset()
        for cycle in range(self.cycles):
            if time.perf_counter() > deadline:
                self.cut_short = True
                print(
                    f"WARNING: stopped after {cycle} of {self.cycles} cycles "
                    f"({OVERRUN_FACTOR:g} x --seconds spent); medians cover those",
                    file=sys.stderr,
                )
                break
            self.query_cycle(cycle, recorded=True)
        for cycle in range(self.tail_cycles):
            self.tail_cycle(cycle)
        self.verify_inserted()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def service_counters(self) -> dict[str, float]:
        """Exact counters read from outside through ``stats_snapshot()``."""
        index = self.index
        engine_index = getattr(index.engine, "index", None)
        if hasattr(engine_index, "wait_for_refreeze"):
            engine_index.wait_for_refreeze()
        doc = index.stats_snapshot()
        gauges = doc["gauges"]
        out = {
            "service.failed_ops": float(
                doc["worker_timeouts"] + doc["worker_retries"]
                + doc["worker_respawns"] + doc["degraded_responses"]
            ),
        }
        if "workers" in doc:
            workers = doc["workers"]["aggregate"]
            gauges = workers["gauges"]
            linear = workers.get("strategy_linear", 0)
            decided = linear + workers.get("strategy_lsh", 0)
            # Merged answers are labelled "hybrid"; the shard-local
            # dispatch decisions live in the workers' own counters.
            out["core.linear_fraction"] = linear / decided if decided else 0.0
        out["index.refreezes"] = float(gauges.get("refreeze_generations", 0.0))
        out["index.refreeze_s"] = float(gauges.get("refreeze_seconds_total", 0.0))
        out["index.refreezes_per_shard"] = out["index.refreezes"] / index.num_shards
        return out

    def end_to_end(self) -> dict[str, float]:
        s = self.samples
        return {
            "setup_s": self.setup_s,
            "batch_query_scans": _median(s.batch_scans),
            "single_p50_scans": _percentile(s.single_scans, 50),
            "single_p95_scans": _steady_p95(s.single_scans),
            "insert_point_scans": _median(s.insert_scans),
            "hybrid_over_best_pure": _median(s.hybrid_over_best),
            "recall": s.recall_sum / s.recall_queries if s.recall_queries else float("nan"),
            "index_bytes_per_point": self.memory["index_bytes_per_point"],
        }

    def exact_counts(self) -> dict[str, float]:
        s = self.samples
        queries = max(s.queries, 1)
        counts = {
            "core.linear_fraction": s.linear_rows / queries,
            "core.candidates_per_query": s.candidates / queries,
            "core.probes_per_query": s.probes / queries,
            "core.budget_candidates_ratio": (
                s.budget_candidates / s.fixed_candidates if s.fixed_candidates else 1.0
            ),
        }
        counts.update(self.service_counters())
        return counts

    def per_layer(self, counts: dict[str, float]) -> dict[str, float]:
        """Every ``--trace 1`` metric; ``counts`` is :meth:`exact_counts`."""
        s = self.samples
        layer = {
            "api.scan_us": _median(s.scan) * 1e6,
            # throughputs are work over total time, bursts included
            "api.batch_qps_raw": _rate(BATCH, s.batch_seconds),
            "api.single_p50_ms_raw": _percentile(s.single_seconds, 50) * 1e3,
            "api.single_p95_ms_raw": _steady_p95(s.single_seconds) * 1e3,
            "api.single_p99_ms_raw": _percentile(s.single_seconds, 99) * 1e3,
            "api.insert_pps_raw": _rate(INSERT, s.insert_seconds),
            "core.pure_lsh_scans": _median(s.pure_lsh_scans),
            "core.pure_linear_scans": _median(s.pure_linear_scans),
            "core.budget_over_fixed": _median(s.budget_over_fixed) if s.budget_over_fixed else 1.0,
        }
        layer.update({k: v for k, v in self.memory.items() if k.startswith("index.")})
        layer.update(counts)
        layer.update(self.replay.metrics())
        return layer

    def check_guards(self, counts: dict[str, float]) -> list[str]:
        """Messages for every guard that tripped (full-size runs only)."""
        if not self.full_size or self.cut_short:
            return []
        tripped = []
        for guard in self.workload.guards:
            value = counts[guard.metric]
            if not guard.low <= value <= guard.high:
                tripped.append(
                    f"workload {self.workload.name} no longer exercises "
                    f"{guard.claim}: {guard.metric} = {value:.4g}, "
                    f"expected [{guard.low:g}, {guard.high:g}]"
                )
        return tripped


def _median(values: list[float]) -> float:
    return float(np.median(values)) if values else float("nan")


def _rate(items_per_op: int, seconds: list[float]) -> float:
    return items_per_op * len(seconds) / sum(seconds) if seconds else float("nan")


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def _steady_p95(values: list[float]) -> float:
    """p95 within each fifth of the run, median over the fifths.

    A burst from a neighbour on the shared host spoils one or two fifths
    of the samples, not the number; a slower program moves every fifth.
    Each fifth keeps >= 12 samples beyond its p95 at the reference size.
    """
    if len(values) < P95_BLOCKS:
        return _percentile(values, 95)
    blocks = np.array_split(np.asarray(values), P95_BLOCKS)
    return float(np.median([np.percentile(block, 95) for block in blocks]))
