"""The four workloads: landscape, index spec, cycle shape, guards.

Everything a run feeds the program is a pure function of ``--seed``:
the data, every query slice and every inserted point are fresh draws
from one seeded :class:`Landscape`, stratified so that every slice
carries the same mix of dense-cluster, mid-cluster and background
points.  Nothing here imports ``repro``; the harness turns ``spec``
into an ``IndexSpec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DIM = 24
N = 20_000
#: The Fig. 1 radius of ``repro.evaluation.throughput.mixed_workload``:
#: it spans a whole cluster, so cluster queries report hundreds to
#: thousands of neighbours and background queries none.
RADIUS = 0.25 * math.sqrt(2.0 * DIM) * 1.2
SIDE = 10.0

BATCH = 64
INSERT = 32
#: insert ops per tail cycle (each tail cycle measures one scan first).
TAIL_INSERTS = 4
#: the pure-strategy pair (and the fixed-fan-out re-run) every Nth cycle.
COMPARE_EVERY = 4
#: the layer replay of ``--trace 1`` every Nth cycle.
TRACE_EVERY = 8
#: ``cycles`` below are sized for this many measured seconds on the
#: 2-core reference host; ``--seconds`` rescales them linearly.
BASE_SECONDS = 16

#: (share of points, number of clusters, spread); 0 clusters = uniform
#: background over the hypercube.  MIXED is the Fig. 1 landscape: one
#: tight cluster whose queries go linear, five mid clusters that are
#: collision-heavy LSH, a uniform background.  SPARSE is many 40-point
#: clusters.  Both carry a small share of *wide* clusters (spread 0.28:
#: pairwise distances straddle the radius) — the only queries whose
#: neighbours sit near the boundary, so ``recall`` is not trivially 1.
MIXED = ((0.30, 1, 0.08), (0.45, 5, 0.10), (0.05, 4, 0.28), (0.20, 0, 0.0))
SPARSE = ((0.72, 360, 0.10), (0.08, 40, 0.28), (0.20, 0, 0.0))


class Landscape:
    """Seeded source of points with a fixed stratum mix per draw."""

    def __init__(self, groups: tuple, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._shares = [share for share, _, _ in groups]
        self._groups = []
        for _, clusters, spread in groups:
            centers = (
                self._rng.uniform(0.0, SIDE, size=(clusters, DIM)) if clusters else None
            )
            self._groups.append({"centers": centers, "spread": spread, "cursor": 0})

    def _apportion(self, count: int) -> list[int]:
        """Largest-remainder split of ``count`` by stratum share."""
        exact = [share * count for share in self._shares]
        counts = [int(x) for x in exact]
        by_remainder = sorted(
            range(len(exact)), key=lambda i: (counts[i] - exact[i], i)
        )
        for i in by_remainder[: count - sum(counts)]:
            counts[i] += 1
        return counts

    def draw(self, count: int) -> np.ndarray:
        """``count`` fresh points, strata apportioned, clusters round-robin."""
        parts = []
        for group, c in zip(self._groups, self._apportion(count)):
            centers = group["centers"]
            if centers is None:
                parts.append(self._rng.uniform(0.0, SIDE, size=(c, DIM)))
                continue
            which = (group["cursor"] + np.arange(c)) % centers.shape[0]
            group["cursor"] += c
            noise = self._rng.standard_normal(size=(c, DIM))
            parts.append(centers[which] + group["spread"] * noise)
        points = np.concatenate(parts)
        return points[self._rng.permutation(count)]


@dataclass(frozen=True)
class Guard:
    """An exact count that must stay in range for the workload to mean
    what ``why`` says; wide enough to hold for any seed."""

    metric: str
    low: float
    high: float
    claim: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    groups: tuple
    #: IndexSpec fields on top of the common ones (metric, radius, seed).
    spec: dict
    #: single queries per cycle (beside the one 64-query batch).
    singles: int
    #: measured query cycles at BASE_SECONDS.
    cycles: int
    #: 32-point inserts in every query cycle (0: tail phase only).
    inserts_per_cycle: int
    #: insert-only cycles after the query cycles, at BASE_SECONDS.
    tail_cycles: int
    #: AdaptivePolicy.target_candidates; None = no adaptive policy.
    budget: int | None = None
    guards: tuple[Guard, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mixed_batch",
            why=(
                "Fig. 1 landscape on one frozen index: a third of the queries are "
                "linear-bound, the rest collision-heavy LSH; core, distances and "
                "index gather do the work, api/service almost none"
            ),
            groups=MIXED,
            spec={"layout": "frozen"},
            singles=16,
            cycles=135,
            inserts_per_cycle=0,
            tail_cycles=24,
            guards=(
                Guard("core.linear_fraction", 0.10, 0.60,
                      "a mix of linear-bound and LSH-bound queries"),
            ),
        ),
        Workload(
            name="sparse_single",
            why=(
                "many 40-point clusters, default dict layout, mostly single queries: "
                "every query is a cheap LSH hit, so hashing, HLL merge and the "
                "per-call envelope dominate; a linear-scan change must not move it"
            ),
            groups=SPARSE,
            spec={},
            singles=48,
            cycles=200,
            inserts_per_cycle=0,
            tail_cycles=24,
            guards=(
                Guard("core.linear_fraction", 0.0, 0.05,
                      "queries that never need the linear scan"),
            ),
        ),
        Workload(
            name="probe_budget",
            why=(
                "mixed landscape on frozen multi-probe under an adaptive candidate "
                "budget: the one workload where index.lookup_batch_adaptive decides "
                "the batch time, against the fixed fan-out on the same slice"
            ),
            groups=MIXED,
            spec={"layout": "frozen", "variant": "multiprobe", "num_probes": 2},
            singles=16,
            cycles=105,
            inserts_per_cycle=0,
            tail_cycles=24,
            budget=N // 100,
            guards=(
                Guard("core.budget_candidates_ratio", 0.0, 0.8,
                      "a budget that trims the candidate sets"),
            ),
        ),
        Workload(
            name="shard_procs_rw",
            why=(
                "two frozen shards in two worker processes over pipes, reads and two "
                "32-point inserts every cycle: the only workload service (framing, "
                "round trip, merge) dominates, with re-freezes beside the reads"
            ),
            groups=MIXED,
            spec={"layout": "frozen", "num_shards": 2, "execution": "processes"},
            singles=16,
            cycles=80,
            inserts_per_cycle=2,
            tail_cycles=0,
            guards=(
                Guard("index.refreezes_per_shard", 2.0, math.inf,
                      "background re-freezes beside the reads"),
                Guard("service.failed_ops", 0.0, 0.0,
                      "a healthy worker pool"),
            ),
        ),
    )
}
