"""Shared fixtures: small deterministic datasets and indexes."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.api.facade import _resolve_family_and_k
from repro.core.results import QueryResult, QueryStats, Strategy
from repro.hashing import BitSamplingLSH, PStableLSH, SimHashLSH
from repro.index import CoveringLSHIndex, LSHIndex


def max_examples(default: int) -> int:
    """A property's example budget, capped by ``HYPOTHESIS_MAX_EXAMPLES``.

    Fuzz properties pass ``@settings(max_examples=max_examples(n))``, so
    one environment variable can bound how long they run locally; no CI
    workflow sets it, so CI runs every property at its default ``n``.
    """
    cap = os.environ.get("HYPOTHESIS_MAX_EXAMPLES")
    return default if cap is None else min(default, int(cap))


def reference_index(points, spec, seed=None):
    """The dict-layout ``LSHIndex`` of a spec's served index.

    Built here, independently of the served build, from the family and
    ``k`` the spec resolves to and the spec's seed (or ``seed``, a
    shard's spawned stream): the reference every bit-identity check
    compares a served index against.
    """
    seed = spec.seed if seed is None else seed
    sketch = dict(
        hll_precision=spec.hll_precision,
        hll_seed=spec.hll_seed,
        lazy_threshold=spec.lazy_threshold,
    )
    if spec.variant == "covering":
        index = CoveringLSHIndex(
            dim=points.shape[1], radius=int(spec.radius), seed=seed, **sketch
        )
    else:
        family, k = _resolve_family_and_k(spec, points.shape[1], seed=seed)
        index = LSHIndex(
            family, k=k, num_tables=spec.num_tables, num_probes=spec.num_probes, **sketch
        )
    return index.build(points)


def merge_radius_results(shard_gids, shard_results, radius) -> QueryResult:
    """One query's per-shard local radius answers merged into the global one.

    The per-query reference the pool's batch merge
    (``WorkerPool._merge_blocks``) is checked against, written
    independently of it: the shards partition the dataset, so the global
    answer is the disjoint union of the local answers with shard-local
    ids translated through the id maps, stats summed and the strategy
    labelled ``HYBRID``.  An untracked (-1) count anywhere poisons its
    sum, and the merged answer is exact only if every shard's part was.
    """
    ids = np.concatenate([gids[res.ids] for gids, res in zip(shard_gids, shard_results)])
    distances = np.concatenate([res.distances for res in shard_results])
    order = np.argsort(ids, kind="stable")
    exact = [res.stats.exact_candidates for res in shard_results]
    probes = [res.stats.probes_used for res in shard_results]
    stats = QueryStats(
        num_collisions=sum(res.stats.num_collisions for res in shard_results),
        estimated_candidates=float(sum(res.stats.estimated_candidates for res in shard_results)),
        exact_candidates=sum(exact) if all(e >= 0 for e in exact) else -1,
        estimated_lsh_cost=float(sum(res.stats.estimated_lsh_cost for res in shard_results)),
        linear_cost=float(sum(res.stats.linear_cost for res in shard_results)),
        strategy=Strategy.HYBRID,
        probes_used=sum(probes) if all(p >= 0 for p in probes) else -1,
        exact=all(res.stats.exact for res in shard_results),
    )
    return QueryResult(ids=ids[order], distances=distances[order], radius=radius, stats=stats)


def unpack_block(block, radius) -> list[QueryResult]:
    """One shard's flat radius-reply block (``shard_server._pack_block``)
    back into per-query shard-local results, ids widened to ``int64``."""
    counts, ids, distances, stats = block
    ids = ids.astype(np.int64)
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    strategies = tuple(Strategy)
    return [
        QueryResult(
            ids=ids[bounds[i]:bounds[i + 1]],
            distances=distances[bounds[i]:bounds[i + 1]],
            radius=radius,
            stats=QueryStats(
                num_collisions=int(nc),
                estimated_candidates=float(est),
                exact_candidates=int(exact_cands),
                estimated_lsh_cost=float(lsh_cost),
                linear_cost=float(lin_cost),
                strategy=strategies[int(strategy)],
                probes_used=int(probes),
                exact=bool(exact),
            ),
        )
        for i, (nc, est, exact_cands, lsh_cost, lin_cost, strategy, probes, exact)
        in enumerate(stats.tolist())
    ]


def shard_answers(engine, shard, queries, radius) -> list[QueryResult]:
    """Shard ``shard``'s *local* radius answers (ids are shard-local).

    A worker pool is sent the radius op for that one shard, to the slot
    that owns it; a single engine is shard 0 of 1 and answers itself.
    """
    if not hasattr(engine, "_request"):
        return engine.query_batch(queries, radius)
    reply = engine._request(
        shard % engine.num_workers, ("radius", [shard], queries, radius)
    )
    return unpack_block(reply[shard], radius)


def shard_states(index) -> list:
    """The :class:`~repro.service.shard_server.ShardState` behind each
    inline endpoint of an in-process sharded index's worker pool."""
    return [row[0].transport.state for row in index.engine._eps]


def served_shards(index) -> list:
    """The frozen indexes an in-process ``Index`` serves, in shard order:
    a single index's own, or its inline endpoints' shards."""
    if index.num_shards == 1:
        return [index.engine.index]
    shards = {}
    for state in shard_states(index):
        shards.update(state.indexes)
    return [shards[s] for s in range(index.num_shards)]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def gaussian_points(rng) -> np.ndarray:
    """600 points in R^16: two tight clusters plus scattered noise."""
    cluster_a = rng.normal(loc=0.0, scale=0.3, size=(250, 16))
    cluster_b = rng.normal(loc=3.0, scale=0.3, size=(250, 16))
    noise = rng.uniform(-6.0, 6.0, size=(100, 16))
    return np.concatenate([cluster_a, cluster_b, noise])


@pytest.fixture
def binary_points(rng) -> np.ndarray:
    """400 binary vectors in {0,1}^32 clustered around two templates."""
    template_a = rng.integers(0, 2, size=32)
    template_b = rng.integers(0, 2, size=32)
    flips = rng.random(size=(400, 32)) < 0.08
    base = np.where(np.arange(400)[:, None] < 200, template_a, template_b)
    return (base ^ flips).astype(np.uint8)


@pytest.fixture
def l2_index(gaussian_points) -> LSHIndex:
    family = PStableLSH(dim=16, w=2.0, p=2, seed=7)
    return LSHIndex(family, k=4, num_tables=10, hll_precision=7, hll_seed=3).build(
        gaussian_points
    )


@pytest.fixture
def cosine_index(gaussian_points) -> LSHIndex:
    family = SimHashLSH(dim=16, seed=7)
    return LSHIndex(family, k=6, num_tables=10, hll_precision=7, hll_seed=3).build(
        gaussian_points
    )


@pytest.fixture
def hamming_index(binary_points) -> LSHIndex:
    family = BitSamplingLSH(dim=32, seed=7)
    return LSHIndex(family, k=8, num_tables=10, hll_precision=6, hll_seed=3).build(
        binary_points
    )
