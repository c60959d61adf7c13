"""Serving tour: one spec-driven ``Index`` facade for the whole stack.

Builds a mixed workload (dense clusters + uniform background — the
landscape of the paper's Figure 1), then walks the serving subsystem
through the :class:`repro.Index` facade:

1. a batched single index answering 200 queries in one
   :class:`~repro.QuerySpec`, bit-identical to the sequential loop —
   then the same index on the **frozen CSR layout**
   (``layout="frozen"``: contiguous bucket arrays, vectorised sketch
   merging, zero per-bucket Python objects), still bit-identical;
2. a 4-shard index built from the *same spec document* plus
   ``num_shards=4``, with exact global top-k through the same
   ``query`` method;
3. live inserts that every later query sees immediately;
4. a cache-fronted index (``cache_size`` in the spec) absorbing a
   repeat-heavy query stream — inserts only evict the touched shard's
   entries;
5. save / reopen round-trip: the persisted index answers identically.

Run with::

    PYTHONPATH=src python examples/serving_throughput.py
"""

import tempfile
import time

import numpy as np

from repro import Index, IndexSpec, QuerySpec
from repro.datasets import mixed_workload

N, NUM_QUERIES = 8_000, 200

points, queries, radius = mixed_workload(N, num_queries=NUM_QUERIES, seed=7)
spec = IndexSpec(metric="l2", radius=radius, cost_ratio=6.0, seed=1)
print(f"workload: n = {N}, d = {points.shape[1]}, r = {radius:.3g}, "
      f"{NUM_QUERIES} queries")

# -- 1. batched facade vs the sequential loop ---------------------------
index = Index.build(points, spec)
started = time.perf_counter()
sequential = [index.query(QuerySpec(q)) for q in queries]
seq_seconds = time.perf_counter() - started

started = time.perf_counter()
batched = index.query(QuerySpec(queries))
bat_seconds = time.perf_counter() - started

assert all(
    np.array_equal(s.ids, b.ids) and np.array_equal(s.distances, b.distances)
    for s, b in zip(sequential, batched)
)
strategies = [r.stats.strategy.value for r in batched]
print(f"sequential: {NUM_QUERIES / seq_seconds:7.0f} qps")
print(f"batched   : {NUM_QUERIES / bat_seconds:7.0f} qps "
      f"({seq_seconds / bat_seconds:.1f}x, identical answers, "
      f"{strategies.count('linear')}/{NUM_QUERIES} went linear)")

# -- 1b. the frozen CSR layout: same answers, contiguous arrays ---------
frozen = Index.build(points, spec.with_overrides(layout="frozen"))
frozen.query(QuerySpec(queries[:2]))  # warm
started = time.perf_counter()
frozen_batched = frozen.query(QuerySpec(queries))
fz_seconds = time.perf_counter() - started
assert all(
    np.array_equal(s.ids, f.ids) and np.array_equal(s.distances, f.distances)
    for s, f in zip(sequential, frozen_batched)
)
print(f"frozen    : {NUM_QUERIES / fz_seconds:7.0f} qps "
      f"({seq_seconds / fz_seconds:.1f}x, identical answers, "
      f"CSR arrays, no per-bucket objects)")

# -- 2. sharded index from the same spec + exact top-k ------------------
sharded = Index.build(points, spec.with_overrides(num_shards=4))
started = time.perf_counter()
sharded.query(QuerySpec(queries))
print(f"sharded   : {NUM_QUERIES / (time.perf_counter() - started):7.0f} qps "
      f"(K = 4, shard sizes {sharded.engine.shard_sizes()})")

topk = sharded.query(QuerySpec(queries[0], k=5))
print(f"top-5 of query 0: ids {topk.ids.tolist()}, "
      f"kth distance {topk.radius:.3g}")

# -- 3. inserts are visible immediately ---------------------------------
new_ids = sharded.insert(queries[:3] + 1e-4)
hits = [int(new_id in sharded.query(QuerySpec(q)).ids)
        for new_id, q in zip(new_ids, queries[:3])]
print(f"inserted {len(new_ids)} points -> found by the next query: "
      f"{sum(hits)}/{len(hits)}")

# -- 4. cache-fronted sharded serving under a repeat-heavy stream -------
served = Index.build(points, spec.with_overrides(num_shards=4, cache_size=4096))
rng = np.random.default_rng(0)
stream = queries[rng.integers(0, 20, size=500)]  # hot set of 20 queries
for start in range(0, len(stream), 50):          # arrives in micro-batches
    served.query(QuerySpec(stream[start : start + 50]))
served.insert(queries[:1] + 5e-4)                # evicts ONE shard's partials
served.query(QuerySpec(stream[:50]))             # 3 of 4 shards still cached
stats = served.stats
saved = stats.cache_hits + stats.deduplicated
print(f"service   : {stats.queries_served} served in {stats.batches} batches, "
      f"{saved} without engine work ({stats.cache_hits} cache hits + "
      f"{stats.deduplicated} in-batch duplicates), "
      f"{stats.qps:.0f} qps including cache")

# -- 5. persistence: save, reopen, answers are bit-identical ------------
with tempfile.TemporaryDirectory() as tmp:
    path = f"{tmp}/serving-index"
    sharded.save(path)
    reopened = Index.open(path)
    a = sharded.query(QuerySpec(queries[:50]))
    b = reopened.query(QuerySpec(queries[:50]))
    assert all(
        np.array_equal(x.ids, y.ids) and np.array_equal(x.distances, y.distances)
        for x, y in zip(a, b)
    )
    print(f"persisted : {reopened!r} reopened from disk, identical answers")
