"""Adaptive execution tour: estimates-driven budgets through one facade.

Builds the benchmark's mixed workload (a dominant tight cluster that
dispatches to linear search, collision-heavy mid clusters, uniform
background), then walks the adaptive layer end to end:

1. a fixed fan-out multi-probe index vs the *same spec* under a
   ``target_candidates`` budget — the budget answers with an id-subset
   of the fixed answers while examining a fraction of the candidates
   at the same recall;
2. per-request overrides: one ``QuerySpec`` opts out of the spec
   policy, another tightens it;
3. adaptive top-k riding the hybrid path via radius-from-k estimation,
   bit-identical to the exact reference;
4. online cost-model recalibration from observed stage timings, with
   the decision counters surfaced in ``stats_snapshot()``;
5. the JSON-lines stream protocol v2 envelope carrying the same
   outcome metadata per response.

Run with::

    PYTHONPATH=src python examples/adaptive_serving.py
"""

import json

import numpy as np

from repro import Index, IndexSpec, QuerySpec
from repro.datasets import mixed_workload
from repro.service.stream import serve_stream

N, NUM_QUERIES = 8_000, 100

points, queries, radius = mixed_workload(N, num_queries=NUM_QUERIES, seed=7)
base = IndexSpec(metric="l2", radius=radius, layout="frozen",
                 variant="multiprobe", num_probes=2, cost_ratio=6.0, seed=1)
print(f"workload: n = {N}, d = {points.shape[1]}, r = {radius:.3g}, "
      f"{NUM_QUERIES} queries")

# -- 1. fixed fan-out vs a per-query candidate budget -------------------
fixed = Index.build(points, base)
budget = Index.build(
    points, base.with_overrides(adaptive={"target_candidates": N // 100})
)
fixed_out = fixed.query(QuerySpec(queries))
budget_out = budget.query(QuerySpec(queries))

for a, b in zip(budget_out, fixed_out):
    assert set(a.ids.tolist()) <= set(b.ids.tolist())  # never invents answers
fixed_cands = sum(o.candidates_examined for o in fixed_out)
budget_cands = sum(o.candidates_examined for o in budget_out)
returned = sum(o.output_size for o in budget_out)
expected = sum(o.output_size for o in fixed_out)
print(f"fixed     : {fixed_cands:8d} candidates examined, "
      f"{expected} neighbours returned")
print(f"budget    : {budget_cands:8d} candidates examined "
      f"({budget_cands / fixed_cands:.2f}x), {returned} neighbours "
      f"({returned / expected:.1%} of fixed)")

# -- 2. per-request overrides win over the spec policy ------------------
opted_out = budget.query(QuerySpec(queries[:10], adaptive=False))
tightened = budget.query(QuerySpec(queries[:10], target_candidates=4))
for a, b in zip(opted_out, fixed_out):
    assert np.array_equal(a.ids, b.ids)  # adaptive=False == the fixed path
print(f"overrides : adaptive=False restores the fixed answers; "
      f"target_candidates=4 trims to "
      f"{sum(o.probes_used for o in tightened)} total probes "
      f"(fixed uses {sum(o.probes_used for o in fixed_out[:10])})")

# -- 3. adaptive top-k: radius-from-k estimation on the hybrid path -----
topk_spec = base.with_overrides(
    adaptive={"target_candidates": N // 100, "quality_floor": 1.0}
)
adaptive_topk = Index.build(points, topk_spec).query(QuerySpec(queries[0], k=8))
reference = fixed.query(QuerySpec(queries[0], k=8))
assert np.array_equal(adaptive_topk.ids, reference.ids)
assert np.array_equal(adaptive_topk.distances, reference.distances)
print(f"top-k     : k=8 via estimated radius {adaptive_topk.radius:.3g}, "
      f"bit-identical to the exact reference (quality_floor=1.0)")

# -- 4. online recalibration + the decision counters --------------------
tuned = Index.build(
    points,
    base.with_overrides(
        adaptive={"target_candidates": N // 100, "recalibrate": True}
    ),
)
tuned.query(QuerySpec(queries))
tuned.query(QuerySpec(queries[0], k=8))  # top-k estimates its radius
snap = tuned.stats_snapshot()
print(f"telemetry : adaptive_probes={snap['adaptive_probes']}, "
      f"radius_estimates={snap['radius_estimates']}, "
      f"recalibrations={snap['recalibrations']}")

# -- 5. stream protocol v2: the envelope over JSON lines ----------------
request = json.dumps(
    {"query": queries[0].tolist(), "target_candidates": N // 100}
)
(line,) = serve_stream(budget, [request])
doc = json.loads(line)
assert doc["v"] == 2 and doc["found"] == len(doc["ids"])
print(f"stream v2 : strategy={doc['strategy']}, "
      f"probes_used={doc['probes_used']}, "
      f"candidates_examined={doc['candidates_examined']}, "
      f"degraded={doc['degraded']}")
