"""How the format-v4 ``Index.save`` fixtures beside this file were written.

Provenance only — do NOT run it on a current checkout: it has to run
against the last tree that wrote ``"variant": "plain"`` (commit
c2d5996),

    git clone <repo> /tmp/v4-tree && cd /tmp/v4-tree && git checkout c2d5996
    PYTHONPATH=src python <this file> <output dir>

so that ``plain/`` is that tree's plain index (its ``index.json`` spec
says ``"variant": "plain", "num_probes": 2``, the old default that
variant never read, and its shard's ``config.json`` has no
``num_probes``), ``multiprobe/`` its 2-probe index of the same points,
and ``expected.json`` the answers that tree gave.
``tests/test_frozen.py::TestFormatV4Labels`` opens them with today's
loader, without ``migrate``.
"""
import json, os, sys
import numpy as np
from repro.api import Index, IndexSpec, QuerySpec

out = sys.argv[1]
rng = np.random.default_rng(44)
centres = rng.normal(size=(4, 6)) * 3
points = np.concatenate([c + 0.3 * rng.normal(size=(15, 6)) for c in centres])
queries = np.concatenate([points[::6], rng.normal(size=(4, 6)) * 3])
expected = {"queries": queries.tolist()}
for name, probes in (("plain", {}), ("multiprobe", {"variant": "multiprobe", "num_probes": 2})):
    spec = IndexSpec(
        metric="l2", radius=1.0, num_tables=5, k=3, hll_precision=4,
        lazy_threshold=3, cost_ratio=0.75, seed=7, **probes,
    )
    index = Index.build(points, spec)
    index.insert(points[:4] + 0.01)  # the artifact is a re-freeze's arrays
    index.save(os.path.join(out, name))
    expected[name] = [
        {"ids": r.ids.tolist(), "distances": r.distances.tolist(), "stats": repr(r.stats)}
        for r in index.query(QuerySpec(queries))
    ]
    index.close()
with open(os.path.join(out, "expected.json"), "w") as fh:
    json.dump(expected, fh)
