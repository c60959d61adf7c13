"""How the format-v1 frozen fixtures beside this file were written.

Provenance only — do NOT run it on a current checkout: it has to run
against the last tree that wrote format v1 (PR 17, commit d197d50),

    git clone <repo> /tmp/pr17 && cd /tmp/pr17 && git checkout d197d50
    PYTHONPATH=src python <this file> <output dir>

so that ``keys_raw.npy`` is that tree's byte layout and
``expected.json`` holds the answers that tree gave.
``tests/test_frozen.py::TestFormatV1Artifacts`` opens them with today's
loader.
"""
import json, os, sys
import numpy as np
from repro.hashing import PStableLSH
from repro.index import CoveringLSHIndex, MultiProbeLSHIndex
from repro.index.frozen import save_frozen_index

out = sys.argv[1]

def expected(frozen, queries):
    lookups = frozen.lookup_batch(queries)
    return {
        "num_collisions": [lk.num_collisions for lk in lookups],
        "largest_bucket": [lk.largest_bucket for lk in lookups],
        "candidates": [frozen.candidate_ids(lk).tolist() for lk in lookups],
        "estimates": frozen.merged_estimates_batch(lookups).tolist(),
    }

def write(name, frozen, queries):
    path = os.path.join(out, name)
    save_frozen_index(frozen, path)
    np.save(os.path.join(path, "queries.npy"), queries)
    with open(os.path.join(path, "expected.json"), "w") as fh:
        json.dump(expected(frozen, queries), fh)

rng = np.random.default_rng(18)
centres = rng.normal(size=(4, 6)) * 3
points = np.concatenate([c + 0.3 * rng.normal(size=(12, 6)) for c in centres])
index = MultiProbeLSHIndex(
    PStableLSH(6, w=1.5), k=3, num_tables=5, num_probes=2,
    hll_precision=4, lazy_threshold=3, seed=7,
).build(points)
queries = np.concatenate([points[::7], rng.normal(size=(4, 6)) * 3])
write("multiprobe_pstable", index.freeze(), queries)

bits = (rng.random((40, 20)) < 0.5).astype(np.float64)
bits[20:] = bits[:20]
bits[20:, :2] = 1 - bits[20:, :2]
cov = CoveringLSHIndex(dim=20, radius=3, hll_precision=4, lazy_threshold=1, seed=1).build(bits)
flips = bits[:6].copy(); flips[:, 5] = 1 - flips[:, 5]
write("covering", cov.freeze(), np.concatenate([bits[:4], flips]))
