"""How the format-v3 frozen fixtures beside this file were written.

Provenance only — do NOT run it on a current checkout: it has to run
against the last tree that wrote format v3 (commit bf2e6b7),

    git clone <repo> /tmp/v3-tree && cd /tmp/v3-tree && git checkout bf2e6b7
    PYTHONPATH=src python <this file> <output dir>

so that the ``.npy`` files are that tree's byte layout (a per-bucket
``int32`` ``sketch_rows`` map, -1 for a lazy bucket) and
``expected.json`` holds the answers and bucket statistics that tree
gave.  ``tests/test_frozen.py::TestFormatV3Artifacts`` opens them with
today's loader.
"""
import json, os, sys
import numpy as np
from repro.hashing import PStableLSH, SimHashLSH
from repro.index import FrozenLSHIndex
from repro.index.frozen import save_frozen_index
from repro.index.frozen_probing import FrozenMultiProbeLSHIndex

out = sys.argv[1]

def expected(frozen, queries):
    lookups = frozen.lookup_batch(queries)
    return {
        "num_collisions": [lk.num_collisions for lk in lookups],
        "largest_bucket": [lk.largest_bucket for lk in lookups],
        "candidates": [frozen.candidate_ids(lk).tolist() for lk in lookups],
        "estimates": frozen.merged_estimates_batch(lookups).tolist(),
        "stats": frozen.bucket_statistics(),
    }

def write(name, frozen, queries):
    path = os.path.join(out, name)
    save_frozen_index(frozen, path)
    np.save(os.path.join(path, "queries.npy"), queries)
    with open(os.path.join(path, "expected.json"), "w") as fh:
        json.dump(expected(frozen, queries), fh)

rng = np.random.default_rng(35)
centres = rng.normal(size=(4, 6)) * 3
points = np.concatenate([c + 0.3 * rng.normal(size=(12, 6)) for c in centres])
plain = FrozenLSHIndex(
    PStableLSH(6, w=1.5), k=3, num_tables=5, hll_precision=4, lazy_threshold=3, seed=7,
).build(points)
# Two inserts folded in, so the artifact is a re-freeze's arrays.
plain.insert(points[:5] + 0.01)
plain.insert(rng.normal(size=(3, 6)) * 3)
queries = np.concatenate([points[::7], rng.normal(size=(4, 6)) * 3])
write("plain_pstable", plain, queries)

signs = rng.normal(size=(40, 8))
probing = FrozenMultiProbeLSHIndex(
    SimHashLSH(8), k=4, num_tables=4, num_probes=2,
    hll_precision=4, lazy_threshold=2, seed=5,
).build(signs)
write("multiprobe_simhash", probing, np.concatenate([signs[::9], -signs[:3]]))
