"""True-positive fixture for the ``dtype-contract`` rule.

Lives under an ``index/`` path segment so the rule's scoping applies.
Deliberately broken — excluded from lint, never imported.
"""

import numpy as np


def build_layout(counts, ids, parts):
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    members = ids.astype(np.int64)
    flat = np.asarray(members, dtype=np.int32)
    src_members = np.concatenate(parts).astype(np.int64, copy=False)
    return offsets, members, flat, src_members
