"""Hash-table index substrate.

Implements Algorithm 1 of the paper ("Construct LSH hash tables"):
``L`` hash tables, each bucket holding point ids *and* a HyperLogLog
sketch of those ids, plus the small-bucket optimisation from the
complexity analysis (buckets with fewer than ``m`` points skip the
sketch; their raw ids are folded into the merged sketch on demand at
query time).

* :class:`Bucket` — ids + optional sketch;
* :class:`HashTable` — one composite hash function and its buckets;
* :class:`LSHIndex` — the ``L``-table index with the query-side
  primitives Algorithm 2 needs (``#collisions``, merged sketch,
  candidate set);
* :class:`FrozenLSHIndex` — the same index as contiguous CSR arrays,
  built straight into them (or compacted by ``LSHIndex.freeze()``):
  vectorised batch primitives, zero per-bucket Python objects,
  mmap-able persistence;
* :class:`MultiProbeLSHIndex` — the multi-probe extension the paper
  names as future work (and :class:`FrozenMultiProbeLSHIndex`, its
  frozen CSR counterpart);
* :class:`CoveringLSHIndex` — the no-false-negative covering scheme
  (and :class:`FrozenCoveringLSHIndex`, its frozen CSR counterpart).
"""

from repro.index.bucket import Bucket
from repro.index.covering import CoveringLSHIndex
from repro.index.frozen import FrozenLSHIndex, FrozenQueryLookup, FrozenTables
from repro.index.frozen_probing import (
    FrozenCoveringLSHIndex,
    FrozenMultiProbeLSHIndex,
)
from repro.index.lsh_index import LSHIndex, QueryLookup
from repro.index.multiprobe_index import MultiProbeLSHIndex
from repro.index.table import HashTable

__all__ = [
    "Bucket",
    "HashTable",
    "LSHIndex",
    "QueryLookup",
    "FrozenLSHIndex",
    "FrozenQueryLookup",
    "FrozenTables",
    "MultiProbeLSHIndex",
    "FrozenMultiProbeLSHIndex",
    "CoveringLSHIndex",
    "FrozenCoveringLSHIndex",
]
