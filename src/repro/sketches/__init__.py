"""Cardinality-sketch substrate.

The paper's hybrid strategy attaches a HyperLogLog (HLL) sketch to every
LSH bucket so that the number of *distinct* candidates of a query (the
union of its ``L`` buckets) can be estimated in ``O(mL)`` time.  This
package implements HLL from scratch:

* :class:`HyperLogLog` — registers, stochastic averaging, bias-corrected
  raw estimate, linear-counting small-range correction, lossless merge;
* :class:`PrecomputedHllHashes` — the per-point register positions and
  ranks, hashed once so bucket sketches are built without rehashing.

Sketches share one 64-bit integer hashing scheme
(:mod:`repro.sketches.hashing64`), so sketches built over the same point
universe with the same seed are mergeable.  The merged sketch is the
only ``candSize`` estimate; Table 1 measures it against the exact
distinct count of the candidate set.
"""

from repro.sketches.hashing64 import hash64, rho_positions, split_hash
from repro.sketches.hyperloglog import HyperLogLog, PrecomputedHllHashes

__all__ = [
    "HyperLogLog",
    "PrecomputedHllHashes",
    "hash64",
    "split_hash",
    "rho_positions",
]
