"""Multi-probe perturbation sequences (Lv et al., VLDB 2007).

The paper's conclusion singles out multi-probe LSH as the natural host
for hybrid search: multi-probe trades tables for probes by also looking
into buckets *near* ``g(q)``, which multiplies the number of buckets
examined per query — exactly the regime where estimating ``candSize``
before paying the de-duplication cost matters most.

We implement the structural part of multi-probe generically:

* :func:`perturbation_offsets` enumerates perturbation vectors
  ``delta in {-1, 0, +1}^k`` ordered by a simple cost heuristic (number
  of perturbed coordinates first, then lexicographic), suitable for the
  integer hash values of p-stable families;
* :func:`hamming_probe_keys` enumerates bit-flip probes for the binary
  hash values of SimHash / bit sampling;
* :func:`hamming_flip_masks` exposes the same bit-flip sequence as one
  ``(P, k)`` XOR-mask matrix, which is what the frozen multi-probe
  layout applies to a whole ``(q, L, k)`` hash tensor at once.

Both orderings have exactly one home: the probed bucket sequence of the
dict layout (:class:`~repro.index.lsh_index.LSHIndex`) and of the
frozen layout (:class:`~repro.index.frozen.FrozenLSHIndex`) are derived
from the same enumerations, so the two layouts can never disagree about
which buckets a query probes, or in which order.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.hashing.composite import encode_rows
from repro.utils.validation import check_positive_int

__all__ = [
    "perturbation_offsets",
    "hamming_probe_keys",
    "hamming_flip_masks",
    "probe_deltas",
]


def probe_deltas(family, k: int, num_probes: int) -> tuple[bool, np.ndarray]:
    """The probe scheme for ``family``: ``(binary, (P, k) delta matrix)``.

    ``binary`` selects how the deltas apply to a composite hash row —
    XOR for the bit-valued families (SimHash, bit sampling), addition
    for integer-valued p-stable quantisers.  This is the *single*
    classification point shared by the dict layout
    (:class:`~repro.index.lsh_index.LSHIndex`) and the frozen layout
    (:class:`~repro.index.frozen.FrozenLSHIndex`): a family added here
    changes both layouts together, so they cannot disagree about the
    probed bucket set.  ``P`` may be smaller than
    ``num_probes`` when the enumeration runs dry.
    """
    from repro.hashing.bit_sampling import BitSamplingLSH
    from repro.hashing.simhash import SimHashLSH

    k = check_positive_int(k, "k")
    binary = isinstance(family, SimHashLSH | BitSamplingLSH)
    if num_probes == 0:
        return binary, np.empty((0, k), dtype=np.int64)
    if binary:
        return binary, hamming_flip_masks(k, num_probes)
    offsets = perturbation_offsets(k, num_probes)
    if not offsets:
        return binary, np.empty((0, k), dtype=np.int64)
    return binary, np.stack(offsets)


def perturbation_offsets(k: int, num_probes: int) -> list[np.ndarray]:
    """Perturbation vectors for integer-valued composite hashes.

    Enumerates ``{-1, 0, +1}^k`` offsets (excluding the zero vector,
    which is the home bucket and always probed first by the index) in
    increasing order of the number of non-zero entries — the standard
    "fewer perturbations are more probable" heuristic — truncated to
    ``num_probes`` entries.

    Parameters
    ----------
    k:
        Width of the composite hash.
    num_probes:
        Number of *additional* buckets to probe per table.

    Returns
    -------
    list of int64 arrays of length ``k``.
    """
    k = check_positive_int(k, "k")
    if num_probes < 0:
        raise ValueError(f"num_probes must be >= 0, got {num_probes}")
    offsets: list[np.ndarray] = []
    # Perturb 1 coordinate, then 2, ... until we have enough probes.
    for weight in range(1, k + 1):
        if len(offsets) >= num_probes:
            break
        for positions in itertools.combinations(range(k), weight):
            for signs in itertools.product((-1, 1), repeat=weight):
                delta = np.zeros(k, dtype=np.int64)
                for pos, sign in zip(positions, signs):
                    delta[pos] = sign
                offsets.append(delta)
                if len(offsets) >= num_probes:
                    return offsets
    return offsets


def hamming_flip_masks(k: int, num_probes: int) -> np.ndarray:
    """Bit-flip masks for binary composite hashes, as one XOR matrix.

    Row ``p`` of the returned ``(P, k)`` int64 matrix has ones at the
    positions probe ``p`` flips: one bit first (positions in order),
    then two bits (combinations in lexicographic order), truncated to
    ``num_probes`` rows — the exact sequence
    :func:`hamming_probe_keys` walks, exposed as data so the frozen
    layout can apply every probe of every query and table with one
    vectorised XOR.  ``P`` may be smaller than ``num_probes`` when the
    enumeration runs dry (``k + k(k-1)/2`` flips exist).

    Parameters
    ----------
    k:
        Width of the composite hash.
    num_probes:
        Number of *additional* buckets to probe per table.
    """
    k = check_positive_int(k, "k")
    if num_probes < 0:
        raise ValueError(f"num_probes must be >= 0, got {num_probes}")
    masks: list[np.ndarray] = []
    for weight in (1, 2):
        if len(masks) >= num_probes:
            break
        for positions in itertools.combinations(range(k), weight):
            mask = np.zeros(k, dtype=np.int64)
            mask[list(positions)] = 1
            masks.append(mask)
            if len(masks) >= num_probes:
                break
    if not masks:
        return np.empty((0, k), dtype=np.int64)
    return np.stack(masks)


def hamming_probe_keys(hash_row: np.ndarray, num_probes: int) -> list[bytes]:
    """Probe keys for binary composite hashes (SimHash, bit sampling).

    Yields the bucket keys obtained by flipping one bit, then two bits,
    of ``hash_row`` (values in {0, 1}), truncated to ``num_probes``
    keys.  The home bucket is *not* included.  The flip sequence is
    :func:`hamming_flip_masks` — one enumeration shared with the frozen
    multi-probe layout.

    Parameters
    ----------
    hash_row:
        Length-``k`` 0/1 hash row of the query in one table.
    num_probes:
        Number of additional buckets to probe in that table.
    """
    row = np.asarray(hash_row, dtype=np.int64)
    masks = hamming_flip_masks(row.shape[0], num_probes)
    if masks.shape[0] == 0:
        return []
    return encode_rows(row[None, :] ^ masks)
