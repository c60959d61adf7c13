"""LSH family substrate.

One module per family the paper's experiments use — one family per
metric — plus the machinery that turns atomic ``(r, cr, p1, p2)``-sensitive
functions into the composite ``g = (h_1, ..., h_k)`` functions of the
classic multi-table scheme:

* :class:`BitSamplingLSH` — Indyk–Motwani bit sampling for Hamming
  distance (MNIST fingerprints experiment);
* :class:`SimHashLSH` — Charikar's random-hyperplane hashing for
  cosine/angular distance (Webspam experiment);
* :class:`PStableLSH` — Datar et al.'s p-stable projections with bucket
  width ``w`` for L1 (Cauchy) and L2 (Gaussian) (CoverType and Corel);
* :class:`CompositeHash` — a concatenation of ``k`` atomic functions
  yielding hashable bucket keys;
* :func:`concatenation_width` — the paper's rule
  ``k = ceil(log(1 - delta^{1/L}) / log p1)``
  (:func:`repro.core.presets.paper_parameters` picks a metric's family
  and applies it);
* :mod:`repro.hashing.probing` — multi-probe perturbation sequences for
  the paper's future-work extension.
"""

from repro.hashing.base import LSHFamily
from repro.hashing.bit_sampling import BitSamplingLSH
from repro.hashing.composite import CompositeHash, encode_rows
from repro.hashing.params import (
    concatenation_width,
    expected_recall,
    success_probability,
)
from repro.hashing.probing import hamming_probe_keys, perturbation_offsets
from repro.hashing.pstable import PStableLSH, l1_collision_probability, l2_collision_probability
from repro.hashing.simhash import SimHashLSH

__all__ = [
    "LSHFamily",
    "BitSamplingLSH",
    "SimHashLSH",
    "PStableLSH",
    "CompositeHash",
    "encode_rows",
    "concatenation_width",
    "success_probability",
    "expected_recall",
    "l1_collision_probability",
    "l2_collision_probability",
    "perturbation_offsets",
    "hamming_probe_keys",
]
