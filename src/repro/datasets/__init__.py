"""Dataset substrate: synthetic stand-ins for the paper's four datasets.

The paper evaluates on Corel Images (L2), CoverType (L1), Webspam
(cosine) and MNIST (Hamming on 64-bit SimHash fingerprints).  Those are
public downloads; this offline reproduction generates synthetic
stand-ins that preserve the properties each experiment exercises —
dimensionality, metric and, crucially, the *local-density structure*
that makes some queries "hard" (output size near ``n/2``) and others
easy.  See DESIGN.md §4 for the substitution rationale.

Scale note: default sizes are laptop-scale (paper sizes were 60k-581k);
every generator takes ``n`` so the benchmarks can grow them, and radii
are engineered so the *paper's own x-axis values* remain meaningful.
"""

from repro.datasets.base import Dataset
from repro.datasets.corel import corel_like
from repro.datasets.covertype import covertype_like
from repro.datasets.fingerprints import simhash_fingerprints
from repro.datasets.io import load_dense, load_libsvm
from repro.datasets.mnist import mnist_like
from repro.datasets.queries import split_queries
from repro.datasets.synthetic import (
    binary_sets,
    gaussian_mixture,
    mixed_workload,
    uniform_hypercube,
)
from repro.datasets.webspam import webspam_like

__all__ = [
    "Dataset",
    "corel_like",
    "covertype_like",
    "webspam_like",
    "mnist_like",
    "simhash_fingerprints",
    "split_queries",
    "gaussian_mixture",
    "uniform_hypercube",
    "binary_sets",
    "mixed_workload",
    "load_libsvm",
    "load_dense",
]
