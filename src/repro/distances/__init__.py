"""Distance substrate: the metrics the paper's LSH families target.

The paper evaluates on four metrics — L2 (Corel), L1 (CoverType),
cosine distance (Webspam) and Hamming distance on 64-bit fingerprints
(MNIST) — and notes the framework applies to "an arbitrary
high-dimensional space and distance measure that allows LSH".  This
package provides each metric twice:

* a scalar kernel ``f(x, y) -> float`` (one pair), and
* a batch kernel ``f_batch(X, q) -> ndarray`` (all rows of ``X``
  against ``q``), which is what the linear-scan and verification steps
  actually use.

:func:`get_metric` resolves the four metric names (``"l2"``, ``"l1"``,
``"cosine"``, ``"hamming"``) and their aliases to :class:`Metric`
objects so the rest of the library is metric-agnostic.
"""

from repro.distances.base import Metric, available_metrics, get_metric
from repro.distances.cosine import cosine_distance, cosine_distance_batch
from repro.distances.euclidean import euclidean_distance, euclidean_distance_batch
from repro.distances.hamming import hamming_distance, hamming_distance_batch
from repro.distances.manhattan import manhattan_distance, manhattan_distance_batch
from repro.distances.matrix import pairwise_distances

__all__ = [
    "Metric",
    "available_metrics",
    "get_metric",
    "euclidean_distance",
    "euclidean_distance_batch",
    "manhattan_distance",
    "manhattan_distance_batch",
    "hamming_distance",
    "hamming_distance_batch",
    "cosine_distance",
    "cosine_distance_batch",
    "pairwise_distances",
]
