"""Spec-driven public API: one declarative front door for the package.

The paper's contribution is a single decision procedure; this package
gives it a single surface:

* :class:`IndexSpec` / :class:`QuerySpec` — immutable, validated
  descriptions of an index and a request, with JSON round-trips
  (``to_dict`` / ``from_dict``) so the CLI, the JSON-lines protocol
  and saved-index files all speak the same document;
* :class:`Index` — ``Index.build(points, spec)``, one
  ``index.query(QuerySpec)`` for radius / top-k / batch, answered with
  a frozen :class:`QueryResult` (one :class:`ResultBlock` for a batch,
  whose rows are made on read),
  ``insert``, and full ``save`` / ``Index.open`` persistence
  (including sharded indexes).

A spec names a metric, not a hash family: each of the paper's four
metrics has one family, built by
:func:`~repro.core.presets.paper_parameters` (the spec's ``k`` and
``bucket_width`` tune it).  ``candSize`` has one estimator, Algorithm
2's merged HyperLogLog.
"""

from repro.api.facade import Index, ServiceStats
from repro.api.persist import open_index, save_index
from repro.api.spec import IndexSpec, QuerySpec
from repro.core.adaptive import AdaptivePolicy
from repro.core.results import QueryResult, ResultBlock

__all__ = [
    "AdaptivePolicy",
    "Index",
    "IndexSpec",
    "QueryResult",
    "QuerySpec",
    "ResultBlock",
    "ServiceStats",
    "save_index",
    "open_index",
]
