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
  (including sharded indexes);
* the LSH-family registry — :func:`register_family` /
  :func:`get_family` — extending the distance-registry pattern so
  specs resolve families by name.  ``candSize`` has one estimator,
  Algorithm 2's merged HyperLogLog, so it has no registry.
"""

from repro.api.facade import Index, ServiceStats
from repro.api.persist import open_index, save_index
from repro.api.spec import IndexSpec, QuerySpec
from repro.core.adaptive import AdaptivePolicy
from repro.core.results import QueryResult, ResultBlock
from repro.hashing.base import available_families, get_family, register_family

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
    "register_family",
    "get_family",
    "available_families",
]
