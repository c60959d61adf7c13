"""Query serving: batched dispatch, sharding, caching, and a wire protocol.

The core package answers one query at a time on one thread — faithful
to the paper's experimental protocol, but far from a serving system.
This subsystem turns the reproduction into a query-serving engine while
preserving the paper's semantics exactly:

* :class:`BatchQueryEngine` — answers a ``(q, d)`` query matrix with
  one fused hashing pass, a per-query Algorithm 2 cost decision, one
  grouped distance-matrix pass for all linear-bound queries, and
  vectorised Step-S2 deduplication for the LSH-bound ones.  Results are
  bit-identical to looping :meth:`~repro.core.hybrid.HybridSearcher.query`.
* :class:`QueryResultCache` — an LRU cache of whole answers keyed on
  quantised query vectors (an insert drops them all), for workloads
  with repeated or near-duplicate queries.
* :class:`WorkerPool` — the one shard coordinator: it serves a saved
  artifact's ``K`` frozen shards, sends each request to the endpoints
  that own them, and merges their answers with exact radius (disjoint
  union) and top-k semantics.  ``IndexSpec.execution`` chooses where
  the endpoints run: in this process behind an
  :class:`InlineTransport` (``"threads"``), in worker processes that
  mmap the shards behind a :class:`PipeTransport` (``"processes"``), or
  in standalone :class:`ShardServer` processes behind a
  :class:`TcpTransport` (``python -m repro.cli shard-serve``), with
  replica endpoints and automatic failover.
* :func:`serve_stream` — the JSON-lines request/response loop over a
  :class:`repro.api.Index` (see ``python -m repro.cli serve``); up to
  ``window`` micro-batches run at once, and responses stay in request
  order.
* :class:`ServiceStats` — the counters, latency histogram and gauges an
  index keeps while serving.

None of these builds an index: :meth:`repro.api.Index.build` builds
(the shards concurrently, written to a transient artifact the pool
serves) and :meth:`repro.api.Index.open` maps saved ones, and both
assemble these engines from an :class:`~repro.api.spec.IndexSpec`; it
is the only way in.
"""

from repro.service.batch import BatchQueryEngine
from repro.service.cache import QueryResultCache
from repro.service.shard_server import ShardServer
from repro.service.stats import ServiceStats
from repro.service.stream import serve_stream
from repro.service.transport import (
    InlineTransport,
    PipeTransport,
    ShardTransport,
    TcpTransport,
)
from repro.service.workers import WorkerPool

__all__ = [
    "BatchQueryEngine",
    "InlineTransport",
    "PipeTransport",
    "QueryResultCache",
    "ServiceStats",
    "ShardServer",
    "ShardTransport",
    "TcpTransport",
    "WorkerPool",
    "serve_stream",
]
