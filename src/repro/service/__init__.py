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
* :class:`ShardedHybridIndex` — partitions the dataset across ``K``
  shards, builds per-shard hybrid indexes in parallel via
  :mod:`concurrent.futures`, fans queries out, and merges per-shard
  answers with exact radius (disjoint union) and top-k semantics.
* :class:`QueryResultCache` — an LRU cache keyed on quantised query
  vectors (shard-tagged, so inserts evict only the touched shards'
  entries), for workloads with repeated or near-duplicate queries.
* :class:`WorkerPool` — true multi-core serving: ``K`` persistent
  worker *processes*, each opening the saved frozen shards zero-copy
  via ``np.load(mmap_mode="r")``, with exact parent-side merges —
  bit-identical to the thread fan-out (``IndexSpec(execution="processes")``).
  The pool talks to its shards through a :class:`ShardTransport` —
  :class:`PipeTransport` for locally spawned workers,
  :class:`TcpTransport` for standalone :class:`ShardServer` processes
  (``python -m repro.cli shard-serve``) — and can fan reads across
  replica endpoints with automatic failover.
* :func:`serve_stream` — a JSON-lines request/response protocol over a
  :class:`repro.api.Index` (see ``python -m repro.cli serve``);
  :func:`serve_stream_concurrent` overlaps in-flight batches behind a
  reader thread while keeping responses in request order.
* :class:`ServiceStats` — the counters, latency histogram and gauges an
  index keeps while serving.

:class:`repro.api.Index` assembles these engines from an
:class:`~repro.api.spec.IndexSpec`; it is the way in.
"""

from repro.service.batch import BatchQueryEngine
from repro.service.cache import QueryResultCache
from repro.service.shard_server import ShardServer
from repro.service.sharded import ShardedHybridIndex
from repro.service.stats import ServiceStats
from repro.service.stream import serve_stream, serve_stream_concurrent
from repro.service.transport import PipeTransport, ShardTransport, TcpTransport
from repro.service.workers import WorkerPool

__all__ = [
    "BatchQueryEngine",
    "PipeTransport",
    "QueryResultCache",
    "ServiceStats",
    "ShardServer",
    "ShardTransport",
    "ShardedHybridIndex",
    "TcpTransport",
    "WorkerPool",
    "serve_stream",
    "serve_stream_concurrent",
]
