"""JSON-lines request/response protocol over a served :class:`repro.api.Index`.

One request per line, one response per line, in order:

* ``{"query": [..], "radius": 0.5}`` — an rNNR query (``radius``
  optional: the index's tuned radius is the default) →
  ``{"v": 2, "ids": [...], "distances": [...], "found": n,
  "strategy": "lsh", "radius": r, "probes_used": p,
  "candidates_examined": c, "estimated_candidates": e, "exact": bool,
  "degraded": bool, "missing_shards": [..]}`` — the JSON rendering of
  :class:`repro.api.QueryResult` (:meth:`~repro.core.results.QueryResult.as_dict`);
* ``{"query": [..], "k": 10}`` — a top-k query (same response shape,
  ordered by ascending distance);
* either query kind may add the adaptive-execution fields ``"adaptive"``
  (bool), ``"target_candidates"`` (int) and ``"quality_floor"`` (float
  in (0, 1]) — per-request overrides folded into the served index's
  :class:`~repro.core.adaptive.AdaptivePolicy`;
* either query kind may add ``"allow_partial": true`` to accept
  degraded answers when worker-pool shards are unavailable; a degraded
  response carries ``"degraded": true`` and ``"missing_shards": [..]``;
* ``{"op": "insert", "points": [[..], ..]}`` — add points →
  ``{"inserted": m, "ids": [...], "n": total}``;
* ``{"op": "stats"}`` — telemetry snapshot → the
  :meth:`repro.api.Index.stats_snapshot` payload (counters, latency
  histogram, per-stage seconds, gauges, worker aggregation);
* ``{"op": "metrics"}`` — the same snapshot rendered in the Prometheus
  text exposition format → ``{"metrics": "..."}``;
* ``{"op": "spec"}`` — the served index's
  :class:`~repro.api.spec.IndexSpec` document → ``{"spec": {...}}``;
* ``{"op": "save", "path": "..."}`` — persist the served index →
  ``{"saved": path}``;
* ``{"op": "open", "path": "..."}`` — swap in an index saved earlier
  (:meth:`repro.api.Index.open`) → ``{"opened": path, "n": ..., "dim": ...}``;
* ``{"op": "create", "spec": {...}, "points": [[..], ..]}`` — build a
  fresh index from an inline spec document and data
  (:meth:`repro.api.Index.build`) → ``{"created": true, "n": ..., "dim": ...}``.

Consecutive radius-query lines are micro-batched: while more input is
already waiting (see ``more_ready``), up to ``batch_size`` of them are
answered with one engine batch (grouped by radius), which is where the
batched engine's throughput comes from, and up to ``window`` batches
run at once; an idle interactive client always gets its response
immediately.  Request lines are untrusted
input: a malformed line, a wrongly typed field or a non-finite number
produces ``{"error": "..."}`` without disturbing neighbouring requests.

``python -m repro.cli serve`` wires this to stdin/stdout.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from repro.utils.validation import (
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = ["serve_stream"]


def _boolean(value: object, name: str) -> bool:
    """A JSON boolean: the string ``"false"`` is not silently true."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _parse_query(
    request: dict, dim: int
) -> tuple[
    np.ndarray,
    float | None,
    int | None,
    bool,
    tuple[bool | None, int | None, float | None],
]:
    try:
        query = np.asarray(request["query"], dtype=np.float64)
    except (ValueError, TypeError):  # ragged rows, strings, objects
        query = None
    if query is None or query.ndim != 1 or query.shape[0] != dim:
        raise ValueError(f"query must be a flat list of {dim} numbers")
    if not np.isfinite(query).all():
        raise ValueError("query must contain only finite numbers")
    radius = request.get("radius")
    k = request.get("k")
    if radius is not None and k is not None:
        raise ValueError("pass either radius or k, not both")
    if radius is not None:
        radius = check_positive(radius, "radius")
    if k is not None:
        k = check_positive_int(k, "k")
    allow_partial = _boolean(request.get("allow_partial", False), "allow_partial")
    adaptive = request.get("adaptive")
    if adaptive is not None:
        adaptive = _boolean(adaptive, "adaptive")
    target_candidates = request.get("target_candidates")
    if target_candidates is not None:
        target_candidates = check_positive_int(target_candidates, "target_candidates")
    quality_floor = request.get("quality_floor")
    if quality_floor is not None:
        quality_floor = check_probability(quality_floor, "quality_floor")
        if quality_floor == 0.0:
            raise ValueError(
                f"quality_floor must be in (0, 1], got {quality_floor}"
            )
    adaptive_key = (adaptive, target_candidates, quality_floor)
    return query, radius, k, allow_partial, adaptive_key


def _answer(result) -> str:
    return json.dumps({"v": 2, "found": result.output_size, **result.as_dict()})


def _query_spec_kwargs(
    radius: float | None,
    allow_partial: bool,
    adaptive_key: tuple[bool | None, int | None, float | None],
) -> dict:
    adaptive, target_candidates, quality_floor = adaptive_key
    kwargs: dict = {}
    if radius is not None:
        kwargs["radius"] = radius
    if allow_partial:
        kwargs["allow_partial"] = True
    if adaptive is not None:
        kwargs["adaptive"] = adaptive
    if target_candidates is not None:
        kwargs["target_candidates"] = target_candidates
    if quality_floor is not None:
        kwargs["quality_floor"] = quality_floor
    return kwargs


def _flush(index, pending: list) -> list[str]:
    """Answer the buffered radius queries, one engine batch per group.

    Queries batch together only when they share the radius, the
    ``allow_partial`` choice and the adaptive-override fields.
    """
    from repro.api.spec import QuerySpec

    responses: list[str | None] = [None] * len(pending)
    groups: dict[tuple, list[int]] = {}
    for j, (_, radius, allow_partial, adaptive_key) in enumerate(pending):
        groups.setdefault((radius, allow_partial, adaptive_key), []).append(j)
    for (radius, allow_partial, adaptive_key), rows in groups.items():
        batch = np.stack([pending[j][0] for j in rows])
        try:
            results = index.query(
                QuerySpec(
                    batch, **_query_spec_kwargs(radius, allow_partial, adaptive_key)
                )
            )
        except Exception as exc:
            # e.g. an unavailable shard without allow_partial; the
            # per-line contract means the rest of the stream lives on.
            error = json.dumps({"error": f"query failed: {exc}"})
            for j in rows:
                responses[j] = error
            continue
        for j, result in zip(rows, results):
            responses[j] = _answer(result)
    return responses


#: The fields each op cannot run without, checked before it touches the
#: index so the error names the field instead of echoing a ``KeyError``.
_REQUIRED_FIELDS = {
    "insert": ("points",),
    "save": ("path",),
    "open": ("path",),
    "create": ("spec", "points"),
}


def _handle_op(state: dict, request: dict) -> str:
    """Dispatch a non-query op against the current serving target."""
    from repro.api.facade import Index
    from repro.api.spec import IndexSpec

    index = state["target"]
    op = request.get("op")
    required = _REQUIRED_FIELDS.get(op, ()) if isinstance(op, str) else ()
    for field in required:
        if field not in request:
            return json.dumps({"error": f'{op} needs "{field}"'})
    if "path" in required and not isinstance(request["path"], str):
        # str(None) would save into a directory literally named "None".
        return json.dumps(
            {"error": f"path must be a string, got {request['path']!r}"}
        )
    if op == "stats":
        return json.dumps(index.stats_snapshot())
    if op == "metrics":
        from repro.observability import prometheus_text

        return json.dumps({"metrics": prometheus_text(index.stats_snapshot())})
    if op == "insert":
        try:
            points = np.asarray(request["points"], dtype=np.float64)
            ids = index.insert(points)
        except Exception as exc:  # surface shape/validation problems per line
            return json.dumps({"error": f"insert failed: {exc}"})
        return json.dumps(
            {"inserted": int(ids.size), "ids": ids.tolist(), "n": index.n}
        )
    if op == "spec":
        return json.dumps({"spec": index.spec.to_dict()})
    if op == "save":
        path = request["path"]
        try:
            index.save(path)
        except Exception as exc:
            return json.dumps({"error": f"save failed: {exc}"})
        return json.dumps({"saved": path})
    if op == "open":
        path = request["path"]
        try:
            _swap_target(state, Index.open(path))
        except Exception as exc:
            return json.dumps({"error": f"open failed: {exc}"})
        return json.dumps(
            {"opened": path, "n": state["target"].n, "dim": state["target"].dim}
        )
    if op == "create":
        try:
            spec = IndexSpec.from_dict(request["spec"])
            points = np.asarray(request["points"], dtype=np.float64)
            _swap_target(state, Index.build(points, spec))
        except Exception as exc:
            return json.dumps({"error": f"create failed: {exc}"})
        return json.dumps(
            {"created": True, "n": state["target"].n, "dim": state["target"].dim}
        )
    return json.dumps({"error": f"unknown request: {sorted(request)}"})


def _swap_target(state: dict, new_target) -> None:
    """Replace the serving target, releasing any stream-owned old one.

    The caller's original index is never closed (they still own it);
    indexes the stream itself opened or created are closed on swap so a
    long-lived server cycling through ``open``/``create`` requests does
    not accumulate shard thread pools.
    """
    old, was_owned = state["target"], state["owned"]
    state["target"] = new_target
    state["owned"] = True
    if was_owned:
        old.close()


def serve_stream(
    index,
    lines: Iterable[str],
    batch_size: int = 64,
    more_ready: Callable[[], bool] | None = None,
    window: int = 1,
    default_allow_partial: bool = False,
) -> Iterator[str]:
    """Yield one JSON response line per JSON request line, in order.

    ``index`` is the :class:`repro.api.Index` to serve.  ``more_ready``
    reports whether further input is already waiting (e.g. a ``select``
    probe on stdin).  Radius queries are only buffered toward
    ``batch_size`` while it returns ``True``; bulk pipes keep the
    micro-batching because their backlog keeps it true.

    Each radius batch runs on a thread pool of ``window`` threads, and
    up to ``window`` batches are in flight at once.  While one blocks —
    most productively on a worker pool, where this side only waits on
    the shards' replies — the next is already being read and hashed.
    While batches are in flight and no input is waiting, the loop waits
    on the oldest batch, probing ``more_ready`` every 20 ms: a finished
    batch reaches an idle client without waiting for its next line, and
    a line that arrives mid-batch is read at once.  Without
    ``more_ready`` every line is answered before the next is read, so a
    client that sends one request and waits never deadlocks.  Ops,
    top-k queries and malformed lines are barriers: everything in
    flight is answered first.  A batch that raises still owes one
    ``{"error": ...}`` line per query, so responses stay aligned.

    ``default_allow_partial=True`` (the CLI's ``--allow-partial``) opts
    every query line into degraded answers; individual requests can
    still ask for ``"allow_partial": true`` themselves, but cannot opt
    back out of a server-level default — partiality only ever widens.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    input_waiting = more_ready or (lambda: False)
    state = {"target": index, "owned": False}
    pending: list = []
    inflight: deque = deque()  # (future -> list[str], batch size), in order
    executor = ThreadPoolExecutor(max_workers=window, thread_name_prefix="repro-serve")

    def submit() -> None:
        if pending:
            batch = list(pending)
            pending.clear()
            inflight.append((executor.submit(_flush, state["target"], batch), len(batch)))

    def oldest() -> list[str]:
        future, count = inflight.popleft()
        try:
            return future.result()
        except Exception as exc:
            # A failed batch still owes ``count`` lines, or every later
            # response in the stream is misaligned.
            return [json.dumps({"error": f"query failed: {exc}"})] * count

    def drain() -> Iterator[str]:
        submit()
        while inflight:
            yield from oldest()

    stream = iter(lines)
    try:
        while True:
            # Reading the next line may block: first hand back what is
            # done, and wait on the oldest batch while no input waits.
            while inflight:
                if inflight[0][0].done():
                    yield from oldest()
                elif not input_waiting():
                    wait([inflight[0][0]], timeout=0.02)
                else:
                    break
            line = next(stream, None)
            if line is None:
                break
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                yield from drain()
                yield json.dumps({"error": f"bad request: {exc}"})
                continue

            if "query" not in request:
                # Ops act on the index state: barrier on everything in flight.
                yield from drain()
                yield _handle_op(state, request)
                continue
            try:
                query, radius, k, allow_partial, adaptive_key = _parse_query(
                    request, state["target"].dim
                )
            except (ValueError, TypeError) as exc:
                yield from drain()
                yield json.dumps({"error": str(exc)})
                continue
            allow_partial = allow_partial or default_allow_partial
            if k is not None:
                # Top-k requests are answered at once (no batching across
                # k values), after everything queued before them.
                yield from drain()
                try:
                    yield _answer(
                        _topk(state["target"], query, k, allow_partial, adaptive_key)
                    )
                except Exception as exc:
                    yield json.dumps({"error": f"query failed: {exc}"})
                continue
            pending.append((query, radius, allow_partial, adaptive_key))
            if len(pending) >= batch_size or not input_waiting():
                submit()
            while len(inflight) >= window:
                yield from oldest()
        yield from drain()
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


def _topk(
    index,
    query: np.ndarray,
    k: int,
    allow_partial: bool,
    adaptive_key: tuple[bool | None, int | None, float | None],
):
    """Answer one top-k request."""
    from repro.api.spec import QuerySpec

    kwargs = _query_spec_kwargs(None, allow_partial, adaptive_key)
    return index.query(QuerySpec(query, k=k, **kwargs))
