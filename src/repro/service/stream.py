"""JSON-lines request/response protocol over a served :class:`repro.api.Index`.

One request per line, one response per line, in order:

* ``{"query": [..], "radius": 0.5}`` — an rNNR query (``radius``
  optional: the index's tuned radius is the default) →
  ``{"v": 2, "ids": [...], "distances": [...], "found": n,
  "strategy": "lsh", "radius": r, "probes_used": p,
  "candidates_examined": c, "estimated_candidates": e, "exact": bool,
  "degraded": bool, "missing_shards": [..]}`` — the JSON rendering of
  :class:`repro.api.QueryOutcome`;
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
batched engine's throughput comes from; an idle interactive client
always gets its response immediately.  Request lines are untrusted
input: a malformed line, a wrongly typed field or a non-finite number
produces ``{"error": "..."}`` without disturbing neighbouring requests.

``python -m repro.cli serve`` wires this to stdin/stdout.
"""

from __future__ import annotations

import contextlib
import json
import queue as queue_mod
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from repro.utils.validation import (
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = ["serve_stream", "serve_stream_concurrent"]


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


def _answer(outcome) -> str:
    return json.dumps({"v": 2, "found": outcome.output_size, **outcome.as_dict()})


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
            outcomes = index.query(
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
        for j, outcome in zip(rows, outcomes):
            responses[j] = _answer(outcome)
    pending.clear()
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
    default_allow_partial: bool = False,
) -> Iterator[str]:
    """Yield one JSON response line per JSON request line, in order.

    ``index`` is the :class:`repro.api.Index` to serve.  ``more_ready``
    reports whether further input is already waiting (e.g. a ``select``
    probe on stdin).  Queries are only buffered toward ``batch_size``
    while it returns ``True``; without it every query is answered
    immediately, so an interactive client that sends one request and
    waits never deadlocks — bulk pipes keep the micro-batching because
    their backlog keeps ``more_ready`` true.

    ``default_allow_partial=True`` (the CLI's ``--allow-partial``) opts
    every query line into degraded answers; individual requests can
    still ask for ``"allow_partial": true`` themselves, but cannot opt
    back out of a server-level default — partiality only ever widens.
    """
    state = {"target": index, "owned": False}
    pending: list = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            yield from _flush(state["target"], pending)
            yield json.dumps({"error": f"bad request: {exc}"})
            continue

        if "query" in request:
            try:
                query, radius, k, allow_partial, adaptive_key = _parse_query(
                    request, state["target"].dim
                )
            except (ValueError, TypeError) as exc:
                yield from _flush(state["target"], pending)
                yield json.dumps({"error": str(exc)})
                continue
            allow_partial = allow_partial or default_allow_partial
            if k is not None:
                # Top-k requests are answered immediately (no batching
                # across k values); queued radius queries drain first to
                # keep responses aligned with request order.
                yield from _flush(state["target"], pending)
                try:
                    yield _answer(
                        _topk(state["target"], query, k, allow_partial, adaptive_key)
                    )
                except Exception as exc:
                    yield json.dumps({"error": f"query failed: {exc}"})
                continue
            pending.append((query, radius, allow_partial, adaptive_key))
            if len(pending) >= batch_size or not (more_ready and more_ready()):
                yield from _flush(state["target"], pending)
            continue

        # Non-query ops act on the index state, so drain queued queries
        # first to keep responses aligned with request order.
        yield from _flush(state["target"], pending)
        yield _handle_op(state, request)
    yield from _flush(state["target"], pending)


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


def serve_stream_concurrent(
    index,
    lines: Iterable[str],
    batch_size: int = 64,
    window: int = 4,
    default_allow_partial: bool = False,
) -> Iterator[str]:
    """The concurrent front-end: overlapped batches, ordered responses.

    A reader thread drains ``lines`` into a queue so the serving loop
    always sees its real backlog; consecutive radius queries are grouped
    into batches of up to ``batch_size`` and submitted to a small thread
    pool with at most ``window`` batches in flight.  While one batch
    blocks — most productively on the worker-pool engine, where the
    parent thread just waits on pipe replies from the shard processes —
    the next batch is already being hashed.  Responses are emitted
    strictly in request order: in-flight futures are consumed in
    submission order, and every non-query line (ops, top-k, malformed
    input) acts as a barrier that drains the window first, exactly like
    the synchronous loop's flush discipline.

    Yields the same responses, in the same order, as
    :func:`serve_stream` over the same input; only the wall-clock
    overlap differs.  Result caching on the served index should be left
    off (or treated as best-effort) — the cache store itself is locked,
    but hit-rate accounting across overlapped batches is approximate.

    Failure containment: a batch whose worker died mid-flight must not
    stall the stream.  ``_flush`` already converts per-group engine
    failures into per-line errors, and anything that still escapes the
    future (pool shutdown, allocation failures) is converted here into
    one ``{"error": ...}`` line per buffered query, so responses stay
    aligned with requests and the loop keeps serving.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    state = {"target": index, "owned": False}
    inbox: queue_mod.Queue[object] = queue_mod.Queue(maxsize=max(4 * batch_size, 256))
    _EOF = object()
    stop = threading.Event()

    def _read_all() -> None:
        # Bounded puts checked against ``stop`` so the reader can always
        # exit: if the consumer loop dies (or the generator is closed)
        # with the inbox full, an unconditional put would pin this
        # thread — and whatever file handle ``lines`` wraps — forever.
        try:
            for line in lines:
                while not stop.is_set():
                    try:
                        inbox.put(line, timeout=0.1)
                        break
                    except queue_mod.Full:
                        continue
                if stop.is_set():
                    return
        finally:
            while not stop.is_set():
                try:
                    inbox.put(_EOF, timeout=0.1)
                    break
                except queue_mod.Full:
                    continue

    reader = threading.Thread(
        target=_read_all, name="repro-serve-reader", daemon=True
    )
    reader.start()
    executor = ThreadPoolExecutor(max_workers=window, thread_name_prefix="repro-serve")
    inflight: deque = deque()  # (future -> list[str], batch size), in order
    pending: list = []

    def _submit() -> None:
        if pending:
            batch = list(pending)
            pending.clear()
            target = state["target"]
            inflight.append(
                (executor.submit(_flush, target, batch), len(batch))
            )

    def _results_of(future, count: int) -> list[str]:
        # A failed batch still owes exactly ``count`` response lines,
        # otherwise every later response in the stream is misaligned.
        try:
            return future.result()
        except Exception as exc:
            return [json.dumps({"error": f"query failed: {exc}"})] * count

    def _drain_completed():
        while inflight and inflight[0][0].done():
            yield from _results_of(*inflight.popleft())

    def _drain_all():
        _submit()
        while inflight:
            yield from _results_of(*inflight.popleft())

    try:
        while True:
            # While responses are in flight, poll the inbox instead of
            # blocking: an interactive client that sent one query and is
            # now waiting would otherwise deadlock against us — its
            # response sitting completed in the window, us blocked on
            # its next line (the concurrent analogue of the synchronous
            # loop's ``more_ready`` discipline).
            if inflight:
                try:
                    item = inbox.get(timeout=0.02)
                except queue_mod.Empty:
                    yield from _drain_completed()
                    continue
            else:
                item = inbox.get()
            if item is _EOF:
                break
            line = str(item).strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                yield from _drain_all()
                yield json.dumps({"error": f"bad request: {exc}"})
                continue

            if "query" in request:
                try:
                    query, radius, k, allow_partial, adaptive_key = _parse_query(
                        request, state["target"].dim
                    )
                except (ValueError, TypeError) as exc:
                    yield from _drain_all()
                    yield json.dumps({"error": str(exc)})
                    continue
                allow_partial = allow_partial or default_allow_partial
                if k is not None:
                    yield from _drain_all()
                    try:
                        yield _answer(
                            _topk(
                                state["target"], query, k,
                                allow_partial, adaptive_key,
                            )
                        )
                    except Exception as exc:
                        yield json.dumps({"error": f"query failed: {exc}"})
                    continue
                pending.append((query, radius, allow_partial, adaptive_key))
                if len(pending) >= batch_size or inbox.empty():
                    # Full batch, or no backlog waiting: keep latency low
                    # by dispatching now (the synchronous loop's
                    # ``more_ready`` discipline, via the reader queue).
                    _submit()
                yield from _drain_completed()
                while len(inflight) >= window:
                    yield from _results_of(*inflight.popleft())
                continue

            # Ops mutate serving state: barrier on everything in flight.
            yield from _drain_all()
            yield _handle_op(state, request)
        yield from _drain_all()
    finally:
        stop.set()
        with contextlib.suppress(queue_mod.Empty):
            while True:
                inbox.get_nowait()
        reader.join(timeout=5.0)
        executor.shutdown(wait=True)
