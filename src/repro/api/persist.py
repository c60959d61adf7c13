"""Full-index persistence: spec + shards + id maps + cost model.

:func:`save_index` writes an :class:`~repro.api.facade.Index` to a
directory; :func:`open_index` reassembles it without rehashing a single
point, so the reopened index answers **bit-identically** to the one
that was saved (per-shard CSR arrays round-trip through
:mod:`repro.index.frozen`, the shard id maps and the calibrated
cost-model constants ride along).  Layout::

    path/
      index.json         # format version, spec document, cost model,
                         # shard routing state, bucket layout ("frozen")
      shard_000.frozen/  # one per shard: plain .npy arrays, reopened
      ...                # with np.load(mmap_mode="r") — zero-copy, no
                         # bucket reconstruction (repro.index.frozen)
      shard_gids.npz     # global-id map per shard (sharded indexes only)

Everything is JSON + numpy archives — no pickle, safe to load from
untrusted storage.  An artifact whose ``index.json`` names another
bucket layout is refused before any shard file is opened.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any

import numpy as np

from repro.api.spec import IndexSpec
from repro.core.cost_model import CostModel
from repro.core.hybrid import HybridLSH, HybridSearcher
from repro.exceptions import ConfigurationError, CorruptArtifactError, ReproError
from repro.index.frozen import load_frozen_index, save_frozen_index
from repro.service.batch import BatchQueryEngine
from repro.service.sharded import ShardedHybridIndex
from repro.utils.fsio import write_json_atomic

__all__ = ["save_index", "open_index"]

_FORMAT_VERSION = 1
_META_FILE = "index.json"
_GIDS_FILE = "shard_gids.npz"
#: The one bucket layout an artifact's shards are stored in.
_LAYOUT = "frozen"


def _frozen_shard_dir(shard: int) -> str:
    return f"shard_{shard:03d}.frozen"


def read_shard_gids(path: str, num_shards: int) -> list[np.ndarray]:
    """The per-shard global-id maps :func:`write_shard_gids` wrote."""
    target = os.path.join(path, _GIDS_FILE)
    try:
        with np.load(target, allow_pickle=False) as archive:
            return [
                np.asarray(archive[f"gids_{s:03d}"], dtype=np.int64)
                for s in range(num_shards)
            ]
    except Exception as exc:
        raise CorruptArtifactError(
            f"shard id map {target!r} is unreadable ({exc}); "
            "the artifact is truncated or corrupt"
        ) from exc


def write_shard_gids(path: str, shard_gids: list[np.ndarray]) -> None:
    """Write the per-shard global-id maps archive (single layout owner).

    Every writer of a sharded artifact — :func:`save_index` for both
    engine kinds and :meth:`~repro.service.workers.WorkerPool.checkpoint`
    — goes through here so the archive's keying scheme has one home.
    """
    target = os.path.join(path, _GIDS_FILE)
    tmp = f"{target}.tmp-{os.getpid()}"
    try:
        # Through a file handle so numpy cannot append another ``.npz``
        # to the temp name; fsync before the rename makes the swap safe
        # against a crash (or an injected worker kill) mid-write.
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh,
                **{f"gids_{s:03d}": gids for s, gids in enumerate(shard_gids)},
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _read_meta(meta_path: str) -> dict[str, Any]:
    """Parse ``index.json``, raising a typed error on torn/corrupt files."""
    with open(meta_path) as fh:
        try:
            meta = json.load(fh)
        except ValueError as exc:
            raise CorruptArtifactError(
                f"index metadata {meta_path!r} is not valid JSON ({exc}); "
                "the artifact is truncated or corrupt"
            ) from exc
    if not isinstance(meta, dict):
        raise CorruptArtifactError(
            f"index metadata {meta_path!r} must hold a JSON object, "
            f"got {type(meta).__name__}"
        )
    missing = [
        key for key in ("spec", "cost_model", "n", "dim", "num_shards")
        if key not in meta
    ]
    if missing:
        raise CorruptArtifactError(
            f"index metadata {meta_path!r} is missing keys {missing}; "
            "the artifact is truncated or corrupt"
        )
    return meta


def save_index(index: Any, path: str) -> None:
    """Persist ``index`` (an :class:`repro.api.Index`) under directory ``path``."""
    from repro.api.facade import Index

    if not isinstance(index, Index):
        raise ConfigurationError(
            f"save_index persists repro.api.Index objects, got {type(index).__name__}"
        )
    engine = index.engine
    cost_model = index.cost_model
    meta: dict[str, Any] = {
        "format_version": _FORMAT_VERSION,
        "spec": index.spec.to_dict(),
        "cost_model": {"alpha": cost_model.alpha, "beta": cost_model.beta},
        "n": index.n,
        "dim": index.dim,
        "layout": _LAYOUT,
    }
    os.makedirs(path, exist_ok=True)
    from repro.service.workers import WorkerPool

    if isinstance(engine, WorkerPool):
        # The parent holds no shard state: each owning worker writes its
        # shards (compacting any overflow first), the parent writes the
        # id maps and metadata around them.
        meta["num_shards"] = engine.num_shards
        meta["next_shard"] = int(engine._next_shard)
        engine.save_shards(path)
        if engine.num_shards > 1:
            write_shard_gids(path, engine._shard_gids)
    elif isinstance(engine, ShardedHybridIndex):
        meta["num_shards"] = engine.num_shards
        meta["next_shard"] = int(engine._next_shard)
        for s, shard in enumerate(engine.shards):
            save_frozen_index(shard.index, os.path.join(path, _frozen_shard_dir(s)))
        write_shard_gids(path, engine._shard_gids)
    else:
        meta["num_shards"] = 1
        meta["next_shard"] = 0
        save_frozen_index(engine.index, os.path.join(path, _frozen_shard_dir(0)))
    # The metadata commits last and atomically: readers that find a
    # complete index.json are guaranteed complete shard artifacts too.
    write_json_atomic(os.path.join(path, _META_FILE), meta)


def open_index(
    path: str,
    num_workers: int | None = None,
    fault_policy: Any = None,
    fault_plan: Any = None,
    endpoints: list[Any] | None = None,
) -> Any:
    """Reopen an index saved by :func:`save_index`.

    Returns an :class:`repro.api.Index` whose radius, top-k and batch
    answers are bit-identical to the saved instance's: the per-shard
    hash kernels, buckets and sketches are reconstructed exactly, and
    the cost model is restored from its saved constants (calibration is
    never re-run).  A spec carrying ``execution="processes"`` is served
    through a :class:`~repro.service.workers.WorkerPool` — ``K`` worker
    processes mmap the saved frozen shards, no arrays are loaded in the
    parent; ``num_workers`` overrides the pool width, ``fault_policy``
    (a :class:`~repro.faults.FaultTolerancePolicy`) tunes its deadlines
    / retries / breaker, and ``fault_plan`` installs a deterministic
    :class:`~repro.faults.FaultPlan` for chaos drills.  ``endpoints``
    connects the pool to already-running shard servers
    (``repro.cli shard-serve``) over TCP instead of spawning local
    worker processes — one ``"host:port,host:port"`` replica group per
    worker slot.
    """
    from repro.api.facade import Index, _cache_from_spec, _ShardedBackend

    meta_path = os.path.join(path, _META_FILE)
    if not os.path.exists(meta_path):
        raise ConfigurationError(f"no saved index at {path!r} (missing {_META_FILE})")
    meta = _read_meta(meta_path)
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported index format version: {meta.get('format_version')!r}"
        )
    # Checked before any shard file is touched.  An artifact with no
    # layout tag predates it, and so holds dict-layout shards too.
    if meta.get("layout") != _LAYOUT:
        raise ConfigurationError(
            f'saved index at {path!r} is a "dict"-layout artifact (.npz '
            f"shards), which is no longer served; rebuild it with "
            f"Index.build and save it again"
        )
    spec = IndexSpec.from_dict(meta["spec"])
    if spec.execution == "processes":
        from repro.service.workers import WorkerPool

        pool = WorkerPool(
            path,
            num_workers=num_workers,
            policy=fault_policy,
            fault_plan=fault_plan,
            endpoints=endpoints,
        )
        return Index(_ShardedBackend(pool), spec=spec, cache=_cache_from_spec(spec))
    if num_workers is not None:
        raise ConfigurationError(
            "num_workers applies to execution=\"processes\" indexes only; "
            f"this artifact was saved with execution={spec.execution!r}"
        )
    if fault_policy is not None or fault_plan is not None:
        raise ConfigurationError(
            "fault_policy/fault_plan apply to execution=\"processes\" indexes "
            f"only; this artifact was saved with execution={spec.execution!r}"
        )
    if endpoints is not None:
        raise ConfigurationError(
            "endpoints apply to execution=\"processes\" indexes only; "
            f"this artifact was saved with execution={spec.execution!r}"
        )
    cost_model = CostModel(
        alpha=float(meta["cost_model"]["alpha"]), beta=float(meta["cost_model"]["beta"])
    )
    num_shards = int(meta["num_shards"])
    backend: Any
    try:
        shard_indexes = [
            load_frozen_index(os.path.join(path, _frozen_shard_dir(s)))
            for s in range(num_shards)
        ]
    except ReproError:
        raise
    except Exception as exc:
        raise CorruptArtifactError(
            f"saved index at {path!r} has unreadable shard data ({exc}); "
            "the artifact is truncated or corrupt"
        ) from exc
    if num_shards > 1:
        shard_gids = read_shard_gids(path, num_shards)
        shards = [
            HybridLSH.from_index(idx, spec.radius, cost_model, delta=spec.delta)
            for idx in shard_indexes
        ]
        backend_engine = ShardedHybridIndex.from_state(
            shards,
            shard_gids,
            metric=spec.metric,
            radius=spec.radius,
            cost_model=cost_model,
            next_shard=int(meta.get("next_shard", 0)),
            dedup=spec.dedup,
        )
        backend = _ShardedBackend(backend_engine)
    else:
        from repro.api.facade import _SingleBackend

        searcher = HybridSearcher(shard_indexes[0], cost_model)
        engine = BatchQueryEngine(searcher, radius=spec.radius, dedup=spec.dedup)
        backend = _SingleBackend(engine)
    return Index(backend, spec=spec, cache=_cache_from_spec(spec))
