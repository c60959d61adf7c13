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
from repro.exceptions import ConfigurationError, CorruptArtifactError, ReproError
from repro.index.frozen import load_frozen_index, save_frozen_index
from repro.utils.fsio import write_json_atomic

__all__ = ["save_index", "open_index", "write_artifact"]

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

    Every writer of a sharded artifact — :func:`write_artifact` and
    :meth:`~repro.service.workers.WorkerPool.save_shards` (behind
    :func:`save_index` and ``WorkerPool.checkpoint``) — goes through
    here so the archive's keying scheme has one home.
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


def _write_meta(
    path: str, spec: IndexSpec, cost_model: CostModel, n: int, dim: int,
    num_shards: int, next_shard: int,
) -> None:
    """Commit ``index.json``: last and atomically, so readers that find a
    complete one are guaranteed complete shard artifacts too."""
    meta = {
        "format_version": _FORMAT_VERSION,
        "spec": spec.to_dict(),
        "cost_model": {"alpha": cost_model.alpha, "beta": cost_model.beta},
        "n": n,
        "dim": dim,
        "layout": _LAYOUT,
        "num_shards": num_shards,
        "next_shard": next_shard,
    }
    write_json_atomic(os.path.join(path, _META_FILE), meta)


def write_artifact(
    path: str,
    spec: IndexSpec,
    cost_model: CostModel,
    shards: list[Any],
    shard_gids: list[np.ndarray],
) -> None:
    """Write in-process frozen shards as a whole artifact under ``path``.

    The one writer of built shards: :meth:`repro.api.Index.build` writes
    the transient artifact its pool serves through here.  Shard ``s``
    owns the global ids ``shard_gids[s]``, dealt round-robin: new id
    ``i`` goes to shard ``i % K``.  ``index.json`` records ``next_shard = n % K`` for
    readers of the file; the pool derives it from ``n``.
    """
    os.makedirs(path, exist_ok=True)
    for s, shard in enumerate(shards):
        save_frozen_index(shard, os.path.join(path, _frozen_shard_dir(s)))
    if len(shards) > 1:
        write_shard_gids(path, shard_gids)
    n = sum(shard.n for shard in shards)
    _write_meta(
        path, spec, cost_model, n, shards[0].dim, len(shards), n % len(shards)
    )


def save_index(index: Any, path: str) -> None:
    """Persist ``index`` (an :class:`repro.api.Index`) under directory ``path``.

    The engine writes its shards (and, when sharded, the id maps) —
    a worker pool through the endpoints that own them, compacting any
    overflow first — and ``index.json`` is committed last around them.
    """
    from repro.api.facade import Index

    if not isinstance(index, Index):
        raise ConfigurationError(
            f"save_index persists repro.api.Index objects, got {type(index).__name__}"
        )
    os.makedirs(path, exist_ok=True)
    index.engine.save_shards(path)
    _write_meta(
        path, index.spec, index.cost_model, index.n, index.dim,
        index.num_shards, index.n % index.num_shards,
    )


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
    never re-run).  A sharded artifact, or one whose spec carries
    ``execution="processes"``, is served through a
    :class:`~repro.service.workers.WorkerPool` whose endpoints mmap the
    saved frozen shards — in this process (``"threads"``) or in worker
    processes; ``num_workers`` overrides a process pool's width, ``fault_policy``
    (a :class:`~repro.faults.FaultTolerancePolicy`) tunes its deadlines
    / retries / breaker, and ``fault_plan`` installs a deterministic
    :class:`~repro.faults.FaultPlan` for chaos drills.  ``endpoints``
    connects the pool to already-running shard servers
    (``repro.cli shard-serve``) over TCP instead of spawning local
    worker processes — one ``"host:port,host:port"`` replica group per
    worker slot.
    """
    from repro.api.facade import Index, _refuse_pool_arguments, _serve_index
    from repro.service.workers import WorkerPool

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
    _refuse_pool_arguments(
        spec, num_workers=num_workers, fault_policy=fault_policy,
        fault_plan=fault_plan, endpoints=endpoints,
    )
    if int(meta["num_shards"]) > 1 or spec.execution == "processes":
        pool = WorkerPool(
            path,
            num_workers=num_workers,
            policy=fault_policy,
            fault_plan=fault_plan,
            endpoints=endpoints,
        )
        return Index(pool, spec)
    cost_model = CostModel(
        alpha=float(meta["cost_model"]["alpha"]), beta=float(meta["cost_model"]["beta"])
    )
    try:
        index = load_frozen_index(os.path.join(path, _frozen_shard_dir(0)))
    except ReproError:
        raise
    except Exception as exc:
        raise CorruptArtifactError(
            f"saved index at {path!r} has unreadable shard data ({exc}); "
            "the artifact is truncated or corrupt"
        ) from exc
    return _serve_index(index, spec, cost_model)
