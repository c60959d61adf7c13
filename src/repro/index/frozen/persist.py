"""Persistence: a frozen index as a directory of plain ``.npy`` files.

The arrays of :mod:`repro.index.frozen.tables` persist as format v5
(:func:`save_frozen_index`; ``key64.npy`` with the mix salt in
``config.json`` and no hash rows, the four-byte ``members`` /
``offsets`` and ``sketched.npy``), so reopening a saved index
(:func:`load_frozen_index`) is ``np.load(..., mmap_mode="r")`` per
array — zero-copy, no bucket reconstruction, the first query pages in
only what it touches.  At open one member point per table is re-hashed
through the stored kernel: its address must be the ``key64`` of the
bucket that files it, which catches a wrong salt or a foreign
``key64.npy``.

The loader reads v5 only.  ``python -m repro.cli migrate PATH``
(:func:`migrate`) rewrites an older directory from its configuration,
``points.npy`` and hash kernel alone: old bucket arrays hold nothing
those do not, so :meth:`FrozenLSHIndex.build` re-hashing the points
rebuilds them, and a later layout change adds nothing to it.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import shutil

import numpy as np

from repro.exceptions import ConfigurationError, CorruptArtifactError
from repro.hashing.bit_sampling import BitSamplingLSH
from repro.hashing.pstable import PStableLSH
from repro.hashing.simhash import SimHashLSH
from repro.index.frozen.index import FrozenLSHIndex
from repro.index.frozen.tables import FrozenTables, _check_capacity, _table_tags
from repro.sketches.hyperloglog import _MAX_PRECISION as _P_MAX, _MIN_PRECISION as _P_MIN
from repro.utils.fsio import commit_dir, staging_path, write_json_atomic

_FROZEN_FORMAT_VERSION = 5
_CONFIG_FILE = "config.json"
_INDEX_META_FILE = "index.json"  # of an Index.save directory around the shards

#: The validated bucket arrays of a saved index: each file's dtype and ndim.
_LAYOUT = {
    "key64": ("uint64", 1),
    "table_slices": ("int64", 1),
    "offsets": ("uint32", 1),
    "members": ("uint32", 1),
    "sketched": ("uint32", 1),
    "registers": ("uint8", 2),
}

#: The hash families by config name, and the kernel arrays
#: (``kernel_<name>.npy``) of each, sorted as :func:`save_frozen_index`
#: lists them.
_FAMILIES = {
    "pstable": (PStableLSH, ["offsets", "projections"]),
    "simhash": (SimHashLSH, ["planes"]),
    "bit_sampling": (BitSamplingLSH, ["coords"]),
}


def _ints(low: int | None = None, high: int | None = None):
    """A check for a JSON integer (not a bool) in ``[low, high]``."""
    return lambda value, _: (
        type(value) is int
        and (low is None or value >= low)
        and (high is None or value <= high)
    )


def _one_of(*choices: str):
    return lambda value, _: isinstance(value, str) and value in choices


def _when(key: str, *values):
    """Whether a config needs a key: its ``key`` is one of ``values``."""
    return lambda config: config.get(key) in values


def _valid_blocks(blocks, config: dict) -> bool:
    """One non-empty list of coordinates in ``[0, dim)`` per table."""
    coordinate = _ints(0, config["dim"] - 1)
    return (
        isinstance(blocks, list) and len(blocks) == config["num_tables"]
        and all(isinstance(b, list) and b and all(coordinate(i, config) for i in b) for b in blocks)
    )


_HASHED = _when("variant", "multiprobe")
_PSTABLE = _when("family", "pstable")

#: Every ``config.json`` key the loader and :func:`migrate` read:
#: ``key -> (whether a config needs it (None: every one), what it must
#: be, check(value, config))``, checked in this order (a check may read
#: an earlier key).  A hostile value fails at open, typed and naming
#: its key, never as a raw ``TypeError`` / ``ValueError`` there or later.
_CONFIG_KEYS = {
    "variant": (
        None, 'multiprobe or covering (`python -m repro.cli migrate PATH` rewrites "plain")',
        _one_of("multiprobe", "covering"),
    ),
    "num_tables": (None, "an int >= 1", _ints(1)),
    "dim": (None, "an int >= 1", _ints(1)),
    "hll_precision": (None, f"an int in [{_P_MIN}, {_P_MAX}]", _ints(_P_MIN, _P_MAX)),
    "hll_seed": (None, "an int", _ints()),
    "lazy_threshold": (None, "null or an int >= 0", lambda v, c: v is None or _ints(0)(v, c)),
    "with_sketches": (None, "true or false", lambda v, _: type(v) is bool),
    "dedup": (None, "scalar or vectorized", _one_of("scalar", "vectorized")),
    "refreeze_threshold": (None, "an int >= 0", _ints(0)),
    "key_salt": (_when("format_version", _FROZEN_FORMAT_VERSION), "an int >= 0", _ints(0)),
    "radius": (_when("variant", "covering"), "an int >= 0", _ints(0)),
    "blocks": (_when("variant", "covering"), "a list of coordinates per table", _valid_blocks),
    "k": (_HASHED, "an int >= 1", _ints(1)),
    "family": (_HASHED, f"one of {', '.join(_FAMILIES)}", _one_of(*_FAMILIES)),
    "kernel_params": (_HASHED, "its family's arrays", lambda v, c: v == _FAMILIES[c["family"]][1]),
    "p": (_PSTABLE, "1 or 2", _ints(1, 2)),
    "w": (_PSTABLE, "a positive number", lambda v, _: type(v) in (int, float) and v > 0),
    "num_probes": (_HASHED, "an int >= 0", _ints(0)),
}


def _corrupt(path: str, what: str) -> CorruptArtifactError:
    return CorruptArtifactError(
        f"frozen index at {path!r}: {what}; the artifact is truncated or corrupt"
    )


def _read_config(path: str, name: str = _CONFIG_FILE) -> dict:
    """The parsed ``config.json`` (or ``name``) of the directory ``path``."""
    config_path = os.path.join(path, name)
    if not os.path.exists(config_path):
        raise ConfigurationError(f"no frozen index at {path!r} (missing {name})")
    with open(config_path) as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:
            raise CorruptArtifactError(
                f"frozen index config {config_path!r} is not valid JSON "
                f"({exc}); the artifact is truncated or corrupt"
            ) from exc
    if not isinstance(config, dict):
        raise CorruptArtifactError(
            f"frozen index config {config_path!r} must hold a JSON object, "
            f"got {type(config).__name__}"
        )
    return config


def _check_config(config: dict, path: str) -> None:
    """Every key of :data:`_CONFIG_KEYS` the config needs, present and valid."""
    for key, (needed, expected, check) in _CONFIG_KEYS.items():
        if needed is not None and not needed(config):
            continue
        if key not in config:
            raise _corrupt(path, f"config.json is missing key {key!r}")
        if not check(config[key], config):
            raise _corrupt(path, f"{key} is {config[key]!r:.80}, expected {expected}")


def _load_array(path: str, name: str, mmap_mode: str | None) -> np.ndarray:
    """``path/name.npy``, as a plain-ndarray *view* of the mapping (its
    ``.base``): file-backed and zero-copy all the same, but the query
    path's takes, slices and ufuncs pay no ``np.memmap`` subclass hooks
    (``__getitem__`` / ``__array_finalize__``)."""
    target = os.path.join(path, f"{name}.npy")
    try:
        return np.asarray(np.load(target, mmap_mode=mmap_mode, allow_pickle=False))
    except FileNotFoundError as exc:
        raise CorruptArtifactError(
            f"frozen index at {path!r} is missing {name}.npy; "
            "the artifact is incomplete"
        ) from exc
    except (ValueError, OSError, EOFError) as exc:
        raise CorruptArtifactError(
            f"frozen index array {target!r} is unreadable ({exc}); "
            "the artifact is truncated or corrupt"
        ) from exc


def save_frozen_index(index: FrozenLSHIndex, path: str) -> None:
    """Persist a frozen index under directory ``path`` (plain ``.npy`` files).

    Any live overflow run is compacted first (:meth:`refreeze`), so
    the artifact is pure CSR arrays.  Every array lands in its own
    uncompressed ``.npy`` file — unlike ``.npz`` members these can be
    reopened with ``np.load(..., mmap_mode="r")``, which is what makes
    :func:`load_frozen_index` zero-copy.
    """
    if not isinstance(index, FrozenLSHIndex):
        raise ConfigurationError(
            f"save_frozen_index persists FrozenLSHIndex objects, "
            f"got {type(index).__name__}"
        )
    index._require_built()
    config = {
        "format_version": _FROZEN_FORMAT_VERSION,
        "layout": "frozen",
        "variant": index.variant,
        "num_tables": index.num_tables,
        "hll_precision": index.hll_precision,
        "hll_seed": index.hll_seed,
        "lazy_threshold": index.lazy_threshold,
        "with_sketches": index.with_sketches,
        "dedup": index.dedup,
        "dim": index.dim,
        "refreeze_threshold": index.refreeze_threshold,
    }
    if index.variant == "covering":
        # No hash kernel to persist: the block permutation *is* the
        # hash, and it is plain JSON.
        batched = None
        config["radius"] = index.radius
        config["blocks"] = [block.tolist() for block in index._blocks]
    else:
        batched = index._batched
        # Refuse, before anything is written, a kernel the loader could
        # not rebuild: its artifact would fail at open, and the swap
        # would already have replaced whatever sat at ``path``.
        if sorted(batched.params) != _FAMILIES.get(batched.kind, (None, None))[1]:
            raise ConfigurationError(
                f"cannot persist a {batched.kind!r} kernel with arrays "
                f"{sorted(batched.params)}: the loader rebuilds "
                f"{', '.join(_FAMILIES)} from their own arrays only"
            )
        config["k"] = index.k
        config["family"] = batched.kind
        config["kernel_params"] = sorted(batched.params)
        if batched.kind == "pstable":
            config["p"] = index.family.p
            config["w"] = index.family.w
        config["num_probes"] = index.num_probes
    index.refreeze()
    frozen = index.frozen
    config["key_salt"] = frozen.salt
    arrays = {"points": index.points}
    arrays.update(
        (name, getattr(frozen, name)) for name in _LAYOUT
    )
    if batched is not None:
        for name, array in batched.params.items():
            arrays[f"kernel_{name}"] = array
    # Stage the whole artifact in a sibling temp directory, fsync every
    # file, then swap it in with one rename pair (utils.fsio): a crash
    # mid-save leaves the previous artifact intact instead of a mixture
    # of old and new arrays.  A re-saved index may hold arrays that are
    # memory-mapped from the files being replaced (open -> save back to
    # the same path); the retired directory's inodes stay valid for
    # those mappings until they close, while fresh opens only ever see
    # a complete directory.
    staged = staging_path(path)
    shutil.rmtree(staged, ignore_errors=True)
    os.makedirs(staged)
    try:
        for name, array in arrays.items():
            with open(os.path.join(staged, f"{name}.npy"), "wb") as fh:
                np.save(fh, np.ascontiguousarray(array))
                fh.flush()
                os.fsync(fh.fileno())
        write_json_atomic(os.path.join(staged, _CONFIG_FILE), config)
        commit_dir(staged, path)
    except BaseException:
        shutil.rmtree(staged, ignore_errors=True)
        raise


def _checked_tables(arrays: dict[str, np.ndarray], config: dict, path: str) -> FrozenTables:
    """The bucket arrays as :class:`FrozenTables`, validated.

    Checks every invariant :meth:`FrozenTables.locate` and the CSR
    gathers index by — dtypes, shapes, ``key64`` strictly increasing
    with each table's tag inside its slice, offsets rising from 0 to the
    member count, every member id inside ``[0, n)``, ``sketched``
    strictly increasing below the bucket count with one entry per
    register row — so a damaged artifact fails here, typed, and never as
    an ``IndexError``, another row's candidate or another bucket's
    registers on some later query.  That ``key64`` addresses the stored
    points under ``key_salt`` needs the kernel: :func:`_check_addresses`.
    """

    corrupt = functools.partial(_corrupt, path)
    num_tables = config["num_tables"]
    n = arrays["points"].shape[0]
    _check_capacity(n, num_tables)
    for name, (dtype, ndim) in _LAYOUT.items():
        array = arrays[name]
        if array.dtype != dtype or array.ndim != ndim:
            raise corrupt(
                f"{name}.npy is {array.ndim}-d {array.dtype}, expected {ndim}-d {dtype}"
            )
    key64, slices = arrays["key64"], arrays["table_slices"]
    offsets, members = arrays["offsets"], arrays["members"]
    registers = arrays["registers"]
    buckets = key64.size
    if (
        slices.shape != (num_tables + 1,)
        or slices[0] != 0
        or slices[-1] != buckets
        or (np.diff(slices) < 0).any()
    ):
        raise corrupt(
            f"table_slices must rise from 0 to the {buckets} buckets in "
            f"{num_tables + 1} steps"
        )
    if not (key64[1:] > key64[:-1]).all():
        raise corrupt("key64 is not strictly increasing")
    tags = _table_tags(key64, num_tables)
    if not np.array_equal(tags, np.repeat(np.arange(num_tables), np.diff(slices))):
        raise corrupt("key64 carries another table's tag inside a table's slice")
    if (
        offsets.shape != (buckets + 1,)
        or offsets[0] != 0
        or offsets[-1] != members.size
        or (offsets[1:] < offsets[:-1]).any()
    ):
        raise corrupt("offsets and members do not describe one CSR structure")
    if members.size and int(members.max()) >= n:  # would bleed into another row's tag
        raise corrupt(f"members holds ids outside [0, {n})")
    if registers.shape[1] != 1 << config["hll_precision"]:
        raise corrupt(
            f"registers.npy has {registers.shape[1]} columns; the register matrix "
            f"of hll_precision {config['hll_precision']} has {1 << config['hll_precision']}"
        )
    sketched = arrays["sketched"]
    if sketched.shape != (registers.shape[0],):
        raise corrupt(
            f"sketched.npy lists {sketched.size} buckets for "
            f"{registers.shape[0]} register rows"
        )
    if sketched.size and not (
        (sketched[1:] > sketched[:-1]).all() and int(sketched[-1]) < buckets
    ):
        raise corrupt(
            f"sketched is not a strictly increasing list of bucket ids below {buckets}"
        )
    return FrozenTables(
        num_tables=num_tables,
        salt=config["key_salt"],
        **{name: arrays[name] for name in _LAYOUT},
    )


def _check_addresses(index: FrozenLSHIndex, path: str) -> None:
    """Re-hash one member point per non-empty table through the stored
    kernel: its address under ``key_salt`` must be the ``key64`` of the
    table's first bucket, which files it.  A wrong salt, kernel or
    ``key64.npy`` fails here instead of turning hits into misses."""
    frozen = index.frozen
    tables = np.flatnonzero(np.diff(frozen.table_slices) > 0)
    if not tables.size:
        return
    buckets = frozen.table_slices[tables]
    ids = frozen.members[frozen.offsets[buckets]].astype(np.intp)
    rows = index._insert_rows(np.asarray(index.points[ids]))  # (T, L, w)
    addresses = frozen.addresses(rows)[np.arange(tables.size), tables]
    if not np.array_equal(addresses, frozen.key64[buckets]):
        raise _corrupt(path, f"key64.npy does not address points.npy under key_salt {frozen.salt}")


def _stored_index(
    config: dict,
    path: str,
    mmap_mode: str | None,
    points: np.ndarray | None,
    frozen: FrozenTables | None,
) -> FrozenLSHIndex:
    """The index a checked config describes, its hash kernel rebuilt from
    the stored ``kernel_*.npy`` arrays (``points`` / ``frozen`` ``None``:
    unbuilt, see :meth:`FrozenLSHIndex.from_state`)."""
    common = dict(
        points=points,
        frozen=frozen,
        hll_precision=config["hll_precision"],
        hll_seed=config["hll_seed"],
        lazy_threshold=config["lazy_threshold"],
        with_sketches=config["with_sketches"],
        dedup=config["dedup"],
        refreeze_threshold=config["refreeze_threshold"],
    )
    if config["variant"] == "covering":
        from repro.index.frozen_probing import FrozenCoveringLSHIndex

        return FrozenCoveringLSHIndex.from_state(
            dim=config["dim"], radius=config["radius"], blocks=config["blocks"], **common
        )
    kernel_params = {
        name: _load_array(path, f"kernel_{name}", mmap_mode)
        for name in config["kernel_params"]
    }
    name, dim = config["family"], config["dim"]
    family = (
        PStableLSH(dim, w=float(config["w"]), p=config["p"])
        if name == "pstable"
        else _FAMILIES[name][0](dim)
    )
    k, num_tables = config["k"], config["num_tables"]
    batched = family.batch_from_params(kernel_params, k, num_tables)
    return FrozenLSHIndex.from_state(
        family=family,
        batched=batched,
        k=k,
        num_tables=num_tables,
        num_probes=config["num_probes"],
        **common,
    )


def load_frozen_index(path: str, mmap_mode: str | None = "r") -> FrozenLSHIndex:
    """Reopen a frozen index saved by :func:`save_frozen_index`.

    All bucket arrays (and the data matrix) come back memory-mapped
    with the default ``mmap_mode="r"`` — as plain-ndarray views of the
    mappings — with no bucket reconstruction, no rehashing and answers
    bit-identical to the saved instance.  Pass ``mmap_mode=None`` to
    materialise everything in RAM instead.  The configuration
    (:data:`_CONFIG_KEYS`), the bucket arrays (:func:`_checked_tables`)
    and their addresses (:func:`_check_addresses`) are validated on the
    way in.  A directory of another format is a
    :class:`~repro.exceptions.ConfigurationError` naming
    ``python -m repro.cli migrate``.
    """
    config = _read_config(path)
    version = config.get("format_version")
    if version != _FROZEN_FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported frozen index version {version!r} at {path!r}: this release "
            f"reads format {_FROZEN_FORMAT_VERSION} only; `python -m repro.cli migrate {path}` "
            f"rewrites a directory of an older format in format {_FROZEN_FORMAT_VERSION}"
        )
    _check_config(config, path)
    arrays = {name: _load_array(path, name, mmap_mode) for name in ("points", *_LAYOUT)}
    frozen = _checked_tables(arrays, config, path)
    index = _stored_index(config, path, mmap_mode, arrays["points"], frozen)
    _check_addresses(index, path)
    return index


def _relabel_plain(document: dict) -> bool:
    """Relabel a ``"variant": "plain"`` config or spec (its ``num_probes``
    was never read) as the index it was built as; whether it was one."""
    if document.get("variant") == "plain":
        document.update(variant="multiprobe", num_probes=0)
        return True
    return False


def migrate(path: str) -> list[str]:
    """Rewrite every frozen index under ``path`` older than the current
    format in it.

    ``path`` is a frozen index directory or an ``Index.save`` directory
    (each of its ``shard_NNN.frozen``).  Only an old directory's config,
    ``points.npy`` and ``kernel_*.npy`` are read: :meth:`FrozenLSHIndex.build`
    re-hashes the points, :func:`save_frozen_index` replaces the
    directory atomically.  A config or ``index.json`` spec labelled
    ``"variant": "plain"`` is written as ``"multiprobe"`` at zero
    probes, ``index.json`` last.  Returns the rewritten directories (and
    ``index.json``); a current directory is left untouched.
    """
    meta_path = os.path.join(path, _INDEX_META_FILE)
    if os.path.exists(os.path.join(path, _CONFIG_FILE)):
        targets = [path]
    else:
        targets = sorted(glob.glob(os.path.join(glob.escape(path), "shard_*.frozen")))
        if not targets:
            raise ConfigurationError(
                f"no frozen index at {path!r} (neither {_CONFIG_FILE} nor "
                "shard_*.frozen directories)"
            )
    migrated = []
    for target in targets:
        config = _read_config(target)
        version = config.get("format_version")
        if version == _FROZEN_FORMAT_VERSION:
            continue
        if version not in range(1, _FROZEN_FORMAT_VERSION):
            raise ConfigurationError(
                f"unsupported frozen index version {version!r} at {target!r}: "
                f"migrate rewrites formats 1-{_FROZEN_FORMAT_VERSION - 1}"
            )
        _relabel_plain(config)
        _check_config(config, target)
        points = _load_array(target, "points", None)
        index = _stored_index(config, target, None, None, None).build(points)
        save_frozen_index(index, target)
        migrated.append(target)
    meta = _read_config(path, _INDEX_META_FILE) if os.path.exists(meta_path) else {}
    if isinstance(meta.get("spec"), dict) and _relabel_plain(meta["spec"]):
        write_json_atomic(meta_path, meta)
        migrated.append(meta_path)
    return migrated
