"""Crash-safe persistence: atomic saves, typed errors on torn artifacts.

Two halves of the same contract.  Writing: every file in a saved index
reaches its final name via fsync'd write-to-temp + atomic rename (the
metadata committing last), so a crash mid-save can never leave a
half-written file under a final name — and no ``.tmp-*`` / ``.old-*``
debris survives a successful save.  Reading: a truncated or corrupted
artifact fails :meth:`repro.api.Index.open` with the typed
:class:`~repro.exceptions.CorruptArtifactError` naming the damaged
piece, never a raw ``ValueError``/``EOFError`` from ``np.load`` or a
silently wrong index.
"""

import json
import os

import numpy as np
import pytest

from repro.api import Index, IndexSpec
from repro.exceptions import ConfigurationError, CorruptArtifactError
from repro.service.workers import WorkerPool

N, DIM, SHARDS = 300, 10, 2


def _spec(**overrides):
    base = dict(
        metric="l2",
        radius=1.1,
        num_tables=6,
        num_shards=SHARDS,
        layout="frozen",
        cost_ratio=6.0,
        seed=3,
    )
    base.update(overrides)
    return IndexSpec(**base)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(2)
    return rng.normal(size=(N, DIM))


@pytest.fixture()
def saved(tmp_path, points):
    """A freshly saved frozen-layout artifact, one per test (mutated);
    the low lazy threshold gives it sketched buckets to corrupt."""
    index = Index.build(points, _spec(lazy_threshold=1))
    path = str(tmp_path / "idx")
    index.save(path)
    index.close()
    return path


def _some_shard_array(path):
    shard_dir = os.path.join(path, "shard_000.frozen")
    return os.path.join(shard_dir, "members.npy")


class TestAtomicWrites:
    def test_save_leaves_no_staging_debris(self, saved):
        leftovers = [
            os.path.join(dirpath, name)
            for dirpath, dirnames, filenames in os.walk(saved)
            for name in list(dirnames) + list(filenames)
            if ".tmp-" in name or ".old-" in name
        ]
        assert leftovers == []

    def test_resave_over_existing_artifact_stays_loadable(self, saved, points):
        index = Index.open(saved)
        try:
            index.save(saved)
        finally:
            index.close()
        reopened = Index.open(saved)
        try:
            assert reopened.n == N
            result = reopened.query(points[:1])[0]
            assert 0 in result.ids
        finally:
            reopened.close()

    def test_metadata_is_valid_json_with_required_keys(self, saved):
        with open(os.path.join(saved, "index.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        for key in ("spec", "cost_model", "n", "dim", "num_shards"):
            assert key in meta


class TestTornArtifacts:
    def test_truncated_shard_array_raises_typed_error(self, saved):
        target = _some_shard_array(saved)
        with open(target, "rb") as fh:
            head = fh.read(20)
        with open(target, "wb") as fh:
            fh.write(head)
        with pytest.raises(CorruptArtifactError, match="members"):
            Index.open(saved)

    def test_missing_shard_array_raises_typed_error(self, saved):
        os.remove(_some_shard_array(saved))
        with pytest.raises(CorruptArtifactError, match="missing"):
            Index.open(saved)

    def test_corrupt_index_metadata_raises_typed_error(self, saved):
        meta_path = os.path.join(saved, "index.json")
        with open(meta_path, "w", encoding="utf-8") as fh:
            fh.write('{"spec": {"metric": "l2"')  # torn mid-write
        with pytest.raises(CorruptArtifactError):
            Index.open(saved)

    def test_metadata_missing_required_key_raises_typed_error(self, saved):
        meta_path = os.path.join(saved, "index.json")
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        del meta["num_shards"]
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        with pytest.raises(CorruptArtifactError, match="num_shards"):
            Index.open(saved)

    def test_corrupt_shard_config_raises_typed_error(self, saved):
        config_path = os.path.join(saved, "shard_000.frozen", "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write("not json {")
        with pytest.raises(CorruptArtifactError):
            Index.open(saved)

    def test_corrupt_gids_archive_raises_typed_error(self, saved):
        gids_path = os.path.join(saved, "shard_gids.npz")
        with open(gids_path, "wb") as fh:
            fh.write(b"PK\x03\x04 torn")
        with pytest.raises(CorruptArtifactError):
            Index.open(saved)

    def test_missing_metadata_stays_a_configuration_error(self, saved):
        os.remove(os.path.join(saved, "index.json"))
        with pytest.raises(ConfigurationError):
            Index.open(saved)

    def test_worker_pool_surfaces_shard_corruption(self, saved):
        """The process pool's startup ack path keeps the typed error."""
        target = _some_shard_array(saved)
        with open(target, "rb") as fh:
            head = fh.read(20)
        with open(target, "wb") as fh:
            fh.write(head)
        with pytest.raises(CorruptArtifactError):
            WorkerPool(saved, num_workers=1)


def _rewrite(saved, name, change):
    """Replace one array of shard 0 by ``change(array)`` — a *valid*
    ``.npy`` file whose contents break the frozen layout's invariants."""
    target = os.path.join(saved, "shard_000.frozen", f"{name}.npy")
    np.save(target, change(np.load(target)))


def _swap_first_two(array):
    array[[0, 1]] = array[[1, 0]]
    return array


def _set(index, value):
    """Set one entry to ``value`` cast to the array's dtype the way a C
    writer would (-3 in a ``uint32`` file is ``2**32 - 3``)."""

    def change(array):
        array[index] = np.array(value).astype(array.dtype)
        return array

    return change


class TestHostileFrozenArrays:
    """A frozen artifact's bucket arrays and configuration are validated
    when it opens: a well-formed ``.npy`` with the wrong dtype, shape or
    contents, or a config value of the wrong type or range, is a
    :class:`CorruptArtifactError` there — never an ``IndexError``, a raw
    ``TypeError`` (or a silently wrong bucket, or another bucket's
    registers) on some later query or insert."""

    @pytest.mark.parametrize(
        "name, change, complaint",
        [
            pytest.param("table_slices", lambda a: a[:-1], "table_slices", id="slices-short"),
            pytest.param("table_slices", _set(2, 10**6), "table_slices", id="slices-not-monotone"),
            pytest.param("table_slices", _set(-1, 3), "table_slices", id="slices-end-early"),
            pytest.param("table_slices", lambda a: a.astype(np.int32), "table_slices.npy is 1-d int32", id="slices-int32"),
            pytest.param("table_slices", lambda a: a + (np.arange(a.size) == 1), "another table's tag", id="slices-shifted"),
            pytest.param("key64", _swap_first_two, "strictly increasing", id="key64-swapped"),
            pytest.param("key64", lambda a: a[np.maximum(np.arange(a.size) - 1, 0)], "strictly increasing", id="key64-duplicate"),
            pytest.param("key64", _set(-1, 0), "strictly increasing", id="key64-last-zeroed"),
            pytest.param("key64", lambda a: a.astype(np.int64), "key64.npy is 1-d int64", id="key64-signed"),
            pytest.param("key64", lambda a: a[:-1], "table_slices", id="key64-short"),
            pytest.param("members", lambda a: a[:-1], "CSR", id="members-short"),
            pytest.param("members", lambda a: a.astype(np.float64), "members.npy is 1-d float64", id="members-float"),
            pytest.param("members", lambda a: a.astype(np.int64), "members.npy is 1-d int64", id="members-eight-byte"),
            pytest.param("members", _set(7, N // SHARDS + 7), r"outside \[0, 150\)", id="members-past-n"),
            pytest.param("members", _set(7, -3), r"outside \[0, 150\)", id="members-negative"),
            pytest.param("offsets", _set(-1, 10**9), "CSR", id="offsets-end-past-members"),
            pytest.param("offsets", _set(3, -7), "CSR", id="offsets-not-monotone"),
            pytest.param("offsets", lambda a: a.astype(np.int64), "offsets.npy is 1-d int64", id="offsets-eight-byte"),
            pytest.param("sketched", _swap_first_two, "strictly increasing", id="sketched-unsorted"),
            pytest.param("sketched", lambda a: a[np.maximum(np.arange(a.size) - 1, 0)], "strictly increasing", id="sketched-duplicate"),
            pytest.param("sketched", _set(-1, 10**6), "bucket ids below", id="sketched-past-last-bucket"),
            pytest.param("sketched", lambda a: a[:-1], "register rows", id="sketched-short"),
            pytest.param("sketched", lambda a: a.astype(np.int32), "sketched.npy is 1-d int32", id="sketched-signed"),
            pytest.param("registers", lambda a: a[:, :3], "register matrix", id="registers-narrow"),
            pytest.param("registers", lambda a: a.astype(np.int16), "registers.npy is 2-d int16", id="registers-int16"),
        ],
    )
    def test_broken_invariant_is_a_typed_error_at_open(
        self, saved, name, change, complaint
    ):
        _rewrite(saved, name, change)
        with pytest.raises(CorruptArtifactError, match=complaint):
            Index.open(saved)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("hll_precision", "7"),
            ("hll_precision", -1),
            ("dim", "6"),
            ("w", "x"),
            ("refreeze_threshold", "x"),
            ("hll_seed", "x"),
            ("variant", "bogus"),
            ("dedup", "bogus"),
            ("lazy_threshold", "x"),
            ("with_sketches", "no"),
        ],
    )
    def test_hostile_config_value_is_a_typed_error_at_open(self, saved, key, value):
        config_path = os.path.join(saved, "shard_000.frozen", "config.json")
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        assert key in config
        config[key] = value
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        with pytest.raises(CorruptArtifactError, match=key):
            Index.open(saved)

    @pytest.mark.parametrize("name", ["key64", "table_slices"])
    def test_truncated_address_arrays_raise_typed_error(self, saved, name):
        target = os.path.join(saved, "shard_000.frozen", f"{name}.npy")
        size = os.path.getsize(target)
        with open(target, "rb") as fh:
            head = fh.read(size - 9)
        with open(target, "wb") as fh:
            fh.write(head)
        with pytest.raises(CorruptArtifactError, match=name):
            Index.open(saved)

    @pytest.mark.parametrize("salt", ["missing", -1, "0", 1.5])
    def test_bad_salt_in_shard_config_raises_typed_error(self, saved, salt):
        config_path = os.path.join(saved, "shard_000.frozen", "config.json")
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        assert config["format_version"] == 5 and config["key_salt"] == 0
        if salt == "missing":
            del config["key_salt"]
        else:
            config["key_salt"] = salt
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        with pytest.raises(CorruptArtifactError, match="key_salt"):
            Index.open(saved)

    def test_a_wrong_salt_is_refused_naming_key64(self, saved):
        """A wrong salt would turn every hit into a silent miss; one
        member point per table is re-hashed at open to catch it."""
        config_path = os.path.join(saved, "shard_000.frozen", "config.json")
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        config["key_salt"] = 7
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        with pytest.raises(CorruptArtifactError, match=r"key64\.npy .* under key_salt 7"):
            Index.open(saved)

    def test_a_swapped_in_key64_is_refused_naming_it(self, saved):
        """Another index's addresses — here each table's own, with their
        low bits scrambled and re-sorted, so every structural check still
        passes — are caught by the same re-hash."""
        slices = np.load(os.path.join(saved, "shard_000.frozen", "table_slices.npy"))

        def foreign(key64):
            key64 = key64 ^ np.uint64(0x5A5A5A5A)  # the tag bits stay
            for lo, hi in zip(slices[:-1], slices[1:]):
                key64[lo:hi].sort()
            return key64

        _rewrite(saved, "key64", foreign)
        with pytest.raises(CorruptArtifactError, match=r"key64\.npy .* under key_salt 0"):
            Index.open(saved)
