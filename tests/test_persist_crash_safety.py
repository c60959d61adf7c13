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
    """A freshly saved frozen-layout artifact, one per test (mutated)."""
    index = Index.build(points, _spec())
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
