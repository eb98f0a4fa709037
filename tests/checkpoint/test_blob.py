"""Checkpoint blob format: magic, digest verification, schema checks."""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.checkpoint import build_blob, load_blob, save_blob, validate_blob
from repro.checkpoint.blob import MAGIC, SCHEMA_VERSION
from repro.errors import CheckpointError


def small_blob() -> dict:
    return build_blob(
        state={"engine": None, "controller": None, "events": None},
        created={"period_index": 3, "time_s": 9.0},
        summary={"note": "test"},
    )


def write_with_schema(path, body: dict, schema_version: int) -> None:
    """Write ``body`` as a digest-valid blob claiming ``schema_version``."""
    raw = pickle.dumps({**body, "schema_version": schema_version})
    digest = hashlib.sha256(raw).hexdigest().encode("ascii")
    path.write_bytes(MAGIC + b"\n" + digest + b"\n" + raw)


class TestRoundTrip:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_blob(path, small_blob())
        loaded = load_blob(path)
        assert loaded == small_blob()
        assert loaded["schema_version"] == SCHEMA_VERSION

    def test_file_layout(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_blob(path, small_blob())
        magic, digest, _body = path.read_bytes().split(b"\n", 2)
        assert magic == MAGIC
        assert len(digest) == 64  # sha256 hex


class TestRejection:
    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not a checkpoint")
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_blob(path)

    def test_corruption_detected_before_unpickling(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_blob(path, small_blob())
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip one bit in the pickled body
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            load_blob(path)

    def test_unsupported_schema_version_rejected(self, tmp_path):
        body = small_blob()
        body["schema_version"] = 99
        raw = pickle.dumps(body)
        digest = hashlib.sha256(raw).hexdigest().encode("ascii")
        path = tmp_path / "future.ckpt"
        path.write_bytes(MAGIC + b"\n" + digest + b"\n" + raw)
        with pytest.raises(CheckpointError, match="unsupported checkpoint schema"):
            load_blob(path)

    def test_schema_1_blob_refused(self, tmp_path):
        """Version 2 changed the sampler and fleet-history layouts; a
        version 1 blob must not be restored into this build."""
        assert SCHEMA_VERSION == 2
        path = tmp_path / "old.ckpt"
        write_with_schema(path, small_blob(), 1)
        with pytest.raises(CheckpointError, match="schema version 1"):
            load_blob(path)

    def test_validate_requires_schema_keys(self):
        with pytest.raises(CheckpointError, match="missing keys"):
            validate_blob({"format": "repro-checkpoint"})
        with pytest.raises(CheckpointError, match="expected dict"):
            validate_blob([1, 2])

    def test_save_refuses_invalid_body_and_writes_nothing(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        with pytest.raises(CheckpointError):
            save_blob(path, {"format": "repro-checkpoint"})
        assert not path.exists()
