"""Checkpoint blob format: versioned, schema-checked, digest-verified.

A checkpoint on disk is::

    REPROCKPT1\\n
    <sha256 hex of the pickled body>\\n
    <pickled body bytes>

The body is a plain dict (``format``/``schema_version``/``repro_version``
headers, a human-inspectable ``summary``, and the tagged ``state`` tree
produced by :mod:`repro.checkpoint.state`). The digest line lets ``load``
reject corruption before unpickling; writes go through
:func:`repro.atomicio.atomic_write_bytes`, so a crash mid-save leaves the
previous checkpoint intact rather than a torn file.

Pickle is used only as a byte-exact container for the already-sanitized
tagged tree (primitives, lists, dicts, bytes) — never for live objects,
which is what makes blobs loadable across process restarts.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path

from .._version import __version__
from ..atomicio import atomic_write_bytes
from ..errors import CheckpointError

__all__ = [
    "FORMAT",
    "SCHEMA_VERSION",
    "MAGIC",
    "build_blob",
    "validate_blob",
    "save_blob",
    "load_blob",
]

FORMAT = "repro-checkpoint"
#: Version 2: samplers pack their prefetched block as one float64 array and
#: SoA fleets keep their period history as one array.
SCHEMA_VERSION = 2
MAGIC = b"REPROCKPT1"

_REQUIRED_KEYS = ("format", "schema_version", "repro_version", "created", "summary", "state")


def build_blob(state: dict, created: dict, summary: dict) -> dict:
    """Assemble a schema-complete checkpoint body."""
    return {
        "format": FORMAT,
        "schema_version": SCHEMA_VERSION,
        "repro_version": __version__,
        "created": dict(created),
        "summary": dict(summary),
        "state": state,
    }


def validate_blob(blob: object) -> dict:
    """Check the blob against the schema; returns it typed as a dict."""
    if not isinstance(blob, dict):
        raise CheckpointError(f"checkpoint body is {type(blob).__name__}, expected dict")
    missing = [key for key in _REQUIRED_KEYS if key not in blob]
    if missing:
        raise CheckpointError(f"checkpoint body missing keys: {', '.join(missing)}")
    if blob["format"] != FORMAT:
        raise CheckpointError(f"not a repro checkpoint (format={blob['format']!r})")
    if blob["schema_version"] != SCHEMA_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint schema version {blob['schema_version']!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    if not isinstance(blob["state"], dict):
        raise CheckpointError("checkpoint state tree is not a dict")
    return blob


def save_blob(path: str | Path, blob: dict) -> Path:
    """Validate and atomically write ``blob`` to ``path``."""
    validate_blob(blob)
    body = pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    return atomic_write_bytes(path, MAGIC + b"\n" + digest + b"\n" + body)


def load_blob(path: str | Path) -> dict:
    """Read, digest-verify, and schema-check a checkpoint file."""
    raw = Path(path).read_bytes()
    magic, _, rest = raw.partition(b"\n")
    if magic != MAGIC:
        raise CheckpointError(f"{path}: not a repro checkpoint file")
    digest, _, body = rest.partition(b"\n")
    actual = hashlib.sha256(body).hexdigest().encode("ascii")
    if digest != actual:
        raise CheckpointError(f"{path}: checkpoint digest mismatch (file corrupt)")
    try:
        blob = pickle.loads(body)
    except Exception as exc:
        raise CheckpointError(f"{path}: checkpoint body does not unpickle: {exc}") from exc
    return validate_blob(blob)
