"""Reproducible-output plumbing: hashes and atomic writes.

Every file the toolkit emits carries the tool version, a hash of the
run configuration, and hashes of its inputs, so runs are diffable and
byte-reproducible.  Output files never contain timestamps.
"""

from __future__ import annotations

import json
import os

# hashlib (OpenSSL) and tempfile are imported in the functions that use them:
# --version and --help load neither

TOOL_VERSION = "0.1.0"

__all__ = [
    "TOOL_VERSION",
    "config_hash",
    "file_hash",
    "atomic_write_text",
    "parallel_map",
]


def config_hash(config: dict) -> str:
    """Short stable hash of a JSON-serializable configuration mapping."""
    import hashlib
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def file_hash(path) -> str:
    """Short sha256 of a file's bytes."""
    import hashlib
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()[:12]


def atomic_write_text(path, text: str) -> None:
    """Write text to ``path`` via a temp file + rename in the same directory."""
    import tempfile
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp defaults to 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parallel_map(fn, items):
    """``[fn(x) for x in items]``: a plain ordered map that no subcommand calls.

    It stays only because ``bench/tracing.py::instrument`` looks up
    ``provenance.parallel_map`` by name; ROADMAP item 1 deletes it.
    """
    return [fn(x) for x in items]
