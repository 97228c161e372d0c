"""The on-disk root and crash- and concurrency-safe JSON writes.

Two things persist across processes, both under :func:`cache_dir`: the
result store (:mod:`repro.execution.store`), shared between concurrent
worker processes, and the scheduler's submission journal
(:mod:`repro.service.journal`), which must survive power loss, not just
process death.  A reader must never observe a torn file, so every write
goes through the same path: the payload is serialised into a unique
temp file in the destination directory, fsynced, published with
``os.replace`` (atomic on POSIX within one filesystem), and then the
*containing directory* is fsynced so the rename itself is durable — an
entry that a reader has seen cannot vanish when the machine loses
power.  Concurrent writers race benignly — last rename wins, every
observable state is a complete document.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Any

__all__ = ["atomic_write_json", "atomic_write_text", "cache_dir", "fsync_dir"]


def cache_dir() -> pathlib.Path:
    """Root of the result store and the service journal:
    ``$REPRO_CACHE_DIR``, else ``~/.cache/ibis-repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "ibis-repro"


def fsync_dir(dirpath: "pathlib.Path | str") -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Best-effort: platforms/filesystems that cannot fsync a directory
    (or cannot open one read-only) are silently tolerated — the rename
    is still atomic, only its durability window widens.
    """
    try:
        fd = os.open(dirpath, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_publish(path: pathlib.Path, write) -> None:
    """Temp file in ``path.parent`` → ``write(fh)`` → fsync → rename →
    directory fsync.  On any failure the temp file is removed, so a
    crashed writer leaves no debris a reader could mistake for an
    entry."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: "pathlib.Path | str", payload: Any) -> None:
    """Serialise ``payload`` to ``path`` atomically and durably."""
    _atomic_publish(
        pathlib.Path(path),
        lambda fh: json.dump(payload, fh, indent=2, sort_keys=True),
    )


def atomic_write_text(path: "pathlib.Path | str", text: str) -> None:
    """Write ``text`` to ``path`` atomically and durably (the journal
    compactor's rewrite path)."""
    _atomic_publish(pathlib.Path(path), lambda fh: fh.write(text))
