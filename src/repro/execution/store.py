"""Persistent, content-hash-keyed store of run manifests.

One entry per scenario :meth:`~repro.scenario.spec.Scenario.content_hash`,
written once under ``$REPRO_CACHE_DIR`` (see
:func:`~repro.execution.atomic.cache_dir`).  Because a
scenario's manifest is deterministic (``metrics_hash`` covers every
deterministic field), a stored entry *is* the run: repeated submissions
are cache hits, and an interrupted ``--sweep`` grid resumes by
re-running only the cells with no entry.

Entries carry a schema version.  Bump :data:`RESULT_SCHEMA` whenever a
modelling change alters what a content hash produces — old entries then
fail loudly (:class:`ResultStoreError`) instead of serving stale
results.  Writes are atomic and durable
(:func:`~repro.execution.atomic.atomic_write_json`), so concurrent
workers never tear an entry and a published entry survives power loss.

The store does not grow forever: :meth:`ResultStore.evict` trims it to
a byte and/or entry budget, LRU by mtime — a hit touches the entry's
mtime, so recently *read* results survive eviction, not just recently
written ones.  ``python -m repro.experiments.run store gc`` drives it
from the shell and the scheduler triggers it on a size threshold
(``serve --store-max-bytes``).
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.execution.atomic import atomic_write_json, cache_dir
from repro.scenario.runner import RunManifest

__all__ = [
    "RESULT_SCHEMA",
    "EvictionReport",
    "ResultStore",
    "ResultStoreError",
]

#: Entry format version.  Bump on modelling changes that alter the
#: manifest a given scenario content hash produces.
RESULT_SCHEMA = 1


class ResultStoreError(RuntimeError):
    """A store entry exists but cannot be used by this build."""


@dataclass
class EvictionReport:
    """What one :meth:`ResultStore.evict` pass did (or would do)."""

    removed: list[str] = field(default_factory=list)
    freed_bytes: int = 0
    kept_entries: int = 0
    kept_bytes: int = 0
    dry_run: bool = False


class ResultStore:
    """Filesystem-backed manifest store, one JSON entry per content hash.

    ``get``/``put`` are the whole interface the execution core needs;
    ``hits``/``misses``/``corrupt`` count this process's lookups (the
    service's ``stats`` op reports them — ``corrupt`` counts misses
    caused by an unreadable or non-JSON entry, which would otherwise be
    silent re-executions).
    """

    def __init__(self, root: "pathlib.Path | str"):
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.evicted = 0

    @classmethod
    def default(cls) -> "ResultStore":
        """The store under the shared cache root (``$REPRO_CACHE_DIR``
        or ``~/.cache/ibis-repro``)."""
        return cls(cache_dir() / "results")

    # ------------------------------------------------------------- layout
    def path_for(self, content_hash: str) -> pathlib.Path:
        return self.root / f"run-{content_hash}.json"

    def keys(self) -> Iterator[str]:
        """Content hashes with a stored entry."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("run-*.json")):
            yield path.stem[len("run-"):]

    def __contains__(self, content_hash: str) -> bool:
        return self.path_for(content_hash).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # ------------------------------------------------------------- access
    def get(self, content_hash: str) -> Optional[RunManifest]:
        """The stored manifest, or ``None`` on a miss.

        A corrupt entry (unreadable, not JSON) counts as a miss — the
        run re-executes and overwrites it — but increments ``corrupt``
        so operators can see it happening.  An entry with an *unknown
        schema version* raises :class:`ResultStoreError` instead: the
        data is intact but this build must not interpret it.
        """
        path = self.path_for(content_hash)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.misses += 1
            self.corrupt += 1
            return None
        try:
            data = json.loads(text)
        except ValueError:
            self.misses += 1
            self.corrupt += 1
            return None
        if not isinstance(data, dict) or data.get("schema") != RESULT_SCHEMA:
            schema = data.get("schema") if isinstance(data, dict) else None
            keys = sorted(data) if isinstance(data, dict) else []
            raise ResultStoreError(
                f"result-store entry {path} has schema version {schema!r} "
                f"but this build reads version {RESULT_SCHEMA}; entry keys: "
                f"{keys or '(not an object)'} — delete the entry (or the "
                f"store directory {self.root}) to re-run the scenario"
            )
        try:
            manifest = RunManifest.from_dict(data["manifest"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ResultStoreError(
                f"result-store entry {path} (schema {RESULT_SCHEMA}) does "
                f"not parse as a RunManifest: {exc}"
            ) from exc
        self.hits += 1
        try:
            os.utime(path)  # LRU: a read keeps the entry warm
        except OSError:
            pass
        return manifest

    def put(self, manifest: RunManifest) -> pathlib.Path:
        """Persist a manifest under its scenario's content hash."""
        path = self.path_for(manifest.scenario_hash)
        atomic_write_json(
            path, {"schema": RESULT_SCHEMA, "manifest": manifest.to_dict()}
        )
        return path

    def discard(self, content_hash: str) -> bool:
        """Drop one entry; returns whether it existed."""
        try:
            os.unlink(self.path_for(content_hash))
            return True
        except OSError:
            return False

    # ----------------------------------------------------------- budgeting
    def entries(self) -> list[tuple[str, float, int]]:
        """``(content_hash, mtime, size_bytes)`` per entry, oldest
        first — the eviction order."""
        out = []
        if not self.root.is_dir():
            return out
        for path in self.root.glob("run-*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # evicted/replaced under us
            out.append((path.stem[len("run-"):], stat.st_mtime, stat.st_size))
        out.sort(key=lambda e: (e[1], e[0]))
        return out

    def size_bytes(self) -> int:
        """Total bytes of stored entries."""
        return sum(size for _, _, size in self.entries())

    def evict(
        self,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        dry_run: bool = False,
    ) -> EvictionReport:
        """Trim the store to the given budget(s), least-recently-used
        (by mtime; reads refresh it) first.

        Returns an :class:`EvictionReport`; with ``dry_run`` nothing is
        deleted, the report says what would be.  With no budget given
        this is a no-op report.
        """
        entries = self.entries()
        keep_bytes = sum(size for _, _, size in entries)
        keep_count = len(entries)
        report = EvictionReport(dry_run=dry_run)
        for content_hash, _mtime, size in entries:
            over_bytes = max_bytes is not None and keep_bytes > max_bytes
            over_count = max_entries is not None and keep_count > max_entries
            if not (over_bytes or over_count):
                break
            if not dry_run:
                if not self.discard(content_hash):
                    continue  # raced with another evictor
                self.evicted += 1
            report.removed.append(content_hash)
            report.freed_bytes += size
            keep_bytes -= size
            keep_count -= 1
        report.kept_entries = keep_count
        report.kept_bytes = keep_bytes
        return report
