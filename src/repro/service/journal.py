"""Durable submission journal: the scheduler's write-ahead log, its only
sub-id allocator, and its sub-id index.

An append-only JSON-lines file (by default
``$REPRO_CACHE_DIR/service/journal.jsonl``).  Every sub-id the
scheduler hands out is allocated here and journaled before the client
sees it::

    {"kind": "journal", "schema": 2, "next_id": 0, "index": {}, "failed": {}}
    {"kind": "submit", "sub_id": "sub-000001", "content_hash": ...,
     "name": ..., "cluster": ..., "scenario": "<json>"}
    {"kind": "ack",    "sub_id": "sub-000002", "content_hash": ...}
    {"kind": "start",  "sub_id": "sub-000001", "attempt": 1}
    {"kind": "done",   "sub_id": "sub-000001"}
    {"kind": "failed", "sub_ids": ["sub-000001", "sub-000002"],
     "error": ...}

A ``submit`` is work a restart must run again, so it carries the
canonical scenario JSON.  Every other acknowledgement — a dedup alias,
a result-store hit, a streamed run (whose event stream a restart cannot
resume) — is an ``ack`` carrying the content hash alone: after a
restart it resolves through the
:class:`~repro.execution.store.ResultStore`.  ``start`` and ``done``
track submitted work; ``failed`` names every sub-id sharing the failed
run.

Every append is flushed and fsynced before the scheduler replies to the
client, so an acknowledged sub-id survives process SIGKILL *and* power
loss (the journal directory itself is fsynced when the file is created
or compacted — see :mod:`repro.execution.atomic`).

:meth:`SubmissionJournal.replay` folds the file back into four things:
the id high-water mark ``next_id`` (new ids continue past it, so no id
is ever reused), ``index`` (every acknowledged sub-id → its content
hash), ``errors`` (failed sub-id → error), and the incomplete
submissions with the attempt count of their last ``start``.  A torn
final line — the tail a crash mid-append leaves, which no reply covered
— is dropped, and cut off before the next append; a torn line
*followed by intact ones* means real corruption and raises
:class:`JournalError`, as does an unknown schema version.

Whenever no submission is incomplete the file is compacted: atomically
rewritten as one header line carrying ``next_id``, the index and the
errors.  The log then grows with the number of sub-ids (about 34 bytes
each), not with the number of transitions.  Submissions still
incomplete at a compaction follow the header as ``submit`` lines that
carry their ``attempts``.

A journal without a path keeps the same state in memory only: the
scheduler's id allocator and index when it runs without a journal file.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Iterable, Optional

from repro.execution.atomic import atomic_write_text, cache_dir, fsync_dir

__all__ = ["JOURNAL_SCHEMA", "JournalError", "SubmissionJournal"]

#: Journal line-format version; bump when record shapes change.
JOURNAL_SCHEMA = 2


class JournalError(RuntimeError):
    """The journal exists but cannot be trusted by this build."""


class SubmissionJournal:
    """Append-only JSON-lines WAL over one file (or none: in memory).

    Call :meth:`replay` before appending to an existing file: the id
    mark it restores is what keeps new ids from repeating old ones.
    Not thread-safe by itself — the scheduler serialises all access on
    its event loop.
    """

    def __init__(self, path: "pathlib.Path | str | None" = None):
        self.path = pathlib.Path(path) if path is not None else None
        self._fh = None
        #: bytes of the file's intact prefix, when replay found a torn tail
        self._torn_at: Optional[int] = None
        #: the id high-water mark: every id so far is ``sub-`` 1..next_id
        self.next_id = 0
        #: every acknowledged sub-id → its scenario content hash
        self.index: dict[str, str] = {}
        #: failed sub-id → its error
        self.errors: dict[str, str] = {}
        #: incomplete submissions: sub-id → its ``submit`` record, plus
        #: ``attempts`` from its last ``start``
        self._live: dict[str, dict[str, Any]] = {}
        self.compactions = 0

    @classmethod
    def default(cls) -> "SubmissionJournal":
        """The journal under the shared cache root
        (``$REPRO_CACHE_DIR/service/journal.jsonl``)."""
        return cls(cache_dir() / "service" / "journal.jsonl")

    # ------------------------------------------------------------- replay
    def replay(self) -> list[dict[str, Any]]:
        """Fold the file into this journal's state and return the
        incomplete submissions (``submit`` records plus ``attempts``),
        in journal order.  A missing file replays as empty."""
        try:
            data = self.path.read_bytes() if self.path is not None else b""
        except FileNotFoundError:
            data = b""
        except OSError as exc:
            raise JournalError(f"cannot read journal {self.path}: {exc}")
        # The last split piece is b"" after a final newline; otherwise it
        # is an append a crash cut short — never acknowledged.
        lines = data.split(b"\n")[:-1]
        intact = 0
        for i, line in enumerate(lines, start=1):
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict) or "kind" not in rec:
                    raise ValueError("not a journal record object")
            except ValueError as exc:
                if i < len(lines):
                    raise JournalError(
                        f"journal {self.path} line {i} is corrupt (and not "
                        f"the final line — this is not a torn append): {exc}"
                    )
                break  # torn final line: drop it
            self._apply(rec, i)
            intact += len(line) + 1
        self._torn_at = intact if intact < len(data) else None
        return [dict(rec) for rec in self._live.values()]

    def _apply(self, rec: dict[str, Any], lineno: int) -> None:
        """Fold one record into the in-memory state (replay and append
        share this)."""
        kind, sub_id = rec["kind"], rec.get("sub_id")
        if kind == "journal":
            if rec.get("schema") != JOURNAL_SCHEMA:
                raise JournalError(
                    f"journal {self.path} has schema {rec.get('schema')!r} "
                    f"but this build reads schema {JOURNAL_SCHEMA}; move the "
                    f"file aside to start fresh"
                )
            self.next_id = max(self.next_id, rec.get("next_id", 0))
            self.index.update(rec.get("index", {}))
            self.errors.update(rec.get("failed", {}))
        elif kind in ("submit", "ack"):
            self.next_id = max(self.next_id, int(sub_id.rpartition("-")[2]))
            self.index[sub_id] = rec["content_hash"]
            if kind == "submit":
                self._live[sub_id] = {"attempts": 0, **rec}
        elif kind in ("start", "done", "failed"):
            ids = rec["sub_ids"] if kind == "failed" else [sub_id]
            for sid in ids:
                if sid not in self.index:
                    raise JournalError(
                        f"journal {self.path} line {lineno}: {kind!r} for "
                        f"unknown submission {sid!r}"
                    )
                if kind == "start" and sid in self._live:
                    self._live[sid]["attempts"] = rec["attempt"]
                elif kind != "start":
                    self._live.pop(sid, None)
                if kind == "failed":
                    self.errors[sid] = rec["error"]
        else:
            raise JournalError(
                f"journal {self.path} line {lineno}: unknown record "
                f"kind {kind!r}"
            )

    # ------------------------------------------------------------- append
    def _header(self) -> dict[str, Any]:
        return {
            "kind": "journal", "schema": JOURNAL_SCHEMA,
            "next_id": self.next_id,
            "index": {k: v for k, v in self.index.items()
                      if k not in self._live},
            "failed": self.errors,
        }

    def _append(self, rec: dict[str, Any]) -> None:
        if self.path is not None:
            if self._fh is None:
                fresh = not self.path.exists()
                self.path.parent.mkdir(parents=True, exist_ok=True)
                if self._torn_at is not None:
                    os.truncate(self.path, self._torn_at)
                    self._torn_at = None
                self._fh = open(self.path, "a", encoding="utf-8")
                if fresh:
                    self._fh.write(json.dumps(self._header(),
                                              sort_keys=True) + "\n")
                    fsync_dir(self.path.parent)
            self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
        self._apply(rec, 0)

    def acknowledge(self, content_hash: str,
                    submit: Optional[dict[str, Any]] = None) -> str:
        """Allocate the next sub-id and journal it; the caller replies
        only after this returns.  ``submit`` (name, cluster, scenario)
        marks work a restart must run again; without it the id is
        recorded by content hash alone."""
        sub_id = f"sub-{self.next_id + 1:06d}"
        self._append({"kind": "submit" if submit else "ack",
                      "sub_id": sub_id, "content_hash": content_hash,
                      **(submit or {})})
        return sub_id

    def record_start(self, sub_id: str, attempt: int) -> None:
        if sub_id in self._live:
            self._append({"kind": "start", "sub_id": sub_id,
                          "attempt": attempt})

    def record_done(self, sub_id: str) -> None:
        if sub_id in self._live:
            self._append({"kind": "done", "sub_id": sub_id})
            self._maybe_compact()

    def record_failed(self, sub_ids: Iterable[str], error: str) -> None:
        self._append({"kind": "failed", "sub_ids": list(sub_ids),
                      "error": error})
        self._maybe_compact()

    # ---------------------------------------------------------- compaction
    def _maybe_compact(self) -> None:
        if not self._live:
            self.compact()

    def compact(self) -> None:
        """Atomically rewrite the journal as its header plus the still
        incomplete submissions (normally: just the header)."""
        if self.path is None:
            return
        self.close()
        lines = [self._header(), *self._live.values()]
        atomic_write_text(self.path, "".join(
            json.dumps(rec, sort_keys=True) + "\n" for rec in lines
        ))
        self._torn_at = None
        self.compactions += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
