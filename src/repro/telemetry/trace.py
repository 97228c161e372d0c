"""JSON-lines trace export and its schema.

:class:`JsonLinesTraceSink` streams every telemetry event as one JSON
object per line — the machine-readable record of a run, consumable by
external tooling (pandas, jq) without importing this package.
``TRACE_SCHEMA``/:func:`validate_trace_record` define exactly what a
line may contain; the test suite holds exported traces to it.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
from typing import Any, Iterable, Optional, Sequence, Union

from repro.telemetry.bus import TelemetryBus
from repro.telemetry.events import EVENT_KINDS, EVENT_TYPES, event_record

__all__ = [
    "JsonLinesTraceSink",
    "TRACE_SCHEMA",
    "validate_trace_file",
    "validate_trace_line",
    "validate_trace_record",
]

#: Required fields (beyond ``kind``) and their types, per event kind,
#: read off the event dataclasses.  ``float`` accepts ints too (JSON
#: numbers round-trip that way).
_FIELD_TYPES = {"float": float, "int": int, "str": str, "bool": bool}
TRACE_SCHEMA: dict[str, dict[str, type]] = {
    cls.kind: {f.name: _FIELD_TYPES[f.type] for f in dataclasses.fields(cls)}
    for cls in EVENT_TYPES
}

_IO_CLASSES = ("persistent", "intermediate", "network")
_OPS = ("read", "write")
_SPAN_STATES = ("completed", "failed", "cancelled")


def validate_trace_record(rec: dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``rec`` is a schema-valid trace record."""
    if not isinstance(rec, dict):
        raise ValueError(f"trace record must be an object, got {type(rec).__name__}")
    kind = rec.get("kind")
    if kind not in TRACE_SCHEMA:
        raise ValueError(f"unknown trace record kind {kind!r}")
    fields = TRACE_SCHEMA[kind]
    for name, typ in fields.items():
        if name not in rec:
            raise ValueError(f"{kind} record missing field {name!r}")
        value = rec[name]
        if typ is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif typ is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, typ)
        if not ok:
            raise ValueError(
                f"{kind} field {name!r} must be {typ.__name__}, "
                f"got {type(value).__name__}"
            )
    extras = set(rec) - set(fields) - {"kind"}
    if extras:
        raise ValueError(f"{kind} record has unknown fields {sorted(extras)}")
    if "op" in fields and rec["op"] not in _OPS:
        raise ValueError(f"bad op {rec['op']!r}")
    if "io_class" in fields and rec["io_class"] not in _IO_CLASSES:
        raise ValueError(f"bad io_class {rec['io_class']!r}")
    if "state" in fields and rec["state"] not in _SPAN_STATES:
        raise ValueError(f"bad span state {rec['state']!r}")


def validate_trace_line(line: str) -> dict[str, Any]:
    """Parse and validate one trace line; returns the record."""
    rec = json.loads(line)
    validate_trace_record(rec)
    return rec


class JsonLinesTraceSink:
    """Stream telemetry events to a JSON-lines file.

    Subscribes (wildcard) to the given event ``kinds`` — all of them by
    default.  Use as a context manager, or call :meth:`close` when the
    run finishes; records are written as they are published, so a trace
    of a crashed run is still useful up to the crash.
    """

    def __init__(
        self,
        bus: TelemetryBus,
        path_or_file: Union[str, os.PathLike, io.TextIOBase],
        kinds: Optional[Sequence[str]] = None,
    ):
        if isinstance(path_or_file, (str, os.PathLike)):
            self._fh: Any = open(path_or_file, "w", encoding="utf-8")
            self._owns_fh = True
        else:
            self._fh = path_or_file
            self._owns_fh = False
        self.records = 0
        self._bus = bus
        self._kinds: tuple[str, ...] = tuple(kinds) if kinds else EVENT_KINDS
        unknown = [k for k in self._kinds if k not in TRACE_SCHEMA]
        if unknown:
            raise ValueError(f"cannot trace unknown event kinds {unknown}")
        for kind in self._kinds:
            bus.subscribe(kind, self._on_event, source=None)
        self._closed = False

    def _on_event(self, ev: Any) -> None:
        self._fh.write(json.dumps(event_record(ev), sort_keys=True))
        self._fh.write("\n")
        self.records += 1

    def close(self) -> None:
        """Detach from the bus and close the file (if this sink opened it)."""
        if self._closed:
            return
        self._closed = True
        for kind in self._kinds:
            self._bus.unsubscribe(kind, self._on_event, source=None)
        if self._owns_fh:
            self._fh.close()
        else:
            self._fh.flush()

    def __enter__(self) -> "JsonLinesTraceSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def validate_trace_file(lines: Iterable[str]) -> int:
    """Validate every non-empty line; returns the number of records."""
    n = 0
    for line in lines:
        if line.strip():
            validate_trace_line(line)
            n += 1
    return n
