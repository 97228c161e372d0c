"""The dataplane: one submission path for every I/O in the stack.

IBIS's contribution (§3) is a *single* interposition concept applied at
three I/O points.  This package owns that path end to end —

    tag → interposition point → scheduler queue → dispatch → device
        → completion

— so HDFS block streams, local intermediate I/O and the shuffle
servlet are thin adapters over one set of primitives:

* :mod:`~repro.dataplane.tags` — :class:`IOClass`/:class:`IOTag`, the
  application identity every request carries (§3).
* :mod:`~repro.dataplane.lifecycle` — the request state machine
  (``SUBMITTED → QUEUED → DISPATCHED → COMPLETED | FAILED |
  CANCELLED``) with a timestamp per transition.
* :mod:`~repro.dataplane.request` — :class:`IORequest`, the unit of
  scheduling, walked through the lifecycle by its scheduler.
* :mod:`~repro.dataplane.scope` — :class:`CancelScope`: first-class
  cancellation of a dead task's still-queued requests, with exact
  SFQ tag rollback.
* :mod:`~repro.dataplane.streams` — the shared chunking/windowing
  primitives every streaming entry point pipelines through.
* :mod:`~repro.dataplane.path` — :class:`IOPath`: one (node, class)
  interposition point composing scheduler + device + broker client.
* :mod:`~repro.dataplane.spans` — :class:`SpanRecorder`: queue-wait vs
  device-service percentiles from the lifecycle timestamps.

Layering: the dataplane sits *below* :mod:`repro.core` (schedulers
import requests and tags from here; ``IOPath.build`` resolves concrete
scheduler classes lazily through :func:`repro.core.base.policy_class`).
"""

from repro.dataplane.lifecycle import (
    TRANSITIONS,
    LifecycleError,
    RequestCancelled,
    RequestState,
)
from repro.dataplane.scope import CancelScope
from repro.dataplane.tags import IOClass, IOTag
from repro.dataplane.request import IORequest
from repro.dataplane.streams import iter_chunks, request_stream, windowed_stream
from repro.dataplane.spans import SpanRecorder, percentile_summary
from repro.dataplane.path import IOPath

__all__ = [
    "CancelScope",
    "IOClass",
    "IOPath",
    "IORequest",
    "IOTag",
    "LifecycleError",
    "RequestCancelled",
    "RequestState",
    "SpanRecorder",
    "TRANSITIONS",
    "iter_chunks",
    "percentile_summary",
    "request_stream",
    "windowed_stream",
]
