"""Structured telemetry event types.

Every observable moment of the scheduling plane is one of these frozen,
slotted records: the three phases of a request's life at an interposed
scheduler, the SFQ(D2) controller's depth decisions, the Scheduling
Broker's coordination exchanges, and the storage device's write-back
flush storms.  Producers publish them on a :class:`~repro.telemetry.bus.
TelemetryBus`; sinks (rate meters, latency windows, JSON traces,
counters) consume them without reaching into producer internals.

``source`` is the publishing component's name (e.g. ``dn00:persistent``
for a scheduler, ``dn00:hdfs`` for a device) — scoped subscriptions key
on it.  Times are simulation seconds; ``io_class`` and ``op`` are the
string values so events serialize directly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar

__all__ = [
    "BROKER_OUTAGE",
    "BROKER_SYNC",
    "DEPTH_CHANGED",
    "EVENT_KINDS",
    "EVENT_TYPES",
    "FAULT_INJECTED",
    "FLUSH_SPIKE",
    "NODE_DOWN",
    "NODE_UP",
    "REPLICA_FAILOVER",
    "REQUEST_COMPLETED",
    "REQUEST_DISPATCHED",
    "REQUEST_SUBMITTED",
    "SPAN",
    "TASK_RETRY",
    "BrokerOutage",
    "BrokerSync",
    "DepthChanged",
    "FaultInjected",
    "FlushSpike",
    "NodeDown",
    "NodeUp",
    "ReplicaFailover",
    "RequestCompleted",
    "RequestDispatched",
    "RequestSubmitted",
    "Span",
    "TaskRetry",
    "event_record",
]

REQUEST_SUBMITTED = "request_submitted"
REQUEST_DISPATCHED = "request_dispatched"
REQUEST_COMPLETED = "request_completed"
DEPTH_CHANGED = "depth_changed"
BROKER_SYNC = "broker_sync"
FLUSH_SPIKE = "flush_spike"
FAULT_INJECTED = "fault_injected"
NODE_DOWN = "node_down"
NODE_UP = "node_up"
REPLICA_FAILOVER = "replica_failover"
TASK_RETRY = "task_retry"
BROKER_OUTAGE = "broker_outage"
SPAN = "span"


@dataclass(frozen=True, slots=True)
class RequestSubmitted:
    """A tagged request was accepted by an interposed scheduler."""

    kind: ClassVar[str] = REQUEST_SUBMITTED
    t: float
    source: str
    app_id: str
    op: str
    nbytes: int
    io_class: str
    queued: int          # scheduler queue length just before this request


@dataclass(frozen=True, slots=True)
class RequestDispatched:
    """A queued request was admitted to the storage device."""

    kind: ClassVar[str] = REQUEST_DISPATCHED
    t: float
    source: str
    app_id: str
    op: str
    nbytes: int
    io_class: str
    wait: float          # seconds spent queued at the scheduler


@dataclass(frozen=True, slots=True)
class RequestCompleted:
    """The device finished servicing a request."""

    kind: ClassVar[str] = REQUEST_COMPLETED
    t: float
    source: str
    app_id: str
    op: str
    nbytes: int
    io_class: str
    latency: float       # dispatch -> completion, seconds
    weight: float        # the app's I/O share weight on this request


@dataclass(frozen=True, slots=True)
class DepthChanged:
    """One SFQ(D2) control period elapsed (Eq. 1 step)."""

    kind: ClassVar[str] = DEPTH_CHANGED
    t: float
    source: str
    depth: float         # the (float) depth after the update
    latency: float       # mean observed latency this period (0.0 if idle)
    samples: int         # completions observed this period


@dataclass(frozen=True, slots=True)
class BrokerSync:
    """One coordination round-trip between a local scheduler and the broker."""

    kind: ClassVar[str] = BROKER_SYNC
    t: float
    source: str          # the reporting client's id
    scope: str           # I/O service type the exchange covers
    apps: int            # entries in the reported service vector
    message_bytes: int   # modelled wire size of the exchange


@dataclass(frozen=True, slots=True)
class FlushSpike:
    """A storage device entered a write-back flush storm (Fig. 7 spikes)."""

    kind: ClassVar[str] = FLUSH_SPIKE
    t: float
    source: str          # device name
    until: float         # storm end time
    factor: float        # rate multiplier during the storm


@dataclass(frozen=True, slots=True)
class FaultInjected:
    """The fault injector fired one planned fault event."""

    kind: ClassVar[str] = FAULT_INJECTED
    t: float
    source: str          # always "faults" (the injector)
    fault: str           # FaultEvent.kind, e.g. "node_crash"
    target: str          # node id, or "" for cluster-wide faults
    duration: float      # planned fault window, 0.0 = permanent


@dataclass(frozen=True, slots=True)
class NodeDown:
    """A datanode crashed and left placement/allocation pools."""

    kind: ClassVar[str] = NODE_DOWN
    t: float
    source: str          # the node id
    permanent: bool      # False when a recovery is scheduled


@dataclass(frozen=True, slots=True)
class NodeUp:
    """A crashed datanode recovered and rejoined the cluster."""

    kind: ClassVar[str] = NODE_UP
    t: float
    source: str          # the node id


@dataclass(frozen=True, slots=True)
class ReplicaFailover:
    """An HDFS read attempt failed and the client moved to another replica."""

    kind: ClassVar[str] = REPLICA_FAILOVER
    t: float
    source: str          # the reading node's id
    app_id: str
    block_id: int
    failed: str          # the replica node the attempt died on
    attempt: int         # 1-based index of the failed attempt


@dataclass(frozen=True, slots=True)
class TaskRetry:
    """The AppMaster re-ran a task lost to an injected fault."""

    kind: ClassVar[str] = TASK_RETRY
    t: float
    source: str          # the application id
    task: str            # task name, e.g. "map3"
    node: str            # the node the failed attempt ran on
    attempt: int         # 1-based index of the failed attempt


@dataclass(frozen=True, slots=True)
class BrokerOutage:
    """The Scheduling Broker went down (or came back)."""

    kind: ClassVar[str] = BROKER_OUTAGE
    t: float
    source: str          # always "broker"
    down: bool           # True at outage start, False at recovery


@dataclass(frozen=True, slots=True)
class Span:
    """One request's full dataplane life, emitted at its terminal state.

    Decomposes end-to-end latency into queue wait (admission to
    dispatch) and device service (dispatch to completion) straight from
    the request's lifecycle timestamps.  ``state`` is the terminal
    lifecycle state; cancelled requests report the wait they accumulated
    before withdrawal and zero service.  Only built when a subscriber
    asked for spans — the hot path stays span-free otherwise.
    """

    kind: ClassVar[str] = SPAN
    t: float
    source: str          # the scheduler the request was queued at
    app_id: str
    op: str
    nbytes: int
    io_class: str
    state: str           # "completed" | "failed" | "cancelled"
    queue_wait: float    # seconds from queue admission to dispatch
    service: float       # seconds from dispatch to device completion


#: Every event class, in publication-vocabulary order; the trace schema
#: (:data:`~repro.telemetry.trace.TRACE_SCHEMA`) is derived from it.
EVENT_TYPES: tuple[type, ...] = (
    RequestSubmitted,
    RequestDispatched,
    RequestCompleted,
    DepthChanged,
    BrokerSync,
    FlushSpike,
    FaultInjected,
    NodeDown,
    NodeUp,
    ReplicaFailover,
    TaskRetry,
    BrokerOutage,
    Span,
)

EVENT_KINDS: tuple[str, ...] = tuple(cls.kind for cls in EVENT_TYPES)


def event_record(ev: Any) -> dict[str, Any]:
    """Flatten an event into a JSON-ready dict (``kind`` + its fields)."""
    rec: dict[str, Any] = {"kind": ev.kind}
    for f in dataclasses.fields(ev):
        rec[f.name] = getattr(ev, f.name)
    return rec
