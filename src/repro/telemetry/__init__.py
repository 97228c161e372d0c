"""Unified telemetry plane: event bus, structured events, pluggable sinks.

The observability side of the interposition refactor: schedulers,
devices, the SFQ(D2) controller and the Scheduling Broker *publish*
structured events onto one :class:`TelemetryBus` per cluster, and
everything that used to poke component internals — per-app service
accounting, throughput meters, the Fig. 7 depth/latency traces, the
JSON trace export — is a *sink* subscribed to it.

* :mod:`repro.telemetry.events` — the event vocabulary, 13 kinds
  (:data:`EVENT_KINDS`): ``request_submitted/dispatched/completed``,
  ``span``, ``depth_changed``, ``broker_sync``, ``flush_spike``, and
  the fault kinds ``fault_injected``, ``node_down``, ``node_up``,
  ``replica_failover``, ``task_retry``, ``broker_outage``.
* :mod:`repro.telemetry.bus` — scoped publish/subscribe dispatch.
* :mod:`repro.telemetry.sinks` — time-series recorders, counters.
* :mod:`repro.telemetry.trace` — JSON-lines export + trace schema.
"""

from repro.telemetry.bus import TelemetryBus
from repro.telemetry.events import (
    BROKER_OUTAGE,
    BROKER_SYNC,
    DEPTH_CHANGED,
    EVENT_KINDS,
    EVENT_TYPES,
    FAULT_INJECTED,
    FLUSH_SPIKE,
    NODE_DOWN,
    NODE_UP,
    REPLICA_FAILOVER,
    REQUEST_COMPLETED,
    REQUEST_DISPATCHED,
    REQUEST_SUBMITTED,
    SPAN,
    TASK_RETRY,
    BrokerOutage,
    BrokerSync,
    DepthChanged,
    FaultInjected,
    FlushSpike,
    NodeDown,
    NodeUp,
    ReplicaFailover,
    RequestCompleted,
    RequestDispatched,
    RequestSubmitted,
    Span,
    TaskRetry,
    event_record,
)
from repro.telemetry.sinks import CounterSink, TimeSeriesSink
from repro.telemetry.trace import (
    TRACE_SCHEMA,
    JsonLinesTraceSink,
    validate_trace_file,
    validate_trace_line,
    validate_trace_record,
)

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
    "CounterSink",
    "DepthChanged",
    "FaultInjected",
    "FlushSpike",
    "JsonLinesTraceSink",
    "NodeDown",
    "NodeUp",
    "ReplicaFailover",
    "RequestCompleted",
    "RequestDispatched",
    "RequestSubmitted",
    "Span",
    "TRACE_SCHEMA",
    "TaskRetry",
    "TelemetryBus",
    "TimeSeriesSink",
    "event_record",
    "validate_trace_file",
    "validate_trace_line",
    "validate_trace_record",
]
