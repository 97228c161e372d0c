"""Deterministic fault injection and the errors it raises.

Declare *what goes wrong and when* as a :class:`FaultPlan` (pure data,
JSON-round-trippable), hand it to
:class:`~repro.cluster.BigDataCluster` via the ``faults`` argument, and
the :class:`FaultInjector` executes it: datanode crashes (transient or
permanent), fail-slow disks, and broker outage windows.  Same seed +
same plan ⇒ bit-identical runs; no plan ⇒ the fault layer is never
touched and runs are bit-identical to a build without it.
"""

from repro.faults.errors import (
    BrokerUnavailable,
    DeviceFailure,
    FaultError,
    LinkFailure,
    NodeFailure,
    ReadTimeout,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    BROKER_OUTAGE,
    FAULT_KINDS,
    NODE_CRASH,
    SLOW_DISK,
    FaultEvent,
    FaultPlan,
)

__all__ = [
    "BROKER_OUTAGE",
    "FAULT_KINDS",
    "NODE_CRASH",
    "SLOW_DISK",
    "BrokerUnavailable",
    "DeviceFailure",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "LinkFailure",
    "NodeFailure",
    "ReadTimeout",
]
