"""IBIS — the paper's contribution.

* :mod:`repro.core.base` — scheduler interface, native FIFO passthrough,
  and :func:`policy_class`: every subclass that defines ``algorithm`` is
  filed under that name, with its declared capabilities as class
  attributes.
* :mod:`repro.core.sfq` — SFQ and SFQ(D) proportional sharing (§4).
* :mod:`repro.core.sfqd2` — SFQ(D2): feedback-controlled dynamic depth (§4).
* :mod:`repro.core.profiling` — offline reference-latency profiling (§4).
* :mod:`repro.core.broker` — Scheduling Broker + DSFQ total-service
  coordination (§5).
* :mod:`repro.core.cgroups` — the cgroups blkio baseline that can only see
  intermediate I/Os (§6), and the token-bucket pacer its throttle mode
  shares with :mod:`repro.core.reservation` (§9's non-work-conserving
  point).
* :mod:`repro.core.policy` — :class:`PolicySpec`/:class:`NodePolicy`:
  policy selection as validated, serializable data.
* :mod:`repro.core.interposition` — per-datanode interposition points
  wiring I/O classes to schedulers and devices (§3).
* :mod:`repro.core.metrics` — slowdown and service helpers used in §7.

The application-tagged request types (:class:`IOTag`, :class:`IOClass`,
:class:`IORequest`, §3) are defined in :mod:`repro.dataplane` and exported
here too, for the framework layers that tag their I/O.
"""

from repro.core.base import (
    IOScheduler,
    NativeScheduler,
    SchedulerStats,
    policy_class,
)
from repro.core.broker import BrokerClient, SchedulingBroker
from repro.core.cgroups import CgroupsThrottleScheduler, CgroupsWeightScheduler
from repro.core.interposition import DataNodeIO
from repro.core.policy import (
    NodePolicy,
    PolicySpec,
    canonical_json,
    policy_from_dict,
)
from repro.core.sfq import SFQDScheduler
from repro.core.sfqd2 import DepthController, SFQD2Scheduler
from repro.dataplane import IOClass, IORequest, IOTag

__all__ = [
    "BrokerClient",
    "CgroupsThrottleScheduler",
    "CgroupsWeightScheduler",
    "DataNodeIO",
    "DepthController",
    "IOClass",
    "IORequest",
    "IOScheduler",
    "IOTag",
    "NativeScheduler",
    "NodePolicy",
    "PolicySpec",
    "SchedulerStats",
    "SchedulingBroker",
    "SFQDScheduler",
    "SFQD2Scheduler",
    "canonical_json",
    "policy_class",
    "policy_from_dict",
]
