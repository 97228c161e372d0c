"""Declarative fault plans.

A :class:`FaultPlan` is an immutable, JSON-round-trippable description
of *what goes wrong and when* in a run: a tuple of scheduled
:class:`FaultEvent`\\ s plus the client-side failure-handling knobs
(read retry budget, backoff, timeout).  Like
:class:`~repro.core.policy.PolicySpec` it serialises to canonical
JSON (sorted keys, no whitespace) so two equal plans always produce the
same bytes, and a plan can be stored next to the experiment spec that
used it.

The plan is pure data — executing it is the
:class:`~repro.faults.injector.FaultInjector`'s job.  Everything here
is stdlib-only so plans can be built and validated without importing
the simulation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Sequence, Tuple

from repro.config import known_fields

__all__ = [
    "BROKER_OUTAGE",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "LINK_DEGRADE",
    "NODE_CRASH",
    "SLOW_DISK",
]

#: A datanode crashes at ``at``: its devices and links fail, running
#: containers die, and the node is excluded from placement/allocation.
#: ``duration > 0`` means the node recovers after that long;
#: ``duration == 0`` means the crash is permanent.
NODE_CRASH = "node_crash"

#: One storage device on ``target`` runs at ``factor`` times its normal
#: rate for ``duration`` seconds (a fail-slow disk).  ``device``
#: selects which device ("hdfs" or "tmp").
SLOW_DISK = "slow_disk"

#: Both NIC directions of ``target`` run at ``factor`` times their
#: normal rate for ``duration`` seconds.
LINK_DEGRADE = "link_degrade"

#: The scheduling broker rejects all reports for ``duration`` seconds;
#: clients degrade to local-only SFQ(D2) and reconcile on recovery.
BROKER_OUTAGE = "broker_outage"

FAULT_KINDS = (NODE_CRASH, SLOW_DISK, LINK_DEGRADE, BROKER_OUTAGE)

_DEVICES = ("hdfs", "tmp")

_INF = float("inf")


def _canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``at`` is the nominal injection time; the injector may add a
    deterministic jitter drawn uniformly from ``[0, jitter]`` so plans
    can model imprecisely-timed failures without losing repeatability.
    """

    kind: str
    at: float
    target: str = ""
    duration: float = 0.0
    factor: float = 1.0
    device: str = "hdfs"
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        # Every time must be finite: `< _INF` also rejects NaN.
        if not 0 <= self.at < _INF:
            raise ValueError(f"at must be finite and >= 0, got {self.at}")
        if not 0 <= self.jitter < _INF:
            raise ValueError(f"jitter must be finite and >= 0, got {self.jitter}")
        if self.kind == BROKER_OUTAGE:
            if self.target:
                raise ValueError("broker_outage takes no target")
            if not 0 < self.duration < _INF:
                raise ValueError(f"broker_outage needs a finite duration > 0, got {self.duration}")
            return
        if not self.target:
            raise ValueError(f"{self.kind} needs a target node")
        if self.kind == NODE_CRASH:
            if not 0 <= self.duration < _INF:
                raise ValueError(f"node_crash needs a finite duration >= 0, got {self.duration}")
            return
        # slow_disk / link_degrade
        if not 0 < self.duration < _INF:
            raise ValueError(f"{self.kind} needs a finite duration > 0, got {self.duration}")
        if not (0.0 < self.factor <= 1.0):
            raise ValueError(
                f"{self.kind} factor must be in (0, 1], got {self.factor}"
            )
        if self.kind == SLOW_DISK and self.device not in _DEVICES:
            raise ValueError(
                f"slow_disk device must be one of {_DEVICES}, got {self.device!r}"
            )

    # -- convenience constructors ------------------------------------

    @classmethod
    def node_crash(
        cls, at: float, target: str, *, duration: float = 0.0, jitter: float = 0.0
    ) -> "FaultEvent":
        """Crash ``target`` at ``at``; ``duration == 0`` is permanent."""
        return cls(NODE_CRASH, at, target, duration=duration, jitter=jitter)

    @classmethod
    def slow_disk(
        cls,
        at: float,
        target: str,
        *,
        duration: float,
        factor: float,
        device: str = "hdfs",
        jitter: float = 0.0,
    ) -> "FaultEvent":
        """Degrade one device of ``target`` to ``factor`` of its rate."""
        return cls(
            SLOW_DISK,
            at,
            target,
            duration=duration,
            factor=factor,
            device=device,
            jitter=jitter,
        )

    @classmethod
    def link_degrade(
        cls,
        at: float,
        target: str,
        *,
        duration: float,
        factor: float,
        jitter: float = 0.0,
    ) -> "FaultEvent":
        """Degrade both NIC directions of ``target``."""
        return cls(
            LINK_DEGRADE, at, target, duration=duration, factor=factor, jitter=jitter
        )

    @classmethod
    def broker_outage(
        cls, at: float, *, duration: float, jitter: float = 0.0
    ) -> "FaultEvent":
        """Take the broker down for ``duration`` seconds."""
        return cls(BROKER_OUTAGE, at, duration=duration, jitter=jitter)

    # -- serialisation ------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FaultEvent":
        return cls(**known_fields(cls, d))


@dataclass(frozen=True)
class FaultPlan:
    """A full fault schedule plus failure-handling parameters.

    ``read_timeout == 0`` disables the per-attempt read timeout (a read
    then only fails over when the replica errors outright, e.g. on a
    crash).  ``read_backoff`` is the base of the exponential backoff
    between read attempts: attempt *k* (k >= 1 retries) waits
    ``read_backoff * 2**(k-1)`` seconds first.
    """

    events: Tuple[FaultEvent, ...] = ()
    read_backoff: float = 0.25
    read_timeout: float = 0.0
    max_read_attempts: int = 4

    def __post_init__(self) -> None:
        evs = tuple(self.events)
        for ev in evs:
            if not isinstance(ev, FaultEvent):
                raise TypeError(f"events must be FaultEvent, got {type(ev).__name__}")
        object.__setattr__(self, "events", evs)
        if not 0 <= self.read_backoff < _INF:
            raise ValueError(f"read_backoff must be finite and >= 0, got {self.read_backoff}")
        if not 0 <= self.read_timeout < _INF:
            raise ValueError(f"read_timeout must be finite and >= 0, got {self.read_timeout}")
        if self.max_read_attempts < 1:
            raise ValueError(
                f"max_read_attempts must be >= 1, got {self.max_read_attempts}"
            )

    # -- serialisation ------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": [ev.to_dict() for ev in self.events],
            "read_backoff": self.read_backoff,
            "read_timeout": self.read_timeout,
            "max_read_attempts": self.max_read_attempts,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FaultPlan":
        data = known_fields(cls, d)
        raw = data.pop("events", ())
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise TypeError("events must be a sequence")
        events = tuple(
            ev if isinstance(ev, FaultEvent) else FaultEvent.from_dict(ev)
            for ev in raw
        )
        return cls(events=events, **data)

    def to_json(self) -> str:
        """Canonical JSON: equal plans always serialise identically."""
        return _canonical_dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))
