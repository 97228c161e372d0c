"""One interposition point: scheduler + device (+ broker client).

A datanode hosts three :class:`IOPath` objects — one per
:class:`~repro.dataplane.tags.IOClass` (§3).  Each composes the pieces
the submission path crosses after the tag: the interposed scheduler,
the storage device it dispatches to, and (for coordinated policies)
the Scheduling Broker client that applies DSFQ delays to the
scheduler.  :class:`~repro.core.interposition.DataNodeIO` is three of
these; everything that used to live in its constructor — building the
spec's scheduler class, the ``manages_classes`` native fallback, broker
wiring — is :meth:`IOPath.build`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.dataplane.request import IORequest
from repro.dataplane.tags import IOClass
from repro.simcore import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import IOScheduler
    from repro.core.broker import BrokerClient, SchedulingBroker
    from repro.core.policy import PolicySpec
    from repro.storage import StorageDevice
    from repro.telemetry import TelemetryBus

__all__ = ["IOPath"]


class IOPath:
    """The full submission path of one (node, I/O class) pair."""

    __slots__ = (
        "sim",
        "node_id",
        "io_class",
        "scheduler",
        "device",
        "broker_client",
        "fallback",
    )

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        io_class: IOClass,
        scheduler: "IOScheduler",
        device: "StorageDevice",
        broker_client: Optional["BrokerClient"] = None,
        fallback: bool = False,
    ):
        self.sim = sim
        self.node_id = node_id
        self.io_class = io_class
        self.scheduler = scheduler
        self.device = device
        self.broker_client = broker_client
        #: True when the policy's scheduler cannot manage this class and
        #: the path runs the native passthrough instead (cgroups §6).
        self.fallback = fallback

    @property
    def name(self) -> str:
        return f"{self.node_id}:{self.io_class.value}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        extra = " (native fallback)" if self.fallback else ""
        return f"<IOPath {self.name} via {self.scheduler.algorithm}{extra}>"

    # ------------------------------------------------------------------ api
    def submit(self, req: IORequest) -> Event:
        """Queue a tagged request of this path's class; returns its
        completion event."""
        if req.io_class is not self.io_class:
            raise ValueError(
                f"request of class {req.io_class.value} submitted to "
                f"{self.name}"
            )
        return self.scheduler.submit(req)

    # ---------------------------------------------------------------- build
    @classmethod
    def build(
        cls,
        sim: Simulator,
        node_id: str,
        io_class: IOClass,
        spec: "PolicySpec",
        device: "StorageDevice",
        broker: Optional["SchedulingBroker"] = None,
        telemetry: Optional["TelemetryBus"] = None,
    ) -> "IOPath":
        """Construct the path a :class:`~repro.core.policy.PolicySpec`
        describes, through its scheduler class's ``from_spec``.

        A scheduler whose declared ``manages_classes`` does not cover
        ``io_class`` falls back to native at this point — which is
        exactly how cgroups ends up managing only the INTERMEDIATE
        class (§6).  A broker client is attached when the spec is
        coordinated and the scheduler supports it.
        """
        # Imported here: the dataplane is a lower layer than repro.core
        # (core imports it), so scheduler construction resolves lazily.
        from repro.core.base import NativeScheduler, policy_class
        from repro.core.broker import BrokerClient

        name = f"{node_id}:{io_class.value}"
        policy = policy_class(spec.kind)
        managed = io_class in policy.manages_classes
        if managed:
            scheduler = policy.from_spec(sim, device, spec, name=name,
                                         telemetry=telemetry)
        else:
            # The scheduler cannot see this class's I/Os (cgroups only
            # sees container-issued local I/O, §6): run it unmanaged.
            scheduler = NativeScheduler(sim, device, name=name,
                                        telemetry=telemetry)
        broker_client = None
        if (
            spec.coordinated
            and broker is not None
            and policy.supports_coordination
            and managed
        ):
            broker_client = BrokerClient(
                sim,
                broker,
                scheduler,
                client_id=name,
                period=spec.sync_period,
                scope=io_class.value,
            )
        return cls(sim, node_id, io_class, scheduler, device,
                   broker_client=broker_client, fallback=not managed)
