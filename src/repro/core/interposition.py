"""Per-datanode I/O interposition (§3).

Each worker node hosts two devices (§7.1: HDFS data and intermediate
data on separate disks) and three interposed scheduling points, one
:class:`~repro.dataplane.IOPath` per I/O class:

* ``PERSISTENT``  → scheduler in the Data Node, in front of the HDFS disk;
* ``INTERMEDIATE`` → scheduler in the local I/O path, in front of the
  temporary-data disk;
* ``NETWORK``     → scheduler in the Node Manager's shuffle servlet,
  also in front of the temporary-data disk (map outputs live there).

A :class:`~repro.core.policy.NodePolicy` selects which scheduler class
backs each point; a bare :class:`~repro.core.policy.PolicySpec` is
accepted as shorthand for the uniform one-policy-everywhere
configuration.  Construction goes through :meth:`IOPath.build`: a
scheduler whose declared ``manages_classes`` does not cover a class
falls back to native at that point — which is exactly how cgroups ends
up managing only the INTERMEDIATE class (§6).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Optional, Union

from repro.config import ClusterConfig
from repro.core.base import IOScheduler
from repro.core.broker import BrokerClient, SchedulingBroker
from repro.core.policy import NodePolicy, PolicySpec
from repro.dataplane import IOClass, IOPath, IORequest
from repro.simcore import Event, Simulator
from repro.storage import StorageDevice
from repro.telemetry import TelemetryBus

__all__ = ["DataNodeIO", "NodePolicy", "PolicySpec"]


class DataNodeIO:
    """The storage stack of one worker node: three interposed I/O paths.

    All schedulers, both devices and any broker client publish onto one
    shared :class:`TelemetryBus` (``self.telemetry``) — pass the
    cluster's bus in to observe every node on a single stream.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        config: ClusterConfig,
        policy: Union[PolicySpec, NodePolicy],
        broker: Optional[SchedulingBroker] = None,
        telemetry: Optional[TelemetryBus] = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.policy = NodePolicy.coerce(policy)
        self.telemetry = telemetry if telemetry is not None else TelemetryBus()
        self.hdfs_device = StorageDevice(
            sim, config.storage, name=f"{node_id}:hdfs", telemetry=self.telemetry
        )
        self.tmp_device = StorageDevice(
            sim, config.storage, name=f"{node_id}:tmp", telemetry=self.telemetry
        )
        self.paths: dict[IOClass, IOPath] = {}
        for io_class, device in (
            (IOClass.PERSISTENT, self.hdfs_device),
            (IOClass.INTERMEDIATE, self.tmp_device),
            (IOClass.NETWORK, self.tmp_device),
        ):
            self.paths[io_class] = IOPath.build(
                sim,
                node_id,
                io_class,
                self.policy.spec_for(io_class),
                device,
                broker=broker,
                telemetry=self.telemetry,
            )
        self.broker_clients: list[BrokerClient] = [
            path.broker_client
            for path in self.paths.values()
            if path.broker_client is not None
        ]

    @property
    def schedulers(self) -> Mapping[IOClass, IOScheduler]:
        """Read-only view of each class's scheduler.  Requests route
        through :attr:`paths`, so a scheduler is swapped by building the
        node with another policy, never by assigning in here."""
        return MappingProxyType(
            {io_class: path.scheduler for io_class, path in self.paths.items()}
        )

    # ------------------------------------------------------------------ api
    def submit(self, req: IORequest) -> Event:
        """Route a tagged request to the interposed path of its class."""
        return self.paths[req.io_class].submit(req)

    def path(self, io_class: IOClass) -> IOPath:
        return self.paths[io_class]

    def scheduler(self, io_class: IOClass) -> IOScheduler:
        return self.paths[io_class].scheduler
