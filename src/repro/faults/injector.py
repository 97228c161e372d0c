"""Executes a :class:`~repro.faults.plan.FaultPlan` against a cluster.

The injector is armed once at cluster construction: it schedules one
engine callback per planned fault (plus one per recovery), all at times
fixed before the simulation starts — jitter is drawn up front from the
seeded ``"faults"`` RNG stream, so the same seed and plan always yield
the same injection schedule and therefore bit-identical runs.

What each fault does:

* **node_crash** — the node's two storage devices and both NIC
  directions :meth:`fail`, erroring every in-flight I/O with a
  :class:`~repro.faults.errors.FaultError`; running task processes on
  the node are interrupted; the NameNode and ResourceManager exclude
  the node.  A transient crash schedules the symmetric recovery.
* **slow_disk** — a rate factor is applied to one device for the
  window, then restored.
* **broker_outage** — the Scheduling Broker rejects reports for the
  window; clients skip rounds and reconcile by epoch on recovery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.errors import DeviceFailure, LinkFailure, NodeFailure
from repro.faults.plan import (
    BROKER_OUTAGE,
    NODE_CRASH,
    SLOW_DISK,
    FaultEvent,
    FaultPlan,
)
from repro.simcore import Process
from repro.telemetry import (
    FAULT_INJECTED,
    NODE_DOWN,
    NODE_UP,
    FaultInjected,
    NodeDown,
    NodeUp,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import BigDataCluster

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules and fires the faults of one plan on one cluster."""

    def __init__(self, cluster: "BigDataCluster", plan: FaultPlan):
        self.cluster = cluster
        self.plan = plan
        self.sim = cluster.sim
        self.telemetry = cluster.telemetry
        self._rng = cluster.rng.stream("faults")
        #: nodes currently crashed (read by the HDFS failover path)
        self.down_nodes: set[str] = set()
        #: live task processes per node, interrupted on a crash there
        self._watched: dict[str, list[Process]] = {}
        #: fault events fired so far
        self.injected = 0
        self._armed = False
        for ev in plan.events:
            if ev.kind != BROKER_OUTAGE and ev.target not in cluster.nodes:
                raise ValueError(
                    f"fault targets unknown node {ev.target!r}"
                )

    # ------------------------------------------------------------------ api
    def arm(self) -> None:
        """Schedule every planned fault (call once, before running)."""
        if self._armed:
            raise RuntimeError("fault injector already armed")
        self._armed = True
        for ev in self.plan.events:
            at = ev.at
            if ev.jitter > 0:
                at += float(self._rng.uniform(0.0, ev.jitter))
            self.sim.call_at(at, lambda e=ev: self._fire(e))

    def alive(self, node: str) -> bool:
        return node not in self.down_nodes

    def watch_task(self, node: str, proc: Process) -> None:
        """Track a task process so a crash of ``node`` interrupts it."""
        procs = self._watched.setdefault(node, [])
        procs.append(proc)
        proc.callbacks.append(lambda _ev: procs.remove(proc))

    # ------------------------------------------------------------- dispatch
    def _fire(self, ev: FaultEvent) -> None:
        self.injected += 1
        if self.telemetry.publishes(FAULT_INJECTED):
            self.telemetry.publish(FaultInjected(
                t=self.sim.now, source="faults", fault=ev.kind,
                target=ev.target, duration=ev.duration,
            ))
        if ev.kind == NODE_CRASH:
            self._node_crash(ev)
        elif ev.kind == SLOW_DISK:
            self._slow_disk(ev)
        else:
            self._broker_outage(ev)

    # --------------------------------------------------------------- faults
    def _node_devices(self, node: str):
        nodeio = self.cluster.nodes[node]
        return (nodeio.hdfs_device, nodeio.tmp_device)

    def _node_crash(self, ev: FaultEvent) -> None:
        node = ev.target
        if node in self.down_nodes:
            return  # crashing a crashed node is a no-op
        self.down_nodes.add(node)
        self.cluster.namenode.node_down(node)
        self.cluster.rm.node_down(node)
        exc = NodeFailure(f"node {node} crashed at t={self.sim.now:.3f}")
        for dev in self._node_devices(node):
            dev.fail(DeviceFailure(f"{dev.name} lost in crash of {node}"))
        self.cluster.net.egress[node].fail(
            LinkFailure(f"{node} egress lost in crash")
        )
        self.cluster.net.ingress[node].fail(
            LinkFailure(f"{node} ingress lost in crash")
        )
        # Interrupt over a copy: completion callbacks mutate the list.
        for proc in list(self._watched.get(node, ())):
            if proc.is_alive:
                proc.interrupt(exc)
        if self.telemetry.publishes(NODE_DOWN):
            self.telemetry.publish(NodeDown(
                t=self.sim.now, source=node, permanent=ev.duration <= 0,
            ))
        if ev.duration > 0:
            self.sim.call_in(ev.duration, lambda n=node: self._node_recover(n))

    def _node_recover(self, node: str) -> None:
        self.down_nodes.discard(node)
        self.cluster.namenode.node_up(node)
        self.cluster.rm.node_up(node)
        for dev in self._node_devices(node):
            dev.repair()
        self.cluster.net.egress[node].repair()
        self.cluster.net.ingress[node].repair()
        # The node's schedulers report again: bump their epoch so the
        # broker rebases instead of tripping the monotonicity check.
        for client in self.cluster.nodes[node].broker_clients:
            client.restart()
        if self.telemetry.publishes(NODE_UP):
            self.telemetry.publish(NodeUp(t=self.sim.now, source=node))

    def _slow_disk(self, ev: FaultEvent) -> None:
        nodeio = self.cluster.nodes[ev.target]
        dev = nodeio.hdfs_device if ev.device == "hdfs" else nodeio.tmp_device
        dev.set_rate_factor(ev.factor)
        self.sim.call_in(ev.duration, lambda d=dev: d.set_rate_factor(1.0))

    def _broker_outage(self, ev: FaultEvent) -> None:
        broker = self.cluster.broker
        if broker is None:
            return  # uncoordinated policy: nothing to take down
        broker.set_down(True)
        self.sim.call_in(ev.duration, lambda: broker.set_down(False))
