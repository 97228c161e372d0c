"""The Resource Manager: container allocation with fair sharing.

Application Masters request containers (vcores + memory + locality
preference); the RM grants them subject to per-node capacity and the
Fair Scheduler's entitlements.  Grants go to the most-starved eligible
application first (lowest used-cores/weight), which converges to the
weighted fair shares as containers churn — the practical effect of the
Fair Scheduler with preemption for the short tasks of this workload.
Requests wait FIFO per application and container shape; a shape that
fits nowhere does not block the app's other shapes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.simcore import Event, SimulationError, Simulator

__all__ = ["AppHandle", "ContainerGrant", "ResourceManager"]


@dataclass
class AppHandle:
    """RM-side state of a registered application."""

    app_id: str
    weight: float = 1.0
    max_cores: Optional[int] = None  # hard CPU cap (the paper pins these)
    cores_used: int = 0
    mem_used: int = 0
    #: the name of every container event of the app (one shared string)
    event_name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("app weight must be positive")
        if self.max_cores is not None and self.max_cores <= 0:
            raise ValueError("max_cores must be positive when set")
        self.event_name = f"container:{self.app_id}"


@dataclass(frozen=True)
class ContainerGrant:
    """The value delivered by a granted container request."""

    node_id: str
    vcores: int
    memory: int


@dataclass(slots=True)
class _Pending:
    app: AppHandle
    vcores: int
    memory: int
    preferred: tuple[str, ...]
    event: Event
    seq: int


class ResourceManager:
    def __init__(
        self,
        sim: Simulator,
        node_ids: Sequence[str],
        cores_per_node: int,
        memory_per_node: int,
    ):
        if not node_ids:
            raise ValueError("need at least one node")
        self.sim = sim
        self.node_ids = list(node_ids)
        self.cores_free = {n: int(cores_per_node) for n in node_ids}
        self.mem_free = {n: int(memory_per_node) for n in node_ids}
        self.cores_per_node = int(cores_per_node)
        self.memory_per_node = int(memory_per_node)
        self.apps: dict[str, AppHandle] = {}
        self._pending: dict[int, _Pending] = {}  # by seq
        self._queues: dict[tuple[str, int, int], deque[_Pending]] = {}
        self._seq = 0
        self._dead: set[str] = set()  # crashed nodes, no new containers

    # ------------------------------------------------------------- liveness
    def node_down(self, node: str) -> None:
        """Stop granting containers on a crashed node.

        Capacity already granted there is reclaimed by the AppMaster
        releasing the dead containers (the normal release path)."""
        if node not in self.node_ids:
            raise ValueError(f"unknown node {node!r}")
        self._dead.add(node)

    def node_up(self, node: str) -> None:
        """A crashed node recovered; its capacity is grantable again."""
        self._dead.discard(node)
        self._allocate()

    def is_alive(self, node: str) -> bool:
        return node not in self._dead

    # ------------------------------------------------------------------ api
    def register_app(
        self, app_id: str, weight: float = 1.0, max_cores: Optional[int] = None
    ) -> AppHandle:
        if app_id in self.apps:
            raise ValueError(f"app {app_id!r} already registered")
        app = AppHandle(app_id, weight=weight, max_cores=max_cores)
        self.apps[app_id] = app
        return app

    def unregister_app(self, app_id: str) -> None:
        app = self.apps.pop(app_id, None)
        if app is not None and app.cores_used:
            raise SimulationError(
                f"app {app_id!r} unregistered with {app.cores_used} cores in use"
            )
        for key in [k for k in self._queues if k[0] == app_id]:
            for p in self._queues.pop(key):
                del self._pending[p.seq]
        self._allocate()

    def request_container(
        self,
        app_id: str,
        vcores: int,
        memory: int,
        preferred: Sequence[str] = (),
    ) -> Event:
        """Returns an event succeeding with a :class:`ContainerGrant`."""
        app = self.apps[app_id]
        if vcores <= 0 or vcores > self.cores_per_node:
            raise ValueError(f"vcores {vcores} outside (0, {self.cores_per_node}]")
        if memory <= 0 or memory > self.memory_per_node:
            raise ValueError("memory outside node capacity")
        ev = Event(self.sim, name=app.event_name)
        self._seq += 1
        p = _Pending(app, vcores, memory, tuple(preferred), ev, self._seq)
        self._pending[p.seq] = p
        self._queues.setdefault((app_id, vcores, memory), deque()).append(p)
        self._allocate()
        return ev

    def release_container(self, app_id: str, grant: ContainerGrant) -> None:
        app = self.apps[app_id]
        app.cores_used -= grant.vcores
        app.mem_used -= grant.memory
        if app.cores_used < 0 or app.mem_used < 0:
            raise SimulationError(f"container over-release by {app_id!r}")
        self.cores_free[grant.node_id] += grant.vcores
        self.mem_free[grant.node_id] += grant.memory
        self._allocate()

    # -------------------------------------------------------------- internals
    def _find_node(self, p: _Pending) -> Optional[str]:
        dead = self._dead
        for n in p.preferred:
            if n in dead:
                continue
            if self.cores_free.get(n, 0) >= p.vcores and self.mem_free.get(n, 0) >= p.memory:
                return n
        best, best_free = None, -1
        for n in self.node_ids:
            if n in dead:
                continue
            if self.cores_free[n] >= p.vcores and self.mem_free[n] >= p.memory:
                if self.cores_free[n] > best_free:
                    best, best_free = n, self.cores_free[n]
        return best

    def _allocate(self) -> None:
        """Grant as much as possible, most-starved application first.

        A queue's requests share app and shape, so they are equally
        eligible and ``_find_node`` places all or none of them
        (``preferred`` only picks the node).  The first placeable request
        in (starvation, seq) order is therefore a queue head.
        """
        while True:
            heads = []
            for key, q in self._queues.items():
                app, vcores = q[0].app, key[1]
                if app.max_cores is None or app.cores_used + vcores <= app.max_cores:
                    heads.append((app.cores_used / app.weight, q[0].seq, key))
            for _, _, key in sorted(heads):
                q = self._queues[key]
                node = self._find_node(q[0])
                if node is not None:
                    break
            else:
                return
            p = q.popleft()
            if not q:
                del self._queues[key]
            del self._pending[p.seq]
            self.cores_free[node] -= p.vcores
            self.mem_free[node] -= p.memory
            p.app.cores_used += p.vcores
            p.app.mem_used += p.memory
            p.event.succeed(ContainerGrant(node, p.vcores, p.memory))
