"""The per-shape queue allocator grants exactly what a full scan would.

``ReferenceRM`` is the allocator the queues replaced: one pending list,
filtered and re-sorted by (used cores / weight, seq) on every pass, with
the first placeable request granted.  Both RMs are driven through the
same seeded random operation sequences; after every operation they must
agree on the granted (seq, node) sequence, free capacity, per-app usage
and the number of waiting requests.
"""

import random
from types import SimpleNamespace

from repro.config import GB
from repro.simcore import Event, SimulationError
from repro.yarnsim import ResourceManager
from repro.yarnsim.resourcemanager import ContainerGrant, _Pending

NODES = ["n0", "n1", "n2"]
SHAPES = [(1, 2 * GB), (1, 8 * GB), (2, 1 * GB), (4, 4 * GB)]
SEEDS = range(200)
OPS = 300


class ReferenceRM(ResourceManager):
    """One pending list, scanned and sorted on every allocation pass."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending = []

    def unregister_app(self, app_id):
        app = self.apps.pop(app_id, None)
        if app is not None and app.cores_used:
            raise SimulationError(f"app {app_id!r} still holds cores")
        self._pending = [p for p in self._pending if p.app.app_id != app_id]
        self._allocate()

    def request_container(self, app_id, vcores, memory, preferred=()):
        ev = Event(self.sim, name=f"container:{app_id}")
        self._seq += 1
        self._pending.append(_Pending(
            self.apps[app_id], vcores, memory, tuple(preferred), ev, self._seq))
        self._allocate()
        return ev

    def _find_node(self, p):
        for n in p.preferred:
            if n in self._dead:
                continue
            if self.cores_free.get(n, 0) >= p.vcores and self.mem_free.get(n, 0) >= p.memory:
                return n
        best, best_free = None, -1
        for n in self.node_ids:
            if n in self._dead:
                continue
            if self.cores_free[n] >= p.vcores and self.mem_free[n] >= p.memory:
                if self.cores_free[n] > best_free:
                    best, best_free = n, self.cores_free[n]
        return best

    def _allocate(self):
        while True:
            candidates = [
                p for p in self._pending
                if p.app.max_cores is None
                or p.app.cores_used + p.vcores <= p.app.max_cores
            ]
            candidates.sort(key=lambda p: (p.app.cores_used / p.app.weight, p.seq))
            for p in candidates:
                node = self._find_node(p)
                if node is not None:
                    break
            else:
                return
            self._pending.remove(p)
            self.cores_free[node] -= p.vcores
            self.mem_free[node] -= p.memory
            p.app.cores_used += p.vcores
            p.app.mem_used += p.memory
            p.event.succeed(ContainerGrant(node, p.vcores, p.memory))


class Driven:
    """One RM plus the log of its grants, in the order they fire.

    The RM only hands its simulator to the events it creates, and a
    granted event pushes itself onto the simulator's same-instant FIFO;
    a stand-in whose FIFO is a plain list records those pushes, which
    gives the grant order without running an event loop.
    """

    def __init__(self, cls):
        self.fired = []
        sim = SimpleNamespace(_queue=SimpleNamespace(_seq=0), _now_q=self.fired)
        self.rm = cls(sim, NODES, cores_per_node=4, memory_per_node=8 * GB)
        self.requests = {}  # event -> (app_id, seq)
        self.log = []   # (seq, node_id) per grant
        self.held = []  # (app_id, grant) not yet released

    def request(self, app_id, vcores, memory, preferred):
        ev = self.rm.request_container(app_id, vcores, memory, preferred)
        self.requests[ev] = (app_id, len(self.requests) + 1)

    def state(self):
        for ev in self.fired[len(self.log):]:
            app_id, seq = self.requests[ev]
            self.log.append((seq, ev.value.node_id))
            self.held.append((app_id, ev.value))
        rm = self.rm
        return (self.log, rm.cores_free, rm.mem_free,
                {a: h.cores_used for a, h in rm.apps.items()}, len(rm._pending))


def run_sequence(seed):
    rng = random.Random(seed)
    ref, new = Driven(ReferenceRM), Driven(ResourceManager)
    both = (ref, new)
    n_apps = 0
    for step in range(OPS):
        apps = list(new.rm.apps)
        roll = rng.random()
        if not apps or roll < 0.05:
            n_apps += 1
            weight = rng.choice([0.5, 1.0, 2.0, 3.0])
            cap = rng.choice([None, None, 2, 4, 6])
            op = ("register", f"a{n_apps}", weight, cap)
            for d in both:
                d.rm.register_app(op[1], weight=weight, max_cores=cap)
        elif roll < 0.45:
            vcores, memory = rng.choice(SHAPES)
            preferred = rng.sample(NODES + ["nx"], rng.randint(0, 2))
            op = ("request", rng.choice(apps), vcores, memory, preferred)
            for d in both:
                d.request(*op[1:])
        elif roll < 0.85:
            if not new.held:
                continue
            i = rng.randrange(len(new.held))
            op = ("release",) + new.held[i]
            for d in both:
                d.rm.release_container(*d.held.pop(i))
        elif roll < 0.92:
            idle = [a for a in apps if new.rm.apps[a].cores_used == 0]
            if not idle:
                continue
            op = ("unregister", rng.choice(idle))
            for d in both:
                d.rm.unregister_app(op[1])
        else:
            node = rng.choice(NODES)
            up = rng.random() < 0.5
            op = ("node_up" if up else "node_down", node)
            for d in both:
                (d.rm.node_up if up else d.rm.node_down)(node)
        assert ref.state() == new.state(), f"seed {seed} step {step} after {op}"
    return len(new.log)


def test_queue_allocator_matches_full_scan():
    grants = sum(run_sequence(seed) for seed in SEEDS)
    assert grants > 10 * len(SEEDS)  # the sequences do exercise grants
