"""The per-job Application Master.

Plans splits (one map per input block, locality-preferring), requests
containers from the Resource Manager, runs task processes inside them,
launches reducers once the slowstart fraction of maps has completed
(their shuffle overlaps the remaining map waves, as in Hadoop), and
marks the job finished when its last task ends.
"""

from __future__ import annotations

from repro.config import YarnConfig
from repro.dataplane import CancelScope
from repro.mapreduce.job import Job
from repro.mapreduce.task import TaskEnv, run_map_task, run_reduce_task
from repro.simcore import Event, FaultError, Interrupt, SimulationError
from repro.simcore.engine import _TRIGGERED
from repro.telemetry import TASK_RETRY, TaskRetry
from repro.yarnsim import ContainerGrant, ResourceManager

__all__ = ["AppMaster"]


class AppMaster:
    def __init__(
        self,
        env: TaskEnv,
        rm: ResourceManager,
        job: Job,
        yarn: YarnConfig,
    ):
        self.env = env
        self.rm = rm
        self.job = job
        self.yarn = yarn
        #: the join over the job's task processes, one per map and reduce
        self._tasks = env.sim.join()

    # ---------------------------------------------------------------- plan
    def plan_splits(self) -> list[tuple[tuple[int, ...], tuple[str, ...]]]:
        """Return one (block_indices, preferred_nodes) entry per map."""
        spec = self.job.spec
        if spec.input_path is None:
            return [((), ()) for _ in range(spec.n_maps or 0)]
        f = self.env.dfs.namenode.lookup(spec.input_path)
        blocks = list(range(len(f.blocks)))
        if spec.n_maps is not None and spec.n_maps < len(blocks):
            # Group consecutive blocks into the requested number of splits.
            n = spec.n_maps
            out = []
            per = len(blocks) / n
            for i in range(n):
                lo, hi = round(i * per), round((i + 1) * per)
                group = tuple(blocks[lo:hi])
                preferred = f.blocks[group[0]].replicas if group else ()
                out.append((group, preferred))
            return [s for s in out if s[0]]
        return [((i,), f.blocks[i].replicas) for i in blocks]

    # ----------------------------------------------------------------- run
    def run(self):
        """Generator: the AM main loop (spawned as a process)."""
        sim = self.env.sim
        job = self.job
        spec = job.spec
        job.start_time = sim.now

        splits = self.plan_splits()
        job.n_maps_total = len(splits)
        if job.n_maps_total == 0:
            raise ValueError(f"job {spec.name!r} planned zero maps")

        for i, (blocks, preferred) in enumerate(splits):
            self._park(run_map_task, (i, blocks), preferred, "map")

        if spec.n_reduces > 0:
            threshold = max(1, int(spec.slowstart * job.n_maps_total))
            while job.maps_completed < threshold:
                yield job.map_output_gate.wait()
            for r in range(spec.n_reduces):
                self._park(run_reduce_task, (r,), (), "red")

        yield self._tasks.arm(job.n_maps_total + spec.n_reduces)
        job.finish()

    def _park(self, task, args, preferred, kind: str) -> None:
        """Queue a task's :class:`_ParkedTask` record now."""
        sim = self.env.sim
        sim._queue._seq += 1
        sim._now_q.append(_ParkedTask(self, task, args, preferred, kind))

    def _shape(self, kind: str) -> tuple[int, int]:
        """The (vcores, memory) of a ``kind`` task's container."""
        yarn = self.yarn
        if kind == "map":
            return yarn.map_task_vcores, yarn.map_task_memory
        return yarn.reduce_task_vcores, yarn.reduce_task_memory

    def _run_granted(self, grant: ContainerGrant, task, args, preferred,
                     kind: str):
        """Generator: run ``task(env, job, node, scope, *args)`` in
        ``grant``'s container, and release the container whatever
        happens.

        A task killed by an injected fault (its node crashed, or all its
        I/O retries were exhausted) is re-run in a fresh container on a
        different node, up to ``yarn.max_task_attempts`` attempts; the
        dead attempt's cancel scope withdraws its still-queued I/O from
        the schedulers before the retry.  Any non-fault failure
        propagates: it's a model bug, not weather.  The task is labelled
        ``kind`` plus its index, ``args[0]`` (``map3``, ``red0``).
        """
        sim = self.env.sim
        env = self.env
        app_id = self.job.app_id
        what = f"{kind}{args[0]}"
        attempts = 0
        avoid: tuple[str, ...] = ()  # nodes an attempt died on
        while True:
            scope = CancelScope(name=f"{app_id}:{what}:a{attempts}")
            proc = sim.process(
                task(env, self.job, grant.node_id, scope, *args),
                name=f"task@{grant.node_id}",
            )
            if env.faults is not None:
                env.faults.watch_task(grant.node_id, proc)
            try:
                yield proc
                return
            except Interrupt as intr:
                if not isinstance(intr.cause, FaultError):
                    raise
                failure: Exception = intr.cause
            except FaultError as exc:
                failure = exc
            finally:
                self.rm.release_container(app_id, grant)
            scope.cancel()
            attempts += 1
            avoid += (grant.node_id,)
            if attempts >= self.yarn.max_task_attempts:
                raise SimulationError(
                    f"task {what} of {app_id} failed "
                    f"{attempts} attempts (last on {grant.node_id})"
                ) from failure
            telemetry = env.telemetry
            if telemetry is not None and telemetry.publishes(TASK_RETRY):
                telemetry.publish(TaskRetry(
                    t=sim.now, source=app_id, task=what,
                    node=grant.node_id, attempt=attempts,
                ))
            prefer = tuple(n for n in preferred if n not in avoid) or preferred
            grant = yield self.rm.request_container(
                app_id, *self._shape(kind), prefer)


class _ParkedTask:
    """A task waiting for its container.

    The AppMaster queues one per task as it plans the task.  When popped
    it makes the task's first container request and waits on the
    container event as its only callback.  When the container is
    granted, it starts the task's process (:meth:`AppMaster._run_granted`)
    synchronously, inside that callback.  So a parked task is this
    record, its request and its event, with no process or suspended
    generator.
    """

    __slots__ = ("am", "task", "args", "preferred", "kind")

    #: a queued record is never withdrawn
    _state = _TRIGGERED

    def __init__(self, am: AppMaster, task, args, preferred, kind: str):
        self.am = am
        self.task = task
        self.args = args
        self.preferred = preferred
        self.kind = kind

    def _process(self) -> None:
        am = self.am
        am.rm.request_container(
            am.job.app_id, *am._shape(self.kind), self.preferred
        ).callbacks.append(self)

    def __call__(self, granted: Event) -> None:
        am = self.am
        proc = am.env.sim.start(
            am._run_granted(
                granted._value, self.task, self.args, self.preferred, self.kind
            ),
            name=f"{am.job.app_id}:{self.kind}{self.args[0]}",
        )
        am._tasks.add(proc)
