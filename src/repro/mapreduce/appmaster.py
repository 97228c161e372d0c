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
from repro.simcore import FaultError, Interrupt, SimulationError
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

        map_procs = [
            sim.process(
                self._run_in_container(
                    run_map_task, (i, blocks),
                    self.yarn.map_task_vcores, self.yarn.map_task_memory,
                    preferred, "map",
                ),
                name=f"{job.app_id}:map{i}",
            )
            for i, (blocks, preferred) in enumerate(splits)
        ]

        reduce_procs = []
        if spec.n_reduces > 0:
            threshold = max(1, int(spec.slowstart * job.n_maps_total))
            while job.maps_completed < threshold:
                yield job.map_output_gate.wait()
            reduce_procs = [
                sim.process(
                    self._run_in_container(
                        run_reduce_task, (r,),
                        self.yarn.reduce_task_vcores,
                        self.yarn.reduce_task_memory, (), "red",
                    ),
                    name=f"{job.app_id}:red{r}",
                )
                for r in range(spec.n_reduces)
            ]

        yield sim.all_of(map_procs + reduce_procs)
        job.finish()

    def _run_in_container(self, task, args, vcores: int, memory: int,
                          preferred, kind: str):
        """Generator: acquire a container, then run ``task(env, job,
        node, scope, *args)`` in it (see :meth:`_run_granted`).

        Every task of a job parks here on its first container request,
        so this frame is kept small: the retry loop and everything it
        needs live in :meth:`_run_granted`, which runs only once a
        container is granted.
        """
        grant = yield self.rm.request_container(
            self.job.app_id, vcores, memory, preferred
        )
        yield from self._run_granted(
            grant, task, args, vcores, memory, preferred, kind
        )

    def _run_granted(self, grant: ContainerGrant, task, args, vcores: int,
                     memory: int, preferred, kind: str):
        """Generator: run the task in ``grant``'s container, and release
        the container whatever happens.

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
            grant = yield self.rm.request_container(app_id, vcores, memory, prefer)
