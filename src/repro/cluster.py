"""BigDataCluster: the whole simulated testbed, wired together.

One object owns the simulator, the eight worker nodes (two interposed
devices each), the network fabric, HDFS, the YARN Resource Manager, and
— when the policy asks for it — the IBIS Scheduling Broker.  Jobs are
submitted against it and it runs until they all finish.

This is the main entry point of the public API::

    from repro import BigDataCluster, PolicySpec, default_cluster
    from repro.workloads import wordcount, teragen

    cluster = BigDataCluster(default_cluster(), PolicySpec.native())
    cluster.preload_input("/in/wiki", 50 * GB)
    wc = cluster.submit(wordcount(cluster.config, "/in/wiki"),
                        io_weight=32.0, max_cores=48)
    tg = cluster.submit(teragen(cluster.config), io_weight=1.0, max_cores=48)
    cluster.run()
    print(wc.runtime, tg.runtime)
"""

from __future__ import annotations

from typing import Optional, Union

from repro.config import ClusterConfig
from repro.core import (
    DataNodeIO,
    IOClass,
    IOTag,
    NodePolicy,
    PolicySpec,
    SchedulingBroker,
)
from repro.core.metrics import aggregate_service
from repro.faults import FaultInjector, FaultPlan
from repro.hdfs import DFSClient, NameNode
from repro.hdfs.datanode import BlockService
from repro.localfs import LocalFS
from repro.mapreduce import AppMaster, Job, JobSpec
from repro.mapreduce.task import TaskEnv
from repro.net import NetFabric
from repro.simcore import RngRegistry, SimulationError, Simulator
from repro.telemetry import TelemetryBus

__all__ = ["BigDataCluster"]


class BigDataCluster:
    def __init__(
        self,
        config: ClusterConfig,
        policy: Union[PolicySpec, NodePolicy],
        faults: Optional[FaultPlan] = None,
    ):
        self.config = config
        self.policy = NodePolicy.coerce(policy)
        self.sim = Simulator()
        self.rng = RngRegistry(config.seed)
        # One bus for the whole testbed: every scheduler, device and the
        # broker publish here, so a single sink observes the cluster.
        self.telemetry = TelemetryBus()

        node_ids = [f"dn{i:02d}" for i in range(config.n_workers)]
        self.node_ids = node_ids
        self.broker: Optional[SchedulingBroker] = (
            SchedulingBroker(self.sim, telemetry=self.telemetry)
            if self.policy.coordinated else None
        )
        self.nodes: dict[str, DataNodeIO] = {
            nid: DataNodeIO(
                self.sim, nid, config, self.policy, broker=self.broker,
                telemetry=self.telemetry,
            )
            for nid in node_ids
        }
        self.net = NetFabric(self.sim, node_ids, config.nic_bandwidth)
        self.namenode = NameNode(
            node_ids,
            block_size=config.sim_block_size,
            replication=config.yarn.dfs_replication,
            rng=self.rng.stream("placement"),
        )
        self.block_service = BlockService(
            self.sim,
            self.nodes,
            self.net,
            config.io_chunk,
            read_window=config.read_window,
            write_window=config.write_window,
            telemetry=self.telemetry,
        )
        self.dfs = DFSClient(self.sim, self.namenode, self.block_service)
        self.localfs = {
            nid: LocalFS(
                self.sim,
                node,
                config.io_chunk,
                read_window=config.read_window,
                write_window=config.write_window,
            )
            for nid, node in self.nodes.items()
        }
        from repro.yarnsim import ResourceManager  # local import: avoid cycle

        self.rm = ResourceManager(
            self.sim,
            node_ids,
            cores_per_node=config.cores_per_node,
            memory_per_node=config.alloc_memory_per_node,
        )
        self.env = TaskEnv(
            sim=self.sim,
            dfs=self.dfs,
            localfs=self.localfs,
            net=self.net,
            rng=self.rng.stream("task-jitter"),
            telemetry=self.telemetry,
        )
        self.jobs: list[Job] = []

        # Fault injection: only armed when a plan is supplied; a healthy
        # run never touches any of the fault machinery.
        self.faults: Optional[FaultInjector] = None
        if faults is not None:
            self.faults = FaultInjector(self, faults)
            self.block_service.enable_failover(faults, self.faults)
            self.env.faults = self.faults
            self.faults.arm()

    # ------------------------------------------------------------------ api
    def preload_input(self, path: str, nbytes: int, nodes=None) -> None:
        """Materialise an input file (paper-sized; scaled internally),
        spread evenly over the datanodes — or over a subset (``nodes``)
        to induce skewed data distribution.  Not simulated I/O."""
        self.dfs.preload(path, self.config.scaled(nbytes), nodes=nodes)

    def submit(
        self,
        spec: JobSpec,
        io_weight: float = 1.0,
        cpu_weight: float = 1.0,
        max_cores: Optional[int] = None,
        delay: float = 0.0,
    ) -> Job:
        """Register a job; its AM starts after ``delay`` seconds.

        ``io_weight`` is the IBIS bandwidth share weight carried by every
        I/O the job issues; ``cpu_weight``/``max_cores`` control the Fair
        Scheduler's CPU allocation (the paper pins CPU with max_cores).
        """
        app_id = f"app{len(self.jobs) + 1:02d}-{spec.name}"
        job = Job(self.sim, spec, app_id, IOTag(app_id, io_weight))
        self.jobs.append(job)

        def start() -> None:
            job.submit_time = self.sim.now
            self.rm.register_app(app_id, weight=cpu_weight, max_cores=max_cores)
            am = AppMaster(self.env, self.rm, job, self.config.yarn)

            def am_and_cleanup():
                yield self.sim.process(am.run(), name=f"am:{app_id}")
                self.rm.unregister_app(app_id)

            self.sim.process(am_and_cleanup(), name=f"app:{app_id}")

        if delay > 0:
            self.sim.call_in(delay, start)
        else:
            start()
        return job

    def run(self, *events) -> None:
        """Run until the given events trigger, or (with no arguments)
        until every submitted job finishes.  The no-argument form loops,
        because multi-stage applications (Hive) submit jobs progressively.
        """
        if events:
            self._run_sim(self.sim.all_of(list(events)))
            return
        if not self.jobs:
            raise SimulationError("no jobs submitted")
        while True:
            unfinished = [j.done for j in self.jobs if j.finish_time is None]
            if not unfinished:
                return
            self._run_sim(self.sim.all_of(unfinished))

    def run_for(self, duration: float) -> None:
        """Run for a fixed window (used for throughput profiles)."""
        self._run_sim(duration)

    def _run_sim(self, until) -> None:
        """Run the engine, converting a task-process death into a
        :class:`SimulationError` naming the process — instead of the
        raw exception escaping with the job counter stuck and the next
        ``run()`` pass spinning to the horizon."""
        try:
            self.sim.run(until=until)
        except SimulationError:
            raise
        except Exception as exc:
            name = getattr(exc, "sim_process", None)
            who = f"process {name!r}" if name else "a simulation process"
            raise SimulationError(
                f"{who} died with {type(exc).__name__}: {exc}"
            ) from exc

    # -------------------------------------------------------------- results
    def total_service_by_app(self) -> dict[str, float]:
        """Total bytes serviced per application across all schedulers —
        the quantity whose proportional sharing §5 targets."""
        return aggregate_service(
            sched.stats.service_by_app
            for node in self.nodes.values()
            for sched in node.schedulers.values()
        )

    def windowed_throughput(self, t0: float, t1: float) -> float:
        """Aggregate storage throughput (bytes/s) over [t0, t1) —
        the Fig. 6b/8b accounting, owned by the cluster so experiments
        need not reach into per-node schedulers."""
        if t1 <= t0:
            raise ValueError("need t1 > t0")
        return sum(m.window_total(t0, t1) for m in self.meters()) / (t1 - t0)

    def meters(self, app_id: Optional[str] = None, op: Optional[str] = None):
        """The schedulers' completed-bytes rate meters, one per
        (scheduler, app, op), optionally of one app and/or one op."""
        if op not in (None, "read", "write"):
            raise ValueError("op must be 'read' or 'write'")
        return [
            meter
            for sched in self.schedulers()
            for (app, meter_op), meter in sched.stats.meters.items()
            if (app_id is None or app == app_id)
            and (op is None or meter_op == op)
        ]

    def schedulers(self, io_class: Optional[IOClass] = None):
        """Iterate interposed schedulers, optionally one class only."""
        for node in self.nodes.values():
            for cls, sched in node.schedulers.items():
                if io_class is None or cls is io_class:
                    yield sched
