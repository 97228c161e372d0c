"""Materialise and run a :class:`~repro.scenario.spec.Scenario`.

:class:`ScenarioRunner` turns the declarative spec into a live
:class:`~repro.cluster.BigDataCluster` — preloads, submissions, faults,
telemetry sinks — runs it to the spec's end condition, and emits a
:class:`RunManifest`: the scenario's content hash, the seed, elapsed
simulated/wall time, one metric row per job, and any requested
summaries and series.  Everything in the manifest except ``wall_time``
and ``trace_path`` is deterministic, captured by ``metrics_hash`` — the
same scenario (hence seed) always reproduces it bit for bit.

:func:`run_scenario` is the module-level, picklable entry point the
execution core (:mod:`repro.execution`) dispatches to worker
processes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import time
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Optional, Union

from repro.cluster import BigDataCluster
from repro.config import MB
from repro.core import canonical_json
from repro.dataplane import SpanRecorder
from repro.hive import build_query, run_query
from repro.hive.engine import QueryRun
from repro.mapreduce import Job
from repro.scenario.spec import JobEntry, Scenario
from repro.telemetry import (
    DEPTH_CHANGED,
    REPLICA_FAILOVER,
    TASK_RETRY,
    CounterSink,
    JsonLinesTraceSink,
    TimeSeriesSink,
)
from repro.workloads import build_app, facebook2009_trace

__all__ = ["RunManifest", "ScenarioRunner", "run_scenario"]

#: A submitted entry's runtime handle: one job, a Hive query run, or
#: the expanded jobs of a trace replay.
Handle = Union[Job, QueryRun, list]


@dataclass
class RunManifest:
    """Everything needed to audit (and reproduce) one scenario run."""

    scenario: str
    scenario_hash: str
    seed: int
    scale: float
    storage: str
    sim_time: float
    wall_time: float
    rows: list[dict[str, Any]] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    series: dict[str, tuple[list[float], list[float]]] = field(
        default_factory=dict
    )
    trace_path: Optional[str] = None

    # ------------------------------------------------------------- access
    def job_rows(self, entry: str) -> list[dict[str, Any]]:
        """All rows of one workload entry (trace entries have many)."""
        return [r for r in self.rows if r["entry"] == entry]

    def job_row(self, entry: str) -> dict[str, Any]:
        """The single row of one entry; raises if absent or ambiguous."""
        rows = self.job_rows(entry)
        if len(rows) != 1:
            raise KeyError(
                f"expected exactly one row for entry {entry!r}, got "
                f"{len(rows)}; entries: {sorted({r['entry'] for r in self.rows})}"
            )
        return rows[0]

    def runtime(self, entry: str) -> float:
        """One entry's runtime; raises if it did not finish."""
        rt = self.job_row(entry)["runtime"]
        if rt is None:
            raise RuntimeError(f"entry {entry!r} did not finish")
        return rt

    # ------------------------------------------------------ serialization
    def metrics_hash(self) -> str:
        """Digest of the deterministic payload (rows, summary, counters,
        series) — excludes wall time and trace paths by construction."""
        payload = canonical_json(
            {
                "rows": self.rows,
                "summary": self.summary,
                "counters": self.counters,
                "series": self.series,
            }
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "scenario_hash": self.scenario_hash,
            "metrics_hash": self.metrics_hash(),
            "seed": self.seed,
            "scale": self.scale,
            "storage": self.storage,
            "sim_time": self.sim_time,
            "wall_time": self.wall_time,
            "rows": self.rows,
            "summary": self.summary,
            "counters": self.counters,
            "series": self.series,
            "trace_path": self.trace_path,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunManifest":
        """Inverse of :meth:`to_dict`: ``from_dict(to_dict(m))`` has the
        same ``metrics_hash`` as ``m`` (canonical JSON treats the tuples
        rebuilt here and the lists JSON produced identically).

        Unknown fields raise a :class:`ValueError` naming them and the
        fields this build knows — a manifest written by a newer schema
        fails loudly instead of with a bare ``TypeError``.
        """
        payload = dict(data)
        payload.pop("metrics_hash", None)  # derived, recomputed on demand
        known = {f.name for f in fields(cls)}
        extra = set(payload) - known
        if extra:
            raise ValueError(
                f"unknown RunManifest fields {sorted(extra)}; this build "
                f"knows {sorted(known)}"
            )
        payload["series"] = {
            k: (list(t), list(v))
            for k, (t, v) in dict(payload.get("series", {})).items()
        }
        return cls(**payload)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json.loads(text))


class ScenarioRunner:
    """Runs scenarios; one instance may run many (it keeps no state
    between runs beyond the optional trace target).

    ``trace_path`` may also be an open text stream (the scenario
    service streams a run's telemetry through one); only real paths are
    recorded in the manifest.
    """

    def __init__(self, trace_path: "pathlib.Path | str | Any | None" = None):
        self.trace_path = trace_path

    # ----------------------------------------------------------- plumbing
    def materialise(self, scenario: Scenario) -> BigDataCluster:
        """Build the cluster alone (no preloads/submissions) — exposed
        for tests and tools that want the wired testbed."""
        return BigDataCluster(
            scenario.cluster, scenario.policy, faults=scenario.faults
        )

    def _submit(
        self, cluster: BigDataCluster, entry: JobEntry
    ) -> Handle:
        config = cluster.config
        if entry.app == "hive":
            params = dict(entry.params)
            query = build_query(config, **params)
            return run_query(
                cluster,
                query,
                io_weight=entry.io_weight,
                cpu_weight=entry.cpu_weight,
                max_cores=entry.max_cores,
                delay=entry.submit_at,
            )
        if entry.app == "swim":
            trace = facebook2009_trace(config, **entry.params)
            jobs = []
            for sj in trace:
                cluster.preload_input(sj.spec.input_path, sj.input_bytes)
                jobs.append(
                    cluster.submit(
                        sj.spec,
                        io_weight=entry.io_weight,
                        cpu_weight=entry.cpu_weight,
                        max_cores=entry.max_cores,
                        delay=entry.submit_at + sj.arrival,
                    )
                )
            return jobs
        params = dict(entry.params)
        if entry.name:
            params.setdefault("name", entry.name)
        spec = build_app(config, entry.app, **params)
        return cluster.submit(
            spec,
            io_weight=entry.io_weight,
            cpu_weight=entry.cpu_weight,
            max_cores=entry.max_cores,
            delay=entry.submit_at,
        )

    @staticmethod
    def _jobs_of(handle: Handle) -> list[Job]:
        if isinstance(handle, Job):
            return [handle]
        if isinstance(handle, QueryRun):
            return handle.stage_jobs
        return list(handle)

    @staticmethod
    def _done_events(handle: Handle):
        if isinstance(handle, (Job, QueryRun)):
            return [handle.done]
        return [j.done for j in handle]

    @staticmethod
    def _window_end(
        scenario: Scenario,
        cluster: BigDataCluster,
        handles: "dict[str, Handle]",
    ) -> float:
        measure = scenario.measure
        if measure.window == "run":
            return cluster.sim.now
        if measure.window == "until_finish":
            handle = handles[measure.until[0]]
            finishes = [
                h.finish_time
                for h in ([handle] if isinstance(handle, (Job, QueryRun))
                          else handle)
                if h.finish_time is not None
            ]
        else:  # min_finish
            finishes = [
                h.finish_time
                for handle in handles.values()
                for h in ([handle] if isinstance(handle, (Job, QueryRun))
                          else handle)
                if h.finish_time is not None
            ]
        if not finishes:
            raise RuntimeError(
                f"scenario {scenario.name!r}: window {measure.window!r} "
                f"needs at least one finished job"
            )
        return min(finishes)

    # ---------------------------------------------------------------- run
    def run(self, scenario: Scenario) -> RunManifest:
        t_wall = time.perf_counter()
        measure = scenario.measure
        cluster = self.materialise(scenario)

        # Sinks must subscribe before any simulated work happens.
        trace = None
        trace_is_path = isinstance(self.trace_path, (str, os.PathLike))
        if self.trace_path is not None:
            target = (pathlib.Path(self.trace_path) if trace_is_path
                      else self.trace_path)
            trace = JsonLinesTraceSink(cluster.telemetry, target)
        fault_sinks = None
        if "fault_counters" in measure.metrics:
            fault_sinks = (
                CounterSink(cluster.telemetry, REPLICA_FAILOVER),
                CounterSink(cluster.telemetry, TASK_RETRY),
            )
        span_recorder = None
        if "latency" in measure.metrics:
            # Subscribing is what switches span publication on: the
            # schedulers only build Span events once someone listens.
            span_recorder = SpanRecorder(cluster.telemetry)
        depth_sinks = None
        if "depth_trace" in measure.metrics:
            source = measure.options.get("depth_source", "dn00:persistent")
            depth_sinks = (
                TimeSeriesSink(
                    cluster.telemetry, DEPTH_CHANGED, source=source,
                    value=lambda ev: ev.depth, name="depth",
                ),
                TimeSeriesSink(
                    cluster.telemetry, DEPTH_CHANGED, source=source,
                    value=lambda ev: ev.latency,
                    when=lambda ev: ev.samples > 0, name="latency",
                ),
            )

        try:
            for preload in scenario.workload.preloads:
                cluster.preload_input(
                    preload.path,
                    preload.nbytes,
                    nodes=list(preload.nodes) or None,
                )
            handles: dict[str, Handle] = {}
            for entry in scenario.workload.jobs:
                handles[entry.key] = self._submit(cluster, entry)

            if measure.horizon > 0:
                cluster.run_for(measure.horizon)
            elif measure.until:
                events = [
                    ev
                    for key in measure.until
                    for ev in self._done_events(handles[key])
                ]
                cluster.run(*events)
            else:
                cluster.run()
        finally:
            if trace is not None:
                trace.close()

        manifest = RunManifest(
            scenario=scenario.name,
            scenario_hash=scenario.content_hash(),
            seed=scenario.cluster.seed,
            scale=scenario.cluster.scale,
            storage=scenario.cluster.storage.name,
            sim_time=cluster.sim.now,
            wall_time=time.perf_counter() - t_wall,
            trace_path=str(self.trace_path) if trace_is_path else None,
        )
        self._collect(scenario, cluster, handles, manifest,
                      fault_sinks=fault_sinks, depth_sinks=depth_sinks,
                      span_recorder=span_recorder)
        return manifest

    # ------------------------------------------------------------ metrics
    def _collect(
        self,
        scenario: Scenario,
        cluster: BigDataCluster,
        handles: "dict[str, Handle]",
        manifest: RunManifest,
        fault_sinks=None,
        depth_sinks=None,
        span_recorder=None,
    ) -> None:
        measure = scenario.measure
        metrics = measure.metrics
        windowed = {"throughput_mbs", "service", "device_series"}
        end = (
            self._window_end(scenario, cluster, handles)
            if windowed & set(metrics)
            else cluster.sim.now
        )

        for entry in scenario.workload.jobs:
            handle = handles[entry.key]
            if isinstance(handle, QueryRun):
                row = {
                    "entry": entry.key,
                    "job": handle.query.name,
                    "app_id": None,
                    "submit": handle.submit_time,
                    "finish": handle.finish_time,
                    "runtime": (
                        handle.runtime
                        if handle.finish_time is not None
                        else None
                    ),
                }
                if "service" in metrics:
                    row["service"] = sum(
                        self._service(cluster, job.app_id, end)
                        for job in handle.stage_jobs
                    )
                manifest.rows.append(row)
                continue
            for job in self._jobs_of(handle):
                row = {
                    "entry": entry.key,
                    "job": job.spec.name,
                    "app_id": job.app_id,
                    "submit": job.submit_time,
                    "finish": job.finish_time,
                    "runtime": (
                        job.finish_time - job.submit_time
                        if job.finish_time is not None
                        else None
                    ),
                }
                if "service" in metrics:
                    row["service"] = self._service(cluster, job.app_id, end)
                manifest.rows.append(row)

        if "throughput_mbs" in metrics:
            manifest.summary["window_end"] = end
            manifest.summary["throughput_mbs"] = (
                cluster.windowed_throughput(0.0, end) / MB if end > 0 else 0.0
            )
        if "total_service" in metrics:
            manifest.summary["total_service"] = cluster.total_service_by_app()
        if "fault_counters" in metrics:
            failovers, retries = fault_sinks
            manifest.counters["failovers"] = failovers.count
            manifest.counters["retries"] = retries.count
            manifest.counters["orphaned"] = cluster.sim.orphaned_faults
            manifest.counters["cancelled"] = cluster.sim.cancelled_collateral
        if "latency" in metrics:
            manifest.summary["latency"] = span_recorder.summary()
        if "scheduler_stats" in metrics:
            manifest.counters["requests"] = sum(
                s.stats.total_requests for s in cluster.schedulers()
            )
            manifest.counters["broker_messages"] = (
                cluster.broker.messages if cluster.broker else 0
            )
            manifest.counters["broker_message_bytes"] = (
                cluster.broker.message_bytes if cluster.broker else 0.0
            )
        if "device_series" in metrics:
            n = max(1, math.ceil(end) + 1)
            for op in ("read", "write"):
                agg = [0.0] * n
                for meter in cluster.meters(op=op):
                    ts = meter.rate_series(bucket=1.0, t_end=end + 1.0)
                    for i, v in zip(range(n), ts.values):
                        agg[i] += v / MB
                manifest.series[op] = ([float(i) for i in range(n)], agg)
        if "depth_trace" in metrics:
            depth, latency = depth_sinks
            manifest.series["depth"] = (
                list(depth.series.times), list(depth.series.values)
            )
            manifest.series["latency"] = (
                list(latency.series.times), list(latency.series.values)
            )

    @staticmethod
    def _service(cluster: BigDataCluster, app_id: str, end: float) -> float:
        """Bytes the app completed in [0, end): the int 0 when it
        completed none (no meter exists for it)."""
        return sum(m.window_total(0.0, end) for m in cluster.meters(app_id))


def run_scenario(
    scenario: Scenario, trace_path: "pathlib.Path | str | None" = None
) -> RunManifest:
    """Run one scenario — the picklable fan-out worker."""
    return ScenarioRunner(trace_path=trace_path).run(scenario)
