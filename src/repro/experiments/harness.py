"""Shared experiment plumbing: result records, cached controllers,
standard run helpers."""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster import BigDataCluster
from repro.config import MB, ClusterConfig
from repro.core import DepthController, NodePolicy, PolicySpec
from repro.core.profiling import calibrate_controller
from repro.mapreduce import Job, JobSpec
from repro.telemetry import JsonLinesTraceSink

__all__ = [
    "ExperimentResult",
    "controller_for",
    "run_single_job",
    "total_throughput_mbs",
]


@dataclass
class ExperimentResult:
    """What an experiment produced: named rows and optional series.

    ``rows`` is a list of dicts (one per bar/line of the figure);
    ``series`` maps a name to ``(times, values)`` pairs for
    time-series figures (Fig. 2, Fig. 7) and CDFs (Fig. 9).
    """

    name: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    series: dict[str, tuple[list[float], list[float]]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def row(self, **kv: Any) -> None:
        self.rows.append(kv)

    def find(self, **match: Any) -> dict[str, Any]:
        """The first row whose fields match (for assertions in tests).

        Raises a :class:`KeyError` that lists the keys and values the
        rows actually carry, so a typo'd case name fails with the menu
        of valid ones instead of a bare "no row matching".
        """
        for r in self.rows:
            if all(r.get(k) == v for k, v in match.items()):
                return r
        available: dict[str, list] = {}
        for r in self.rows:
            for key in match:
                if key in r and r[key] not in available.setdefault(key, []):
                    available[key].append(r[key])
        detail = (
            "; ".join(f"{k} in {vals}" for k, vals in available.items())
            if available
            else f"no row has any of {sorted(match)}; "
                 f"row keys: {sorted({k for r in self.rows for k in r})}"
        )
        raise KeyError(
            f"no row matching {match} in {self.name} "
            f"({len(self.rows)} rows; {detail})"
        )


# The §4 profiling procedure is deterministic per storage profile, so
# a process calibrates each setup once.  Forked workers inherit what the
# parent already calibrated, and figures and the scenario service ship
# the resolved controller inside each scenario.
_CONTROLLERS: dict[tuple, DepthController] = {}


def controller_for(config: ClusterConfig, **kwargs) -> DepthController:
    """``calibrate_controller``, memoised in this process per storage
    profile, chunk size and calibration arguments."""
    key = (config.storage, config.io_chunk, tuple(sorted(kwargs.items())))
    ctrl = _CONTROLLERS.get(key)
    if ctrl is None:
        ctrl = _CONTROLLERS[key] = calibrate_controller(config, **kwargs)
    return ctrl


def run_single_job(
    config: ClusterConfig,
    policy: "PolicySpec | NodePolicy",
    spec: JobSpec,
    preloads: dict[str, float],
    max_cores: Optional[int] = None,
    io_weight: float = 1.0,
    trace_path: Optional[pathlib.Path] = None,
) -> tuple[Job, BigDataCluster]:
    """Run one job to completion on a fresh cluster.

    With ``trace_path`` set, every telemetry event of the run is
    exported as one JSON line (see :mod:`repro.telemetry.trace`).
    """
    cluster = BigDataCluster(config, policy)
    for path, size in preloads.items():
        cluster.preload_input(path, size)
    trace = (JsonLinesTraceSink(cluster.telemetry, trace_path)
             if trace_path is not None else None)
    try:
        job = cluster.submit(spec, io_weight=io_weight, max_cores=max_cores)
        cluster.run()
    finally:
        if trace is not None:
            trace.close()
    return job, cluster


def total_throughput_mbs(cluster: BigDataCluster, t_end: float) -> float:
    """Aggregate storage throughput (MB/s) over [0, t_end) — Fig. 6b/8b."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    return cluster.windowed_throughput(0.0, t_end) / MB
