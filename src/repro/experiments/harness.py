"""Shared experiment plumbing: result records, cached controllers,
standard run helpers."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster import BigDataCluster
from repro.config import MB, ClusterConfig
from repro.core import DepthController, NodePolicy, PolicySpec, canonical_json
from repro.core.profiling import calibrate_controller
from repro.execution.atomic import atomic_write_json
from repro.mapreduce import Job, JobSpec
from repro.telemetry import JsonLinesTraceSink

__all__ = [
    "ExperimentResult",
    "calibration_cache_dir",
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
# experiments share one calibration per profile.  Two cache layers:
# an in-process dict, and a disk cache shared across worker processes
# and invocations (so a parallel `run all` profiles each storage setup
# exactly once instead of once per worker).
_CONTROLLERS: dict[tuple, DepthController] = {}

#: bump to invalidate every on-disk calibration (e.g. when the device
#: model or the §4 profiling procedure changes)
_CALIBRATION_VERSION = 1


def calibration_cache_dir() -> pathlib.Path:
    """Disk-cache location: ``$REPRO_CACHE_DIR``, else ``~/.cache/ibis-repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "ibis-repro"


def _calibration_path(config: ClusterConfig, kwargs: dict) -> pathlib.Path:
    payload = canonical_json(
        {
            "version": _CALIBRATION_VERSION,
            "storage": dataclasses.asdict(config.storage),
            "io_chunk": config.io_chunk,
            "kwargs": kwargs,
        }
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return calibration_cache_dir() / f"calib-{config.storage.name}-{digest}.json"


def _load_calibration(path: pathlib.Path) -> Optional[DepthController]:
    try:
        fields = json.loads(path.read_text())["controller"]
        return DepthController(**fields)
    except (OSError, ValueError, KeyError, TypeError):
        return None  # missing or corrupt cache entry: recalibrate


def _store_calibration(path: pathlib.Path, ctrl: DepthController) -> None:
    """Best-effort atomic write: a parallel cold start has every worker
    profile then publish concurrently, and readers must only ever see a
    complete JSON document (temp file + rename; last writer wins)."""
    try:
        atomic_write_json(path, {"controller": dataclasses.asdict(ctrl)})
    except OSError:
        pass  # read-only cache dir etc.: the in-memory cache still works


def controller_for(config: ClusterConfig, **kwargs) -> DepthController:
    """Cached ``calibrate_controller`` (one profiling pass per setup).

    Point ``REPRO_CACHE_DIR`` at an empty directory to start without
    the disk layer's entries (the in-process cache is always on).
    """
    key = (config.storage, config.io_chunk, tuple(sorted(kwargs.items())))
    ctrl = _CONTROLLERS.get(key)
    if ctrl is not None:
        return ctrl
    path = _calibration_path(config, dict(kwargs))
    ctrl = _load_calibration(path)
    if ctrl is None:
        ctrl = calibrate_controller(config, **kwargs)
        _store_calibration(path, ctrl)
    _CONTROLLERS[key] = ctrl
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
