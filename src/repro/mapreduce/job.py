"""Job specifications and runtime job state."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core import IOTag
from repro.simcore import Gate, Simulator

__all__ = ["Job", "JobSpec", "MapOutput"]


@dataclass(frozen=True)
class JobSpec:
    """Static description of a MapReduce job.

    Data volumes are totals across the job; per-task volumes derive from
    the task counts.  CPU costs are seconds of compute per MB processed,
    which together with the volumes sets the job's I/O intensity — the
    knob that differentiates TeraGen (I/O-bound) from WordCount
    (compute-heavy, §2.3).
    """

    name: str
    input_path: Optional[str] = None     # HDFS file read by maps (None: generator)
    shuffle_bytes: int = 0               # map output == reduce input, total
    output_bytes: int = 0                # final HDFS output, total
    n_maps: Optional[int] = None         # generators only; inputs map per block
    n_reduces: int = 0                   # 0 => map-only job
    map_cpu_s_per_mb: float = 0.002
    reduce_cpu_s_per_mb: float = 0.002
    map_spill_factor: float = 1.0        # intermediate writes per map-output byte
    reduce_merge_factor: float = 1.0     # intermediate write+read per shuffled byte
    slowstart: float = 0.05              # map completion fraction before reducers

    def __post_init__(self):
        if self.input_path is None and self.n_maps is None:
            raise ValueError(f"job {self.name!r}: generator jobs need n_maps")
        if self.input_path is not None and self.n_maps is not None:
            raise ValueError(
                f"job {self.name!r}: input jobs run one map per block; "
                "n_maps is for generators only"
            )
        if self.n_maps is not None and self.n_maps <= 0:
            raise ValueError("n_maps must be positive when given")
        if self.n_reduces < 0:
            raise ValueError("n_reduces must be non-negative")
        if self.n_reduces == 0 and self.shuffle_bytes > 0:
            raise ValueError("map-only jobs cannot shuffle")
        for attr in ("shuffle_bytes", "output_bytes"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be non-negative")
        if self.map_cpu_s_per_mb < 0 or self.reduce_cpu_s_per_mb < 0:
            raise ValueError("cpu costs must be non-negative")
        if self.map_spill_factor < 1.0 and self.shuffle_bytes > 0:
            raise ValueError("map_spill_factor must be >= 1 for shuffling jobs")
        if self.reduce_merge_factor < 0:
            raise ValueError("reduce_merge_factor must be non-negative")
        if not (0.0 <= self.slowstart <= 1.0):
            raise ValueError("slowstart must be in [0, 1]")


@dataclass(frozen=True)
class MapOutput:
    """Record of one completed map's output, consumed by reducers."""

    map_index: int
    node_id: str
    nbytes: int   # total map output (all partitions)


class Job:
    """Runtime state of a submitted job."""

    def __init__(self, sim: Simulator, spec: JobSpec, app_id: str, tag: IOTag):
        self.sim = sim
        self.spec = spec
        self.app_id = app_id
        self.tag = tag
        self.submit_time: float = sim.now
        self.start_time: Optional[float] = None
        self.maps_done_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.n_maps_total: int = 0            # set by the AM once splits exist
        self.maps_completed: int = 0
        self.reduces_completed: int = 0
        self.map_outputs: list[MapOutput] = []
        self.map_output_gate = Gate(sim, name=f"{app_id}:mapout")
        self.done = sim.event(name=f"{app_id}:done")

    # ---------------------------------------------------------------- state
    @property
    def runtime(self) -> float:
        if self.finish_time is None:
            raise RuntimeError(f"job {self.spec.name!r} has not finished")
        return self.finish_time - self.submit_time

    @property
    def map_phase_done(self) -> bool:
        return self.n_maps_total > 0 and self.maps_completed >= self.n_maps_total

    def note_map_output(self, out: MapOutput) -> None:
        self.maps_completed += 1
        self.map_outputs.append(out)
        if self.map_phase_done:
            self.maps_done_time = self.sim.now
        self.map_output_gate.open()

    def note_reduce_done(self) -> None:
        self.reduces_completed += 1

    def finish(self) -> None:
        self.finish_time = self.sim.now
        self.done.succeed(self)
