"""Unit tests for JobSpec validation and Job state tracking."""

import pytest

from repro.config import MB
from repro.core import IOTag
from repro.mapreduce import Job, JobSpec
from repro.mapreduce.job import MapOutput
from repro.simcore import Simulator


def test_generator_job_requires_n_maps():
    with pytest.raises(ValueError):
        JobSpec(name="gen")  # no input_path and no n_maps


def test_input_job_rejects_n_maps():
    # An input job runs one map per block; only generators set n_maps.
    with pytest.raises(ValueError, match="one map per block"):
        JobSpec(name="scan", input_path="/in/w", n_maps=4)


def test_map_only_cannot_shuffle():
    with pytest.raises(ValueError):
        JobSpec(name="x", n_maps=1, shuffle_bytes=10, n_reduces=0)


def test_negative_volumes_rejected():
    with pytest.raises(ValueError):
        JobSpec(name="x", n_maps=1, output_bytes=-1)
    with pytest.raises(ValueError):
        JobSpec(name="x", n_maps=0)
    with pytest.raises(ValueError):
        JobSpec(name="x", n_maps=1, n_reduces=-1)


def test_spill_factor_bounds():
    with pytest.raises(ValueError):
        JobSpec(name="x", n_maps=2, shuffle_bytes=10, n_reduces=1,
                map_spill_factor=0.5)
    with pytest.raises(ValueError):
        JobSpec(name="x", n_maps=2, slowstart=1.5)


def test_valid_spec_roundtrip():
    spec = JobSpec(name="s", input_path="/in", shuffle_bytes=8 * MB,
                   output_bytes=4 * MB, n_reduces=2)
    assert spec.n_maps is None
    assert spec.slowstart == 0.05


def test_job_state_machine():
    sim = Simulator()
    spec = JobSpec(name="j", n_maps=2, n_reduces=0)
    job = Job(sim, spec, "app1", IOTag("app1"))
    job.n_maps_total = 2
    assert not job.map_phase_done
    with pytest.raises(RuntimeError):
        _ = job.runtime

    job.note_map_output(MapOutput(0, "n0", 0))
    assert not job.map_phase_done
    job.note_map_output(MapOutput(1, "n1", 0))
    assert job.map_phase_done
    assert job.maps_done_time == sim.now

    job.finish()
    assert job.runtime == 0.0
    assert job.done.triggered


def test_map_output_gate_broadcasts():
    sim = Simulator()
    spec = JobSpec(name="j", n_maps=1, n_reduces=0)
    job = Job(sim, spec, "app1", IOTag("app1"))
    job.n_maps_total = 1
    woke = []

    def reducer_like():
        yield job.map_output_gate.wait()
        woke.append(sim.now)

    sim.process(reducer_like())
    sim.call_in(3.0, lambda: job.note_map_output(MapOutput(0, "n0", 5)))
    sim.run()
    assert woke == [3.0]
