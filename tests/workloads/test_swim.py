"""Tests for the Facebook2009-like SWIM trace generator."""

import numpy as np
import pytest

from repro.config import default_cluster
from repro.simcore.rng import PCG64Stream
from repro.workloads.swim import facebook2009_trace

CFG = default_cluster()


def test_trace_has_requested_jobs_and_monotone_arrivals():
    trace = facebook2009_trace(CFG, n_jobs=50)
    assert len(trace) == 50
    arrivals = [j.arrival for j in trace]
    assert arrivals == sorted(arrivals)
    assert arrivals[0] > 0


def test_trace_is_deterministic_per_rng():
    a = facebook2009_trace(CFG, n_jobs=20, rng=PCG64Stream(5))
    b = facebook2009_trace(CFG, n_jobs=20, rng=PCG64Stream(5))
    assert [j.spec for j in a] == [j.spec for j in b]
    assert [j.arrival for j in a] == [j.arrival for j in b]


@pytest.mark.parametrize("seed,n_jobs", [
    (20090101, 50), (0, 1), (5, 20), (2**64 - 1, 200), (7, 500)])
def test_trace_equals_the_one_numpy_samples(seed, n_jobs):
    ours = facebook2009_trace(CFG, n_jobs=n_jobs, rng=PCG64Stream(seed))
    theirs = facebook2009_trace(
        CFG, n_jobs=n_jobs, rng=np.random.default_rng(seed))
    assert [(j.spec, j.arrival, j.input_bytes) for j in ours] == [
        (j.spec, j.arrival, j.input_bytes) for j in theirs]


def test_default_trace_is_numpys_at_seed_20090101():
    assert facebook2009_trace(CFG) == facebook2009_trace(
        CFG, rng=np.random.default_rng(20090101))


def test_job_mix_is_diverse():
    trace = facebook2009_trace(CFG, n_jobs=50)
    sizes = np.array([j.input_bytes for j in trace], dtype=float)
    # heavy-tailed: the largest input dwarfs the median
    assert sizes.max() > 5 * np.median(sizes)
    # both map-only and shuffling jobs occur
    n_reduce = sum(1 for j in trace if j.spec.n_reduces > 0)
    assert 0 < n_reduce < 50


def test_specs_are_valid_and_named_uniquely():
    trace = facebook2009_trace(CFG, n_jobs=30)
    names = [j.spec.name for j in trace]
    assert len(set(names)) == 30
    for j in trace:
        assert j.spec.input_path is not None


def test_parameter_validation():
    with pytest.raises(ValueError):
        facebook2009_trace(CFG, n_jobs=0)
    with pytest.raises(ValueError):
        facebook2009_trace(CFG, mean_interarrival=0.0)
