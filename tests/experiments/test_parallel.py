"""Tests for the parallel fan-out subsystem."""

import functools

from repro.config import default_cluster
from repro.execution.pool import active_jobs, parallel_jobs, run_specs
from repro.experiments import figures
from repro.experiments.report import result_payload


def _square(x, offset=0):
    """Module-level on purpose: pool functions are pickled by reference."""
    return x * x + offset


# -------------------------------------------------------------- run_specs
def test_run_specs_serial_without_pool():
    assert active_jobs() == 1
    assert run_specs(_square, range(5)) == [0, 1, 4, 9, 16]


def test_run_specs_parallel_matches_serial_in_order():
    # A partial of a module-level function pickles too.
    fn = functools.partial(_square, offset=3)
    serial = run_specs(fn, range(8))
    assert serial == [i * i + 3 for i in range(8)]
    with parallel_jobs(2):
        assert active_jobs() == 2
        parallel = run_specs(fn, range(8))
    assert active_jobs() == 1
    assert parallel == serial


def test_parallel_jobs_nested_keeps_outer_pool():
    with parallel_jobs(2):
        with parallel_jobs(3):  # no-op: outer pool stays active
            assert active_jobs() == 2
    assert active_jobs() == 1


# ------------------------------------------------- figure-level determinism
def test_figure_parallel_output_is_byte_identical():
    """The acceptance property: a figure regenerated through the worker
    pool serializes to exactly the same bytes as a serial run."""
    config = default_cluster(scale=1.0 / 2048.0)
    serial = result_payload(figures.fig13_overhead(config))
    with parallel_jobs(2):
        parallel = result_payload(figures.fig13_overhead(config))
    assert parallel == serial
