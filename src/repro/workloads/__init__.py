"""Workload builders: the benchmark applications of §7.

Every builder takes the cluster configuration and returns a
:class:`~repro.mapreduce.job.JobSpec` with paper-sized volumes scaled
down by ``config.scale``.  The SWIM trace sampler,
:func:`repro.workloads.swim.facebook2009_trace`, is imported from its
module: it draws from numpy's own generator, which the other builders
do not need.
"""

from repro.workloads.apps import (
    APP_BUILDERS,
    build_app,
    teragen,
    terasort,
    teravalidate,
    wordcount,
)
from repro.workloads.synthetic import io_ramp_job

__all__ = [
    "APP_BUILDERS",
    "build_app",
    "io_ramp_job",
    "teragen",
    "terasort",
    "teravalidate",
    "wordcount",
]
