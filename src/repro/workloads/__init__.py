"""Workload builders: the benchmark applications of §7.

Every builder takes the cluster configuration and returns a
:class:`~repro.mapreduce.job.JobSpec` with paper-sized volumes scaled
down by ``config.scale``.  The SWIM trace sampler,
:func:`~repro.workloads.swim.facebook2009_trace`, returns a list of
timed jobs instead; it draws from a pure-Python
:class:`~repro.simcore.rng.PCG64Stream`, so no builder needs numpy.
"""

from repro.workloads.apps import (
    APP_BUILDERS,
    build_app,
    teragen,
    terasort,
    teravalidate,
    wordcount,
)
from repro.workloads.swim import SwimJob, facebook2009_trace

__all__ = [
    "APP_BUILDERS",
    "SwimJob",
    "build_app",
    "facebook2009_trace",
    "teragen",
    "terasort",
    "teravalidate",
    "wordcount",
]
