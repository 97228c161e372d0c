"""Facebook2009-like workload, in the style of SWIM (§7.3).

The paper samples 50 jobs from the Facebook 2009 production trace with
the SWIM generator, down-scaled to the testbed.  The trace itself is
not redistributable at this fidelity, so we synthesise a statistically
similar mix (the substitution is documented in DESIGN.md):

* heavy-tailed input sizes (most jobs are small, a few are large),
* input-to-shuffle ratios spanning 0.05–10³ and shuffle-to-output
  ratios spanning 2⁻⁵–10² (the ranges the paper quotes),
* Poisson arrivals.

What Fig. 9 measures — the runtime CDF and how contention shifts it —
depends on this job-size mix, not on the exact trace rows.

The draws come from a :class:`~repro.simcore.rng.PCG64Stream`, whose
``exponential``/``lognormal``/``uniform`` equal numpy's
``default_rng`` bit for bit, so sampling the trace needs no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import ClusterConfig, GB, MB
from repro.mapreduce import JobSpec
from repro.simcore.rng import PCG64Stream

__all__ = ["SwimJob", "facebook2009_trace"]


@dataclass(frozen=True)
class SwimJob:
    """One sampled job: a spec plus its arrival offset."""

    spec: JobSpec
    arrival: float
    input_bytes: int   # paper-scale bytes before cluster scaling


def facebook2009_trace(
    config: ClusterConfig,
    n_jobs: int = 50,
    mean_interarrival: float = 4.0,
    rng: PCG64Stream | None = None,
) -> list[SwimJob]:
    """Sample the synthetic Facebook2009 workload.

    ``mean_interarrival`` is in simulated seconds at cluster scale (the
    original trace spans hours; the paper down-scales to its testbed).
    """
    if n_jobs <= 0:
        raise ValueError("n_jobs must be positive")
    if mean_interarrival <= 0:
        raise ValueError("mean_interarrival must be positive")
    if rng is None:
        rng = PCG64Stream(20090101)

    jobs: list[SwimJob] = []
    t = 0.0
    for i in range(n_jobs):
        t += float(rng.exponential(mean_interarrival))
        # Heavy-tailed inputs: median ~2 GB, occasional tens of GB.
        input_paper = float(rng.lognormal(mean=math.log(2 * GB), sigma=1.3))
        input_paper = float(min(max(input_paper, 64 * MB), 60 * GB))
        # Ratios from the paper's quoted ranges (log-uniform).
        in_to_shuffle = 10 ** rng.uniform(math.log10(0.05), math.log10(1e3))
        shuffle_to_out = 10 ** rng.uniform(math.log10(2.0**-5),
                                           math.log10(1e2))
        shuffle_paper = input_paper / in_to_shuffle
        # Bound shuffle so a freak sample cannot dwarf the whole trace.
        shuffle_paper = float(min(max(shuffle_paper, 0), 4 * input_paper))
        output_paper = shuffle_paper / shuffle_to_out
        output_paper = float(min(max(output_paper, 0), 2 * input_paper))

        scaled_in = config.scaled(input_paper)
        # Scale without the one-chunk floor: a shuffle smaller than one
        # I/O chunk means the job is effectively map-only (the trace has
        # plenty of those).
        scaled_shuffle = int(shuffle_paper * config.scale)
        if scaled_shuffle < config.io_chunk:
            scaled_shuffle = 0
        scaled_out = int(output_paper * config.scale)
        if scaled_out < config.io_chunk:
            scaled_out = 0
        has_reduce = scaled_shuffle > 0
        spec = JobSpec(
            name=f"fb{i:02d}",
            input_path=f"/in/fb{i:02d}",
            shuffle_bytes=scaled_shuffle if has_reduce else 0,
            output_bytes=scaled_out,
            n_reduces=max(1, min(8, scaled_shuffle // (64 * MB))) if has_reduce else 0,
            map_cpu_s_per_mb=float(rng.uniform(0.005, 0.08)),
            reduce_cpu_s_per_mb=float(rng.uniform(0.002, 0.03)),
            map_spill_factor=1.0,
            reduce_merge_factor=1.0,
        )
        jobs.append(SwimJob(spec=spec, arrival=t, input_bytes=int(input_paper)))
    return jobs
