"""Experiment harness: one function per figure/table of the paper's §7.

Each ``fig*``/``tab*`` function in :mod:`repro.experiments.figures`
builds the clusters, runs the workloads, and returns an
:class:`~repro.experiments.harness.ExperimentResult` whose rows mirror
the bars/series the paper reports.  The benchmark suite under
``benchmarks/`` drives exactly these functions; the worker-pool helpers
(``parallel_jobs``, ``run_specs``) live in :mod:`repro.execution`.

This package re-exports only the harness and report names, so importing
it (or :mod:`repro.experiments.harness`) to run one scenario loads
neither the figure code nor the process pool.
"""

from repro.experiments.harness import ExperimentResult, controller_for
from repro.experiments.report import format_result, result_payload

__all__ = [
    "ExperimentResult",
    "controller_for",
    "format_result",
    "result_payload",
]
