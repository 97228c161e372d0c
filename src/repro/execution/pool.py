"""The shared worker-pool backend: parallel fan-out of independent runs.

Every paper artifact is a set of *independent* deterministic
simulations: each run builds its own :class:`~repro.simcore.Simulator`
from an explicit seed, so runs can execute in any process in any order
without changing their results.  This module is the pool the
one-shot run paths share:

* **across experiments** — ``python -m repro.experiments.run all
  --jobs N`` submits whole figures to the pool;
* **within a figure / across a sweep grid** —
  :class:`~repro.execution.core.ExecutionCore` expresses each scenario
  as a picklable :class:`RunSpec` and executes batches with
  :func:`run_specs`.

The scenario service (:mod:`repro.service`) does not use this pool: it
keeps its own warm workers for the life of the process.

Determinism guarantee
---------------------
``run_specs`` merges results **by spec order**, never by completion
order, and workers share nothing with each other.  Parallel output is
therefore identical to serial output — byte for byte once formatted.

The pool is activated with the :func:`parallel_jobs` context manager;
outside it (or with ``jobs=1``) ``run_specs`` degrades to a plain
serial loop, so calling code never has to care which mode it is in.
Worker processes inherit an activated pool marker through ``fork`` but
never use it: :func:`run_specs` checks the owning PID, so nested
fan-out inside a worker silently runs serially instead of deadlocking.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

__all__ = ["RunSpec", "execute", "run_specs", "parallel_jobs", "active_jobs",
           "default_jobs"]


@dataclass(frozen=True)
class RunSpec:
    """A picklable description of one independent simulation run.

    ``fn`` must be a module-level callable (pickled by reference);
    ``kwargs`` is stored as a sorted tuple of pairs so specs are
    hashable and their identity is order-insensitive.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: tuple = ()
    label: str = ""

    @classmethod
    def of(cls, fn: Callable[..., Any], *args: Any, label: str = "",
           **kwargs: Any) -> "RunSpec":
        return cls(fn=fn, args=tuple(args),
                   kwargs=tuple(sorted(kwargs.items())),
                   label=label or getattr(fn, "__name__", "run"))


def execute(spec: RunSpec) -> Any:
    """Run one spec (this is what worker processes execute)."""
    return spec.fn(*spec.args, **dict(spec.kwargs))


# The shared pool: one executor per top-level `parallel_jobs` block,
# tagged with the PID that created it so forked workers ignore it.
_pool: Optional[ProcessPoolExecutor] = None
_pool_pid: Optional[int] = None
_jobs: int = 1


def default_jobs() -> int:
    """Worker count for ``--jobs 0``: every core the OS gives us."""
    return os.cpu_count() or 1


def active_jobs() -> int:
    """Worker count of the live pool (1 = serial)."""
    return _jobs if _pool is not None and _pool_pid == os.getpid() else 1


@contextmanager
def parallel_jobs(jobs: int) -> Iterator[None]:
    """Activate a shared worker pool for :func:`run_specs` in this block.

    ``jobs <= 1`` is a no-op; nesting inside an active pool keeps the
    outer pool (the inner block simply reuses it).
    """
    global _pool, _pool_pid, _jobs
    jobs = int(jobs)
    if jobs <= 1 or active_jobs() > 1:
        yield
        return
    pool = ProcessPoolExecutor(max_workers=jobs)
    _pool, _pool_pid, _jobs = pool, os.getpid(), jobs
    try:
        yield
    finally:
        _pool, _pool_pid, _jobs = None, None, 1
        pool.shutdown()


def run_specs(specs: Sequence[RunSpec]) -> list[Any]:
    """Execute specs — in parallel when a pool is active — and return
    their results **in spec order** (the determinism guarantee)."""
    specs = list(specs)
    pool = _pool if _pool is not None and _pool_pid == os.getpid() else None
    if pool is None or len(specs) < 2:
        return [execute(s) for s in specs]
    return list(pool.map(execute, specs))
