"""The execution core: scenarios → store or worker pool → manifests.

The figure functions and the ``run scenario`` CLI (serial, ``--jobs N``,
``--sweep`` grids) route through :class:`ExecutionCore`:

* :class:`~repro.execution.store.ResultStore` — persistent manifests
  keyed by scenario content hash under ``$REPRO_CACHE_DIR``; repeated
  scenarios are cache hits and interrupted sweeps resume.  The scenario
  service (:mod:`repro.service`) answers repeats from the same store;
* :mod:`~repro.execution.pool` — the shared process-pool backend with
  the in-item-order determinism guarantee.

See DESIGN.md ("Execution core & scenario service").
"""

from repro.execution.atomic import (
    atomic_write_json,
    atomic_write_text,
    cache_dir,
    fsync_dir,
)
from repro.execution.core import ExecutionCore
from repro.execution.pool import (
    active_jobs,
    default_jobs,
    parallel_jobs,
    run_specs,
)
from repro.execution.store import (
    RESULT_SCHEMA,
    EvictionReport,
    ResultStore,
    ResultStoreError,
)

__all__ = [
    "RESULT_SCHEMA",
    "EvictionReport",
    "ExecutionCore",
    "ResultStore",
    "ResultStoreError",
    "active_jobs",
    "atomic_write_json",
    "atomic_write_text",
    "cache_dir",
    "default_jobs",
    "fsync_dir",
    "parallel_jobs",
    "run_specs",
]
