"""The execution core the one-shot run paths share.

``ExecutionCore.run`` takes an ordered batch of scenarios and returns
their manifests **in input order**:

1. with an optional persistent
   :class:`~repro.execution.store.ResultStore`, each scenario is looked
   up by content hash (and deduplicated within the batch — the same
   content hash executes at most once);
2. the misses fan out over the shared worker pool
   (:func:`~repro.execution.pool.run_specs`, activated by
   :func:`~repro.execution.pool.parallel_jobs`);
3. fresh manifests are persisted before the batch returns, so an
   interrupted sweep grid resumes with only its missing cells.

The figures and the ``run scenario`` CLI (``--jobs N`` and ``--sweep``
grids) call this method.  The scenario service (:mod:`repro.service`)
does not: it shares the store and :func:`~repro.scenario.runner.
run_scenario`, but runs batches on its own warm workers.  Without a
store the core degrades to the plain deterministic fan-out,
byte-identical to running :func:`~repro.scenario.runner.run_scenario`
in a loop.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.execution.pool import RunSpec, run_specs
from repro.execution.store import ResultStore
from repro.scenario.runner import RunManifest, run_scenario
from repro.scenario.spec import Scenario

__all__ = ["ExecutionCore"]


class ExecutionCore:
    """Scenarios → (store | worker pool) → manifests, in order."""

    def __init__(self, store: Optional[ResultStore] = None):
        self.store = store
        #: batch-level counters (store-level hit/miss live on the store)
        self.cache_hits = 0
        self.executed = 0

    def run(self, scenarios: Sequence[Scenario]) -> list[RunManifest]:
        """Run a batch; manifests come back in input order."""
        manifests: list[Optional[RunManifest]] = [None] * len(scenarios)

        # Store lookups + within-batch dedup (only with a store: the
        # bare fan-out keeps strict one-run-per-scenario semantics).
        pending: list[int] = []
        first_of: dict[str, int] = {}
        aliases: list[tuple[int, int]] = []
        for i, scenario in enumerate(scenarios):
            if self.store is not None:
                key = scenario.content_hash()
                prior = first_of.get(key)
                if prior is not None:
                    aliases.append((i, prior))
                    self.cache_hits += 1
                    continue
                hit = self.store.get(key)
                if hit is not None:
                    manifests[i] = hit
                    self.cache_hits += 1
                    continue
                first_of[key] = i
            pending.append(i)

        specs = [RunSpec.of(run_scenario, scenarios[i], label=scenarios[i].name)
                 for i in pending]
        for i, manifest in zip(pending, run_specs(specs)):
            manifests[i] = manifest
            self.executed += 1
            if self.store is not None:
                self.store.put(manifest)
        for i, src in aliases:
            manifests[i] = manifests[src]
        return manifests  # type: ignore[return-value]

    def submit(self, scenario: Scenario) -> RunManifest:
        """Run one scenario (a batch of one)."""
        return self.run([scenario])[0]
