"""The scenario service: a long-running scheduler in front of the
persistent result store.

An async central scheduler
(:class:`~repro.service.scheduler.SchedulerService`) accepts scenario
submissions over ``tcp://host:port`` (:mod:`~repro.service.transport`),
deduplicates them by content hash, answers repeats from the
:class:`~repro.execution.store.ResultStore`, queues the rest in arrival
order, runs each as its own task on a warm worker (at most ``jobs`` at
once), and streams manifests — plus, on request, the run's
telemetry-bus events —
back to the thin :class:`~repro.service.client.ServiceClient`.  Its
:class:`~repro.service.journal.SubmissionJournal` allocates every
sub-id, so acknowledged ids survive restarts and are never reused.

Start one from the CLI (``python -m repro.experiments.run serve``) or
in-process::

    from repro.execution import ResultStore
    from repro.service import SchedulerService, ServiceClient

    service = SchedulerService(store=ResultStore.default()).start("tcp://127.0.0.1:0")
    with ServiceClient(service.address) as client:  # the bound port
        manifest = client.run("examples/scenarios/latency_breakdown.json")
    service.stop()

See DESIGN.md ("Execution core & scenario service").
"""

from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceTimeout,
)
from repro.service.journal import (
    JOURNAL_SCHEMA,
    JournalError,
    SubmissionJournal,
)
from repro.service.scheduler import (
    SchedulerService,
    SubmissionRecord,
    backoff,
    run_one,
)
from repro.service.transport import (
    connect,
    decode,
    encode,
    listen,
    parse_address,
)

__all__ = [
    "JOURNAL_SCHEMA",
    "JournalError",
    "SchedulerService",
    "ServiceClient",
    "ServiceError",
    "ServiceTimeout",
    "SubmissionJournal",
    "SubmissionRecord",
    "backoff",
    "connect",
    "decode",
    "encode",
    "listen",
    "parse_address",
    "run_one",
]
