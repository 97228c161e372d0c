"""The long-running scenario scheduler.

One asyncio event loop (running on its own thread once
:meth:`SchedulerService.start` returns) owns all submission state; the
tcp transport (:mod:`repro.service.transport`) feeds it dict messages.  A
submission flows::

    submit → dedup (content hash) → result-store lookup → admission
          → journal (sub-id) → queue (start-tag fair order)
          → batch (cluster key) → warm worker → store → journal
          → client

* **Dedup** — a second live submission of the same scenario content
  hash attaches to the first's record instead of executing again.
* **Store** — with a :class:`~repro.execution.store.ResultStore`, a
  previously-run scenario is answered straight from disk, never queued.
* **Journal** — the :class:`~repro.service.journal.SubmissionJournal`
  allocates every sub-id and records it (fsynced, when the journal has
  a file) before the client sees ``submitted``.  On start the journal
  is replayed: new ids continue past its high-water mark, incomplete
  submissions re-enqueue under their original sub-ids with their
  journaled attempt counts, and every other old sub-id resolves on
  demand — failed ones with their error, done ones through the store
  (or as ``failed`` when the store no longer holds the result).
* **Admission & fairness** — with ``max_queue`` set, a submit that
  would push the queue past the bound gets a structured ``busy`` reply
  (the client re-offers after ``retry_after``).  Queued work drains in
  start-tag fair order — the paper's SFQ applied to the service's own
  front door: each connection is a flow with a virtual finish tag, so
  one chatty client cannot starve the others no matter how fast it
  submits.
* **Batching** — queued submissions drain in waves; each wave is
  grouped by :func:`cluster_key`, one group per worker task, so
  identical-cluster scenarios share a warm worker (and its calibration)
  while distinct groups run concurrently.
* **Guards** — a batch that dies for *infrastructure* reasons (worker
  crash, broken pool, ``timeout``) is retried per submission, up to
  ``retries`` times, after capped exponential backoff (:func:`backoff`),
  each retry isolated in its own batch so one poison submission cannot
  re-kill its siblings; then it is quarantined (terminal ``failed``
  with the backoff schedule in the status).  The supervisor replaces
  the crashed/wedged executor instead of wedging the wave.
  Deterministic *scenario* errors fail on the first attempt —
  re-running a deterministic simulator reproduces the error.
* **Streaming** — a submission with ``stream`` set runs with telemetry
  capture; its bus records are sent to the client (``event`` messages)
  before the manifest.  Streamed submissions always execute — the
  event stream is a side effect the store cannot replay — and a
  restart does not re-run them: the stream is owed to a live
  connection.

``jobs <= 1`` runs batches on a single warm thread (deterministic, and
what most tests use); ``jobs > 1`` uses a process pool.  A
timed-out thread worker is abandoned (its computation cannot be
killed); a timed-out process worker is terminated — use processes when
hard isolation matters.
"""

from __future__ import annotations

import asyncio
import hashlib
import io
import json
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.core import canonical_json
from repro.execution import ResultStore
from repro.scenario.runner import RunManifest, run_scenario
from repro.scenario.spec import Scenario
from repro.service.journal import SubmissionJournal
from repro.service.transport import error_message, listen

__all__ = [
    "SchedulerService",
    "SubmissionRecord",
    "backoff",
    "cluster_key",
    "run_batch",
]

#: Seconds a client told ``busy`` waits before re-offering.
BUSY_RETRY_AFTER = 0.05


def backoff(attempt: int) -> float:
    """Seconds to wait before retrying after failed ``attempt``
    (1-based): 50 ms, doubling per attempt, capped at 5 s."""
    return min(0.05 * 2.0 ** (attempt - 1), 5.0)


def cluster_key(scenario: Scenario) -> str:
    """Digest of the scenario's cluster config alone.

    Scenarios sharing a cluster key share storage profiles and hence
    §4 calibrations, so the scheduler batches them onto the same warm
    worker — the batch pays for at most one profiling pass.
    """
    payload = canonical_json(scenario.cluster.to_dict())
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_batch(
    payloads: Sequence[tuple[str, bool]],
) -> list[dict[str, Any]]:
    """What a warm worker executes: ``(scenario_json, collect_events)``
    pairs, serially.

    Scenarios travel as canonical JSON and manifests travel back as
    dicts, so the task is picklable for the process pool; every
    scenario in the batch shares the worker's §4 calibration cache.
    Returns one ``{"manifest", "events", "error"}`` dict per payload,
    in order.  A failing scenario reports its error instead of killing
    the rest of the batch.
    """
    out: list[dict[str, Any]] = []
    for text, collect_events in payloads:
        try:
            scenario = Scenario.from_json(text)
            if collect_events:
                buf = io.StringIO()
                manifest = run_scenario(scenario, trace_path=buf)
                events = [
                    json.loads(line)
                    for line in buf.getvalue().splitlines()
                    if line.strip()
                ]
            else:
                manifest = run_scenario(scenario)
                events = None
            out.append({
                "manifest": manifest.to_dict(),
                "events": events,
                "error": None,
            })
        except Exception as exc:  # per-submission containment
            out.append({
                "manifest": None,
                "events": None,
                "error": f"{type(exc).__name__}: {exc}",
            })
    return out


@dataclass(eq=False)
class SubmissionRecord:
    """One unit of work and its state.  Every sub-id acknowledged for it
    — the first, then any dedup aliases — maps to this one record."""

    content_hash: str
    scenario_name: str = ""
    #: canonical scenario JSON; empty when there is nothing to run
    scenario_json: str = ""
    cluster: str = ""
    stream: bool = False
    client: str = "journal"
    state: str = "queued"
    cached: bool = False
    manifest: Optional[dict] = None
    events: Optional[list] = None
    error: Optional[str] = None
    attempts: int = 0
    #: one ``{"attempt", "delay", "error", "at"}`` per retry waited out
    retries: list = field(default_factory=list)
    quarantined: bool = False
    #: fair-queuing start tag + FIFO tie-break
    start_tag: float = 0.0
    seq: int = 0
    #: a retried submission runs in its own batch (poison isolation)
    solo: bool = False
    #: every sub-id acknowledged for this record; the first runs it
    ids: list = field(default_factory=list)
    done: asyncio.Event = field(default_factory=asyncio.Event)

    @classmethod
    def finished(cls, content_hash: str, **fields: Any) -> "SubmissionRecord":
        """A record that is terminal from the start (store hit, or an
        old sub-id with nothing left to run)."""
        record = cls(content_hash, **fields)
        record.done.set()
        return record

    def status(self, sub_id: str) -> dict[str, Any]:
        out = {
            "op": "status",
            "sub_id": sub_id,
            "scenario": self.scenario_name,
            "content_hash": self.content_hash,
            "state": self.state,
            "cached": self.cached,
            "attempts": self.attempts,
        }
        if self.retries:
            out["retries"] = list(self.retries)
        if self.quarantined:
            out["quarantined"] = True
        if self.error is not None:
            out["error"] = self.error
        return out


class SchedulerService:
    """Accepts scenario submissions over a transport and executes them
    on warm workers, answering repeats from the result store.

    ``journal`` is a :class:`SubmissionJournal` or a path to one;
    without it the ids and their index live in memory only.
    ``retries`` bounds the re-runs after infrastructure failures and
    ``timeout`` (seconds, ``None`` = never) one batch execution.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        journal: "SubmissionJournal | str | None" = None,
        retries: int = 2,
        timeout: Optional[float] = None,
        max_queue: int = 0,
        store_max_bytes: int = 0,
    ):
        self.store = store
        self.jobs = max(1, int(jobs))
        if not isinstance(journal, SubmissionJournal):
            journal = SubmissionJournal(journal)
        self.journal = journal
        self.retries = max(0, int(retries))
        self.timeout = timeout
        self.max_queue = max(0, int(max_queue))  # 0 = unbounded
        self.store_max_bytes = max(0, int(store_max_bytes))
        self.address: Optional[str] = None

        self._records: dict[str, SubmissionRecord] = {}
        self._by_hash: dict[str, SubmissionRecord] = {}
        self._pending: list[SubmissionRecord] = []
        self._drain_task: Optional[asyncio.Task] = None
        self._next_seq = 0
        self._conn_count = 0
        #: SFQ front door: global virtual time + per-client finish tags.
        self._vtime = 0.0
        self._client_finish: dict[str, float] = {}
        self.stats: dict[str, int] = {
            "submitted": 0, "cache_hits": 0, "deduplicated": 0,
            "executed": 0, "failed": 0, "batches": 0,
            "recovered": 0, "retried": 0, "quarantined": 0,
            "rejected": 0, "workers_replaced": 0, "evicted": 0,
        }

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._listener = None
        self._executor = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------ lifecycle
    def start(self, address: str) -> "SchedulerService":
        """Bind ``address`` and serve from a background event loop;
        returns once the listener is live (``self.address`` is then the
        bound address — useful with ``tcp://host:0``) and the journal
        has been replayed."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._thread = threading.Thread(
            target=self._serve_thread, args=(address,),
            name="repro-scheduler", daemon=True,
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self

    def join(self) -> None:
        """Block until the service stops (Ctrl-C in the CLI)."""
        if self._thread is not None:
            self._thread.join()

    def stop(self) -> None:
        """Stop serving: close the listener, drop the workers.

        Queued and in-flight submissions are *not* waited for — with a
        journal file they are recorded as incomplete and a fresh
        scheduler over the same journal finishes them.
        """
        if self._loop is not None and self._stop_event is not None:
            loop, stop = self._loop, self._stop_event
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _serve_thread(self, address: str) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve(address))
        finally:
            loop.close()
            self._loop = None

    def _make_executor(self):
        if self.jobs > 1:
            return ProcessPoolExecutor(max_workers=self.jobs)
        # One warm thread: deterministic, monkeypatchable — the
        # test/smoke configuration.
        return ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-worker"
        )

    def _replace_executor(self) -> None:
        """The worker supervisor: swap a crashed/wedged pool for a
        fresh one so the wave keeps draining."""
        old, self._executor = self._executor, self._make_executor()
        self.stats["workers_replaced"] += 1
        if isinstance(old, ProcessPoolExecutor):
            # A wedged process ignores shutdown(); terminate it.  Its
            # queued batches then fail as a broken pool and are retried.
            for proc in list(getattr(old, "_processes", {}).values()):
                try:
                    proc.terminate()
                except Exception:
                    pass
        # Batches queued on the old pool still run (or fail, or time
        # out) there: cancelling them would strand their records.
        old.shutdown(wait=False)

    async def _serve(self, address: str) -> None:
        self._stop_event = asyncio.Event()
        try:
            self._listener = await listen(address, self._handle_connection)
            self.address = self._listener.address
            self._executor = self._make_executor()
            self._recover()
        except BaseException as exc:
            self._startup_error = exc
            if self._listener is not None:
                await self._listener.close()
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
            self._started.set()
            return
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            await self._listener.close()
            self._executor.shutdown(wait=False, cancel_futures=True)
            # Wind down open connections and in-flight batch awaits so
            # the loop closes without destroying pending tasks.
            doomed = [t for t in asyncio.all_tasks()
                      if t is not asyncio.current_task()]
            for task in doomed:
                task.cancel()
            await asyncio.gather(*doomed, return_exceptions=True)
            self.journal.close()

    # ------------------------------------------------- ids and recovery
    def _recover(self) -> None:
        """Replay the journal: re-enqueue the incomplete submissions
        with their journaled attempt counts (store entries answer the
        ones whose result landed before the crash), then compact."""
        for rec in self.journal.replay():
            record = self._from_store(rec["content_hash"])
            if record is not None:
                self.stats["cache_hits"] += 1
                self.journal.record_done(rec["sub_id"])
            else:
                record = SubmissionRecord(
                    rec["content_hash"], rec["name"], rec["scenario"],
                    rec["cluster"], client=rec["client"],
                    attempts=rec["attempts"],
                )
            self._acknowledge(record, rec["sub_id"])
            self.stats["recovered"] += 1
        self.journal.compact()

    def _acknowledge(self, record: SubmissionRecord,
                     sub_id: Optional[str] = None) -> str:
        """Attach one sub-id to ``record``.  A new id is allocated and
        journaled here, before the caller replies; replay passes the
        journaled one.  A record's first id queues it if it must run."""
        runs = not record.ids and record.state == "queued"
        if sub_id is None:
            submit = None
            if runs and not record.stream:
                submit = {
                    "name": record.scenario_name, "client": record.client,
                    "cluster": record.cluster,
                    "scenario": record.scenario_json,
                }
            sub_id = self.journal.acknowledge(record.content_hash, submit)
            self.stats["submitted"] += 1
        record.ids.append(sub_id)
        self._records[sub_id] = record
        if not record.stream:
            self._by_hash[record.content_hash] = record
        if runs:
            self._tag(record)
            self._pending.append(record)
            self._kick_drain()
        return sub_id

    def _resolve(self, content_hash: str) -> Optional[SubmissionRecord]:
        """A record that already answers ``content_hash``: live,
        non-failed work (a dedup alias), else a store hit."""
        prior = self._by_hash.get(content_hash)
        if prior is not None and prior.state != "failed":
            return prior
        return self._from_store(content_hash)

    def _from_store(self, content_hash: str) -> Optional[SubmissionRecord]:
        hit = self.store.get(content_hash) if self.store is not None else None
        if hit is None:
            return None
        return SubmissionRecord.finished(
            content_hash, scenario_name=hit.scenario, state="done",
            cached=True, manifest=hit.to_dict(),
        )

    def _record_of(self, msg: dict) -> SubmissionRecord:
        """The record behind a sub-id: one from this process, else one
        resolved from the journal index — failed with its journaled
        error, or done through the store."""
        sub_id = msg.get("sub_id")
        record = self._records.get(sub_id)
        if record is not None:
            return record
        content_hash = self.journal.index.get(sub_id)
        if content_hash is None:
            raise KeyError(
                f"unknown submission {sub_id!r} "
                f"({len(self.journal.index)} known)"
            )
        error = self.journal.errors.get(sub_id)
        record = None if error else self._resolve(content_hash)
        if record is None:
            record = SubmissionRecord.finished(
                content_hash, state="failed",
                error=error or f"the result of {content_hash} is not in "
                               f"the result store (evicted, or no store)",
            )
        record.ids.append(sub_id)
        self._records[sub_id] = record
        return record

    # ------------------------------------------------------------- serving
    async def _handle_connection(self, chan) -> None:
        self._conn_count += 1
        client_tag = f"client-{self._conn_count}"
        while True:
            msg = await chan.recv()
            if msg is None:
                return
            try:
                op = msg.get("op")
                if op == "submit":
                    await self._op_submit(chan, msg, client_tag)
                elif op == "status":
                    await chan.send(self._record_of(msg).status(msg["sub_id"]))
                elif op == "result":
                    await self._op_result(chan, msg)
                elif op == "stats":
                    await self._op_stats(chan)
                else:
                    await chan.send(error_message(f"unknown op {op!r}"))
            except Exception as exc:
                await chan.send(error_message(exc))

    def _tag(self, record: SubmissionRecord) -> None:
        """Assign the SFQ start tag: max(virtual time, the client's
        last finish tag); unit cost per submission."""
        start = max(self._vtime, self._client_finish.get(record.client, 0.0))
        self._client_finish[record.client] = start + 1.0
        record.start_tag = start
        self._next_seq += 1
        record.seq = self._next_seq

    async def _op_submit(self, chan, msg: dict, client_tag: str) -> None:
        payload = msg.get("scenario")
        if not isinstance(payload, dict):
            raise ValueError("submit needs a scenario object")
        stream = bool(msg.get("stream", False))
        # Parsing validates — and may calibrate a first-seen storage
        # profile ("controller": "auto"), so keep it off the loop.
        scenario: Scenario = await asyncio.get_running_loop().run_in_executor(
            None, Scenario.from_dict, payload
        )
        content_hash = scenario.content_hash()
        record = None if stream else self._resolve(content_hash)
        if record is not None:
            self.stats["deduplicated" if record.ids else "cache_hits"] += 1
        else:
            # Bounded admission: the submission would join the queue —
            # if the queue is full, push back instead of buffering.
            if self.max_queue and len(self._pending) >= self.max_queue:
                self.stats["rejected"] += 1
                await chan.send({
                    "op": "busy",
                    "queue_depth": len(self._pending),
                    "max_queue": self.max_queue,
                    "retry_after": BUSY_RETRY_AFTER,
                })
                return
            record = SubmissionRecord(
                content_hash, scenario.name, scenario.to_json(),
                cluster_key(scenario), stream=stream, client=client_tag,
            )
        sub_id = self._acknowledge(record)
        await chan.send({
            "op": "submitted",
            "sub_id": sub_id,
            "content_hash": content_hash,
            "state": record.state,
            "cached": record.cached,
        })

    async def _op_result(self, chan, msg: dict) -> None:
        record = self._record_of(msg)
        sub_id = msg["sub_id"]
        await record.done.wait()
        if record.state == "failed":
            await chan.send({
                "op": "result", "sub_id": sub_id, "state": "failed",
                "error": record.error,
                "quarantined": record.quarantined,
            })
            return
        if record.stream and record.events:
            for rec in record.events:
                await chan.send({
                    "op": "event", "sub_id": sub_id, "record": rec,
                })
        await chan.send({
            "op": "result", "sub_id": sub_id, "state": record.state,
            "cached": record.cached, "manifest": record.manifest,
        })

    async def _op_stats(self, chan) -> None:
        store = self.store
        await chan.send({
            "op": "stats",
            **self.stats,
            "pending": len(self._pending),
            "running": sum(
                1 for r in {id(r): r for r in self._records.values()}.values()
                if r.state == "running"
            ),
            "jobs": self.jobs,
            "max_queue": self.max_queue,
            "address": self.address,
            "journal": (str(self.journal.path)
                        if self.journal.path is not None else None),
            "store": str(store.root) if store is not None else None,
            "store_hits": store.hits if store is not None else 0,
            "store_misses": store.misses if store is not None else 0,
            "store_corrupt": store.corrupt if store is not None else 0,
        })

    # ----------------------------------------------------------- execution
    def _kick_drain(self) -> None:
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        """Drain the queue in waves: order the current pending set by
        SFQ start tag (fair across clients), group it by cluster key,
        run the groups concurrently on the pool, repeat.  Submissions
        arriving mid-wave join the next wave — natural batching under
        load, no timers (deterministic in tests)."""
        while self._pending:
            wave, self._pending = self._pending, []
            wave.sort(key=lambda r: (r.start_tag, r.seq))
            self._vtime = max(self._vtime,
                              max(r.start_tag for r in wave))
            batches: list[list[SubmissionRecord]] = []
            groups: dict[str, list[SubmissionRecord]] = {}
            for record in wave:
                if record.solo:
                    batches.append([record])
                    continue
                group = groups.get(record.cluster)
                if group is None:
                    groups[record.cluster] = group = []
                    batches.append(group)
                group.append(record)
            await asyncio.gather(
                *(self._run_batch(batch) for batch in batches)
            )

    async def _run_batch(self, records: list[SubmissionRecord]) -> None:
        for record in records:
            record.state = "running"
            record.attempts += 1
            self.journal.record_start(record.ids[0], record.attempts)
        self.stats["batches"] += 1
        payloads = [(r.scenario_json, r.stream) for r in records]
        # run_batch is looked up at call time, so tests can patch it.
        fut = asyncio.get_running_loop().run_in_executor(
            self._executor, run_batch, payloads
        )
        try:
            results = await asyncio.wait_for(fut, self.timeout)
        except Exception as exc:  # timeout, pool died, worker crashed
            if isinstance(exc, asyncio.TimeoutError) and self.timeout:
                error = f"TimeoutError: batch exceeded {self.timeout:g}s"
            else:
                error = f"{type(exc).__name__}: {exc}"
            self._replace_executor()
            self._retry_or_quarantine(records, error)
            return
        for record, result in zip(records, results):
            if result["error"] is not None:
                # Deterministic scenario error: retrying reproduces it.
                self._finish_failed(record, result["error"])
                continue
            record.manifest = result["manifest"]
            record.events = result["events"]
            record.state = "done"
            self.stats["executed"] += 1
            if self.store is not None:
                self.store.put(RunManifest.from_dict(record.manifest))
            self.journal.record_done(record.ids[0])
            record.done.set()
        self._maybe_evict_store()

    # -------------------------------------------------- guards & budgeting
    def _retry_or_quarantine(self, records: list[SubmissionRecord],
                             error: str) -> None:
        """Infrastructure failure: back each submission off and requeue
        it solo, or quarantine it once its retries are spent."""
        for record in records:
            if record.attempts > self.retries:
                self._finish_failed(record, error, quarantined=True)
                continue
            delay = backoff(record.attempts)
            record.retries.append({
                "attempt": record.attempts,
                "delay": delay,
                "error": error,
                "at": time.time(),
            })
            record.state = "queued"
            record.solo = True  # isolate: a poison sibling re-kills batches
            self.stats["retried"] += 1
            asyncio.ensure_future(self._requeue_after(record, delay))

    async def _requeue_after(self, record: SubmissionRecord,
                             delay: float) -> None:
        await asyncio.sleep(delay)
        self._tag(record)
        self._pending.append(record)
        self._kick_drain()

    def _finish_failed(self, record: SubmissionRecord, error: str,
                       quarantined: bool = False) -> None:
        record.state, record.error = "failed", error
        record.quarantined = quarantined
        self.stats["failed"] += 1
        if quarantined:
            self.stats["quarantined"] += 1
        self.journal.record_failed(record.ids, error)
        record.done.set()

    def _maybe_evict_store(self) -> None:
        """Scheduler-triggered store budgeting: after a wave of fills,
        trim the store back under its byte budget (LRU)."""
        if self.store is not None and self.store_max_bytes:
            report = self.store.evict(max_bytes=self.store_max_bytes)
            self.stats["evicted"] += len(report.removed)
