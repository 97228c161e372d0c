"""Crash-safety and self-healing: journal recovery, retry/quarantine,
worker supervision."""

import json
import threading
import time

import pytest

from repro.execution import ResultStore
from repro.scenario import run_scenario
from repro.scenario.spec import Scenario
from repro.service import (
    SchedulerService,
    ServiceClient,
    ServiceError,
    SubmissionJournal,
    backoff,
)

from .conftest import ANY_PORT


def _names(payloads):
    return [Scenario.from_json(text).name for text, _stream in payloads]


def _wait(predicate, timeout=30.0, step=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return False


def _no_worker_threads():
    return not [t for t in threading.enumerate()
                if t.name.startswith("repro-worker") and t.is_alive()]


# ------------------------------------------------------------ quarantine
def test_crashing_submission_quarantined_siblings_complete(
    tmp_path, tiny_scenario, monkeypatch
):
    """A worker-crashing submission is retried with backoff, isolated
    from its batch, and quarantined once its retries are spent — while
    the sibling it shared a wave with completes."""
    import repro.service.scheduler as scheduler_mod

    real = scheduler_mod.run_batch
    release = threading.Event()
    batches = []

    def crashing(payloads):
        names = _names(payloads)
        batches.append(names)
        if len(batches) == 1:
            release.wait(timeout=30)
        if any("poison" in n for n in names):
            raise RuntimeError("worker crashed hard")
        return real(payloads)

    monkeypatch.setattr(scheduler_mod, "run_batch", crashing)
    svc = SchedulerService(
        store=ResultStore(tmp_path / "results"), retries=2
    ).start(ANY_PORT)
    try:
        with ServiceClient(svc.address) as client:
            blocker = client.submit(tiny_scenario(name="blocker"))
            poison = client.submit(tiny_scenario(name="poison"))
            good = client.submit(tiny_scenario(name="good"))
            release.set()

            # Siblings of the crashed batch still complete.
            assert client.result(blocker).metrics_hash()
            manifest = client.result(good)
            assert manifest.metrics_hash() == run_scenario(
                tiny_scenario(name="good")
            ).metrics_hash()

            with pytest.raises(ServiceError, match="crashed hard"):
                client.result(poison)
            status = client.status(poison)
            assert status["state"] == "failed"
            assert status["quarantined"] is True
            assert status["attempts"] == 3
            # The backoff schedule rides in the status: one entry per
            # retry, with the fixed delay and a wall timestamp.
            retries = status["retries"]
            assert len(retries) == 2
            for i, r in enumerate(retries, start=1):
                assert r["attempt"] == i
                assert r["delay"] == backoff(i)
                assert r["at"] > 0
                assert "crashed hard" in r["error"]

            stats = client.stats()
            assert stats["quarantined"] == 1
            assert stats["failed"] == 1
            # poison retried twice, good retried once after the shared
            # batch crashed; blocker never failed.
            assert stats["retried"] == 3
            assert stats["executed"] == 2
            assert stats["workers_replaced"] == 3
    finally:
        release.set()
        svc.stop()
    # Retries run solo: poison never shares a batch again.
    crash_batches = [b for b in batches if "poison" in b]
    assert all(len(b) == 1 for b in crash_batches[1:])


def test_wedged_worker_times_out_and_is_replaced(
    tmp_path, tiny_scenario, monkeypatch
):
    """A batch exceeding the timeout is retried on a fresh worker; the
    wedged one is abandoned instead of wedging the wave."""
    import repro.service.scheduler as scheduler_mod

    real = scheduler_mod.run_batch
    wedge = threading.Event()
    calls = []

    def wedging(payloads):
        calls.append(_names(payloads))
        if len(calls) == 1:
            wedge.wait(timeout=10)  # simulate a hang >> timeout
        return real(payloads)

    monkeypatch.setattr(scheduler_mod, "run_batch", wedging)
    svc = SchedulerService(
        store=ResultStore(tmp_path / "results"), retries=1, timeout=0.25
    ).start(ANY_PORT)
    try:
        with ServiceClient(svc.address) as client:
            sub = client.submit(tiny_scenario())
            manifest = client.result(sub)
            assert manifest.metrics_hash() == run_scenario(
                tiny_scenario()
            ).metrics_hash()
            status = client.status(sub)
            assert status["attempts"] == 2
            assert "TimeoutError" in status["retries"][0]["error"]
            stats = client.stats()
            assert stats["workers_replaced"] == 1
            assert stats["retried"] == 1
            assert stats["failed"] == 0
    finally:
        wedge.set()
        svc.stop()


# ------------------------------------------------------- journal recovery
def test_stop_mid_drain_recovers_via_journal(
    tmp_path, tiny_scenario, monkeypatch
):
    """The satellite contract for ``stop()`` mid-drain: queued and
    running submissions stay journaled as incomplete, worker threads
    wind down, and a fresh scheduler over the same journal finishes
    them with ``metrics_hash`` parity."""
    import repro.service.scheduler as scheduler_mod

    real = scheduler_mod.run_batch
    release = threading.Event()

    def stalled(payloads):
        release.wait(timeout=30)
        return real(payloads)

    monkeypatch.setattr(scheduler_mod, "run_batch", stalled)
    journal_path = tmp_path / "journal.jsonl"
    store_root = tmp_path / "results"
    svc = SchedulerService(
        store=ResultStore(store_root), journal=str(journal_path)
    ).start(ANY_PORT)
    subs = []
    with ServiceClient(svc.address) as client:
        for i in range(3):
            subs.append(client.submit(tiny_scenario(name=f"scn-{i}")))
    svc.stop()  # one running (stalled), two queued — none finished

    incomplete = SubmissionJournal(journal_path).replay()
    assert sorted(r["sub_id"] for r in incomplete) == sorted(subs)
    release.set()
    assert _wait(_no_worker_threads, timeout=10), (
        "worker threads leaked past stop()"
    )

    svc = SchedulerService(
        store=ResultStore(store_root), journal=str(journal_path)
    ).start(ANY_PORT)
    try:
        with ServiceClient(svc.address) as client:
            assert client.stats()["recovered"] == 3
            # The journaled sub ids survive the restart.
            for i, sub in enumerate(subs):
                manifest = client.result(sub)
                direct = run_scenario(tiny_scenario(name=f"scn-{i}"))
                assert manifest.metrics_hash() == direct.metrics_hash()
            stats = client.stats()
            assert stats["executed"] == 3
    finally:
        svc.stop()
    # Everything terminal: the journal compacted down to its header.
    records = [json.loads(line)
               for line in journal_path.read_text().splitlines()]
    assert [r["kind"] for r in records] == ["journal"]


def test_recovery_answers_already_stored_results_from_store(
    tmp_path, tiny_scenario
):
    """A submission that finished executing but crashed before its
    ``done`` append replays as incomplete — and is answered from the
    result store instead of re-running."""
    store_root = tmp_path / "results"
    scenario = tiny_scenario()
    manifest = run_scenario(scenario)
    ResultStore(store_root).put(manifest)

    journal_path = tmp_path / "journal.jsonl"
    journal = SubmissionJournal(journal_path)
    sub = journal.acknowledge(scenario.content_hash(), {
        "name": scenario.name, "client": "c", "cluster": "x",
        "scenario": scenario.to_json(),
    })
    journal.record_start(sub, attempt=1)
    journal.close()

    svc = SchedulerService(
        store=ResultStore(store_root), journal=str(journal_path)
    ).start(ANY_PORT)
    try:
        with ServiceClient(svc.address) as client:
            stats = client.stats()
            assert stats["recovered"] == 1
            assert stats["cache_hits"] == 1
            assert stats["executed"] == 0
            status = client.status(sub)
            assert status["state"] == "done" and status["cached"] is True
            assert client.result(sub).to_json() == manifest.to_json()
            # New ids continue past the recovered ones.
            fresh = client.submit(tiny_scenario(name="fresh"))
            assert fresh == "sub-000002"
            client.result(fresh)
    finally:
        svc.stop()


def test_parent_format_journal_recovers_without_store_entry(
    tmp_path, tiny_scenario
):
    """A journal whose ``submit`` line still carries the ``client`` key
    older builds wrote, with no store entry behind it, replays under
    this build: the submission runs to the direct run's result, and new
    ids continue past the journaled one."""
    scenario = tiny_scenario()
    journal_path = tmp_path / "journal.jsonl"
    lines = [
        {"kind": "journal", "schema": 2, "next_id": 0, "index": {},
         "failed": {}},
        {"kind": "submit", "sub_id": "sub-000001",
         "content_hash": scenario.content_hash(), "name": scenario.name,
         "client": "client-1", "cluster": "x",
         "scenario": scenario.to_json()},
        {"kind": "start", "sub_id": "sub-000001", "attempt": 1},
    ]
    journal_path.write_text("".join(
        json.dumps(rec, sort_keys=True) + "\n" for rec in lines))

    svc = SchedulerService(
        store=ResultStore(tmp_path / "results"), journal=str(journal_path)
    ).start(ANY_PORT)
    try:
        with ServiceClient(svc.address) as client:
            manifest = client.result("sub-000001")
            assert manifest.metrics_hash() == run_scenario(
                scenario).metrics_hash()
            assert client.status("sub-000001")["attempts"] == 2
            stats = client.stats()
            assert stats["recovered"] == 1 and stats["executed"] == 1
            fresh = client.submit(tiny_scenario(name="fresh"))
            assert fresh == "sub-000002"
            client.result(fresh)
    finally:
        svc.stop()


def test_corrupt_journal_fails_start_loudly(tmp_path):
    journal_path = tmp_path / "journal.jsonl"
    journal_path.write_text(
        '{"kind": "journal", "schema": 999}\n'
    )
    from repro.service import JournalError

    with pytest.raises(JournalError, match="schema"):
        SchedulerService(journal=str(journal_path)).start(ANY_PORT)


# --------------------------------------------------------- stats plumbing
def test_corrupt_store_entry_surfaces_in_stats(
    tmp_path, tiny_scenario
):
    """Satellite: a corrupt store entry is no longer a *silent* miss —
    the scheduler's stats op reports the counter."""
    store_root = tmp_path / "results"
    svc = SchedulerService(store=ResultStore(store_root)).start(ANY_PORT)
    try:
        with ServiceClient(svc.address) as client:
            client.run(tiny_scenario())
    finally:
        svc.stop()

    # Corrupt the entry, then make a fresh scheduler look it up.
    store = ResultStore(store_root)
    path = store.path_for(tiny_scenario().content_hash())
    path.write_text("{torn")
    svc = SchedulerService(store=store).start(ANY_PORT)
    try:
        with ServiceClient(svc.address) as client:
            client.run(tiny_scenario())  # miss → re-executes
            stats = client.stats()
            assert stats["store_corrupt"] == 1
            assert stats["executed"] == 1
    finally:
        svc.stop()
