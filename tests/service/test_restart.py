"""Sub-ids across restarts: every acknowledged id resolves, and no id is
ever handed out twice."""

import threading
import time

import repro.service.scheduler as scheduler_mod
from repro.execution import ResultStore
from repro.scenario import run_scenario
from repro.service import SchedulerService, ServiceClient, SubmissionJournal

from .conftest import ANY_PORT


def _start(tmp_path):
    return SchedulerService(
        store=ResultStore(tmp_path / "results"),
        journal=str(tmp_path / "journal.jsonl"),
    ).start(ANY_PORT)


def _wait(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def _stall_on(monkeypatch, name):
    """Make the worker block on the scenario called ``name`` until the
    returned event is set."""
    real = scheduler_mod.run_one
    release = threading.Event()

    def stalled(text, collect_events):
        if f'"name":"{name}"' in text:
            release.wait(timeout=30)
        return real(text, collect_events)

    monkeypatch.setattr(scheduler_mod, "run_one", stalled)
    return release


def test_ids_continue_past_compaction_and_old_ids_keep_their_scenario(
    tmp_path, tiny_scenario
):
    svc = _start(tmp_path)
    try:
        with ServiceClient(svc.address) as client:
            old = {client.submit(tiny_scenario(name=f"old-{i}")): f"old-{i}"
                   for i in range(3)}
            for sub in old:
                client.result(sub)
    finally:
        svc.stop()
    # Everything finished, so the journal compacted to its header.
    assert len((tmp_path / "journal.jsonl").read_text().splitlines()) == 1

    svc = _start(tmp_path)
    try:
        with ServiceClient(svc.address) as client:
            new = client.submit(tiny_scenario(name="new"))
            assert new > max(old)
            for sub, name in old.items():
                status = client.status(sub)
                assert status["state"] == "done"
                assert status["scenario"] == name
                assert status["content_hash"] == (
                    tiny_scenario(name=name).content_hash()
                )
            assert client.result(new).scenario == "new"
    finally:
        svc.stop()


def test_alias_store_hit_and_streamed_ids_resolve_after_restart(
    tmp_path, tiny_scenario, monkeypatch
):
    ResultStore(tmp_path / "results").put(
        run_scenario(tiny_scenario(name="stored"))
    )
    svc = _start(tmp_path)
    try:
        with ServiceClient(svc.address) as client:
            streamed = client.submit(tiny_scenario(name="streamed"),
                                     stream=True)
            client.result(streamed)
            release = _stall_on(monkeypatch, "primary")
            primary = client.submit(tiny_scenario(name="primary"))
            alias = client.submit(tiny_scenario(name="primary"))
            hit = client.submit(tiny_scenario(name="stored"))
            assert client.status(hit)["cached"] is True
            assert client.stats()["deduplicated"] == 1
    finally:
        svc.stop()  # the primary (and so its alias) is still running
        release.set()

    svc = _start(tmp_path)
    try:
        with ServiceClient(svc.address) as client:
            assert client.stats()["recovered"] == 1
            expected = {
                primary: "primary", alias: "primary",
                hit: "stored", streamed: "streamed",
            }
            for sub, name in expected.items():
                manifest = client.result(sub)
                assert manifest.metrics_hash() == run_scenario(
                    tiny_scenario(name=name)
                ).metrics_hash(), sub
                assert client.status(sub)["state"] == "done"
            # The alias rode along with the recovered run.
            assert client.stats()["executed"] == 1
    finally:
        svc.stop()


def test_recovered_submission_reports_journaled_attempts(
    tmp_path, tiny_scenario, monkeypatch
):
    real = scheduler_mod.run_one
    release = threading.Event()
    calls = []

    def flaky(text, collect_events):
        calls.append(text)
        if len(calls) == 1:
            raise RuntimeError("worker crashed")
        release.wait(timeout=30)  # the retry is still running at stop
        return real(text, collect_events)

    monkeypatch.setattr(scheduler_mod, "run_one", flaky)
    svc = _start(tmp_path)
    try:
        with ServiceClient(svc.address) as client:
            sub = client.submit(tiny_scenario())
            _wait(lambda: len(calls) == 2)
            assert client.status(sub)["attempts"] == 2
    finally:
        svc.stop()
        release.set()

    monkeypatch.setattr(scheduler_mod, "run_one", real)
    svc = _start(tmp_path)
    try:
        with ServiceClient(svc.address) as client:
            client.result(sub)
            # Two attempts before the stop, the third after it.
            assert client.status(sub)["attempts"] == 3
    finally:
        svc.stop()


def test_old_failed_and_evicted_ids_report_failed_after_restart(
    tmp_path, tiny_scenario
):
    bad = tiny_scenario(name="bad").to_dict()
    bad["workload"]["preloads"] = []  # parses, but the app dies at run
    svc = _start(tmp_path)
    try:
        with ServiceClient(svc.address) as client:
            failed = client.submit(bad)
            good = client.submit(tiny_scenario(name="good"))
            client.result(good)
            _wait(lambda: client.status(failed)["state"] == "failed")
            error = client.status(failed)["error"]
    finally:
        svc.stop()
    ResultStore(tmp_path / "results").discard(
        tiny_scenario(name="good").content_hash()
    )

    svc = _start(tmp_path)
    try:
        with ServiceClient(svc.address) as client:
            status = client.status(failed)
            assert status["state"] == "failed" and status["error"] == error
            status = client.status(good)
            assert status["state"] == "failed"
            assert "not in the result store" in status["error"]
    finally:
        svc.stop()


def test_torn_journal_tail_survives_two_restarts(
    tmp_path, tiny_scenario
):
    path = tmp_path / "journal.jsonl"
    svc = _start(tmp_path)
    try:
        with ServiceClient(svc.address) as client:
            first = client.submit(tiny_scenario(name="first"))
            client.result(first)
    finally:
        svc.stop()
    with open(path, "a") as fh:
        fh.write('{"kind": "submit", "sub_id": "sub-0000')  # crash mid-append

    for n in (2, 3):
        svc = _start(tmp_path)
        try:
            with ServiceClient(svc.address) as client:
                subs = [client.submit(tiny_scenario(name=f"r{n}-{i}"))
                        for i in range(2)]
                for sub in (first, *subs):
                    assert client.result(sub).metrics_hash()
        finally:
            svc.stop()
    # No torn bytes ended up in the middle of the journal.
    assert SubmissionJournal(path).replay() == []
