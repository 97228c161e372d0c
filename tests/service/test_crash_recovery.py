"""End-to-end crash recovery: SIGKILL the serve process mid-batch,
restart it on the same journal, and verify nothing acknowledged is
lost.

This drives the real ``python -m repro.experiments.run serve`` CLI over
tcp — the only test that exercises journal durability across an actual
process boundary rather than a stopped in-process scheduler.
"""

import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.config import GB, default_cluster
from repro.core import PolicySpec
from repro.scenario import single_app
from repro.service import ServiceClient, SubmissionJournal

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _scenario(name: str, scale: float, size: int = 25 * GB):
    config = default_cluster(scale=scale, seed=20160531)
    return single_app(
        config, PolicySpec.native(), "teravalidate",
        name=name, params={"input_path": "/in/x"},
        preloads=(("/in/x", size),), max_cores=48,
    )


def _serve(env: dict, journal: pathlib.Path) -> tuple:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.run", "serve",
         "--address", "tcp://127.0.0.1:0", "--journal", str(journal),
         "--jobs", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    line = proc.stdout.readline()  # blocks until the listening banner
    match = re.search(r"listening on (tcp://\S+)", line)
    if not match:  # pragma: no cover - startup failed, show why
        proc.kill()
        pytest.fail(f"serve did not come up: {line!r}{proc.stdout.read()}")
    return proc, match.group(1)


def _shutdown(proc) -> None:
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:  # pragma: no cover
        proc.kill()
        proc.wait(timeout=10)


@pytest.mark.slow
def test_sigkill_mid_batch_then_restart_recovers(tmp_path):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    journal = tmp_path / "cache" / "service" / "journal.jsonl"

    # One deliberately heavier scenario pins the single worker while the
    # tiny ones queue behind it — SIGKILL lands mid-batch by design.  The
    # blocker runs for about half a second, far longer than the few tens
    # of milliseconds the three tail submissions take to be acknowledged.
    # A submission that finishes *before* the kill is the separate case
    # below.
    scenarios = [_scenario("blocker", scale=1.0 / 2, size=60 * GB)] + [
        _scenario(f"tail-{i}", scale=1.0 / 2048) for i in range(3)
    ]

    proc, address = _serve(env, journal)
    try:
        with ServiceClient(address) as client:
            sub_ids = [client.submit(s) for s in scenarios]
    finally:
        proc.kill()  # SIGKILL: no atexit, no journal close, no flush
        proc.wait(timeout=10)

    incomplete = {r["sub_id"] for r in SubmissionJournal(journal).replay()}
    assert incomplete, "SIGKILL landed after everything completed"
    assert incomplete <= set(sub_ids)

    # Restart on the same journal: every acknowledged submission must
    # reach a result, under its original sub_id, with no client help.
    proc, address = _serve(env, journal)
    try:
        assert "recovered" in proc.stdout.readline()
        with ServiceClient(address) as client:
            hashes = {sid: client.result(sid, timeout=120).metrics_hash()
                      for sid in sub_ids}
    finally:
        _shutdown(proc)

    # With everything terminal the journal compacted back to a header.
    deadline = time.time() + 5
    while time.time() < deadline:
        if len(journal.read_text().splitlines()) == 1:
            break
        time.sleep(0.05)
    assert len(journal.read_text().splitlines()) == 1
    assert SubmissionJournal(journal).replay() == []

    # A third, cold process has no in-memory records — re-submitting the
    # sweep must be answered from the persistent store, not re-executed.
    proc, address = _serve(env, journal)
    try:
        with ServiceClient(address) as client:
            for scenario, sid in zip(scenarios, sub_ids):
                repeat = client.submit(scenario)
                assert client.result(repeat).metrics_hash() == hashes[sid]
            stats = client.stats()
        assert stats["cache_hits"] == len(scenarios)
        assert stats["executed"] == 0
    finally:
        _shutdown(proc)


@pytest.mark.slow
def test_sub_id_finished_before_sigkill_resolves_after_restart(tmp_path):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    journal = tmp_path / "cache" / "service" / "journal.jsonl"

    proc, address = _serve(env, journal)
    try:
        with ServiceClient(address) as client:
            sub_id = client.submit(_scenario("done", scale=1.0 / 2048))
            expected = client.result(sub_id, timeout=120).metrics_hash()
    finally:
        proc.kill()
        proc.wait(timeout=10)
    assert SubmissionJournal(journal).replay() == []

    # The acknowledged sub-id must still resolve, from the store.
    proc, address = _serve(env, journal)
    try:
        with ServiceClient(address) as client:
            assert client.result(sub_id, timeout=120).metrics_hash() == expected
    finally:
        _shutdown(proc)
