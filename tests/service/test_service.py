"""Scheduler end-to-end over the in-process transport."""

import pytest

from repro.execution import ResultStore
from repro.scenario import load_scenario, run_scenario
from repro.service import SchedulerService, ServiceClient, ServiceError
from repro.telemetry.trace import validate_trace_record

from .conftest import EXAMPLES


def test_run_matches_direct_run_scenario(service, tiny_scenario):
    """The CI smoke contract: a manifest from the service carries the
    same metrics hash as running the scenario directly."""
    manifest = service.client().run(tiny_scenario())
    direct = run_scenario(tiny_scenario())
    assert manifest.metrics_hash() == direct.metrics_hash()
    assert manifest.rows == direct.rows


def test_example_scenario_round_trip(service):
    """Submitting by path works end to end on a shipped example."""
    path = EXAMPLES / "latency_breakdown.json"
    manifest = service.client().run(path)
    direct = run_scenario(load_scenario(path))
    assert manifest.metrics_hash() == direct.metrics_hash()


def test_second_submission_served_from_store(service, tiny_scenario):
    client = service.client()
    first_id = client.submit(tiny_scenario())
    first = client.result(first_id)
    second_id = client.submit(tiny_scenario())
    assert client.status(second_id)["cached"] in (True, False)  # live record
    second = client.result(second_id)
    assert second.to_json() == first.to_json()
    stats = client.stats()
    assert stats["executed"] == 1
    assert stats["cache_hits"] + stats["deduplicated"] == 1


def test_fresh_scheduler_answers_from_warm_store(
    tmp_path, inproc_address, tiny_scenario
):
    """Restart survival: a brand-new scheduler over an existing store
    serves the result without executing anything."""
    store_root = tmp_path / "results"
    svc = SchedulerService(store=ResultStore(store_root)).start(inproc_address)
    try:
        with ServiceClient(inproc_address) as client:
            first = client.run(tiny_scenario())
    finally:
        svc.stop()

    svc = SchedulerService(store=ResultStore(store_root)).start(
        inproc_address + "-2"
    )
    try:
        with ServiceClient(inproc_address + "-2") as client:
            sub = client.submit(tiny_scenario())
            assert client.status(sub)["cached"] is True
            again = client.result(sub)
            stats = client.stats()
    finally:
        svc.stop()
    assert again.to_json() == first.to_json()
    assert stats["executed"] == 0 and stats["cache_hits"] == 1


def test_live_dedup_attaches_to_in_flight_record(service, tiny_scenario):
    client = service.client()
    ids = [client.submit(tiny_scenario()) for _ in range(3)]
    manifests = [client.result(i) for i in ids]
    assert len({m.to_json() for m in manifests}) == 1
    stats = client.stats()
    assert stats["submitted"] == 3 and stats["executed"] == 1
    assert stats["deduplicated"] >= 1


def test_distinct_scenarios_all_execute(service, tiny_scenario):
    client = service.client()
    hashes = {
        client.run(tiny_scenario(seed=s)).scenario_hash for s in (1, 2, 3)
    }
    assert len(hashes) == 3
    assert client.stats()["executed"] == 3


def test_identical_cluster_scenarios_share_a_batch(
    service, tiny_scenario, monkeypatch
):
    """Queued same-cluster submissions drain as one warm-worker batch."""
    import threading

    import repro.service.scheduler as scheduler_mod

    release = threading.Event()
    sizes = []
    real = scheduler_mod.run_batch

    def stalled(payloads):
        sizes.append(len(payloads))
        release.wait(timeout=30)
        return real(payloads)

    # jobs=1 runs batches on a warm thread in-process, so the patch
    # reaches the worker.
    monkeypatch.setattr(scheduler_mod, "run_batch", stalled)
    client = service.client()
    ids = [client.submit(tiny_scenario(seed=7, name="n0"))]
    # While wave 1 is stalled, two more same-cluster submissions queue.
    ids += [
        client.submit(tiny_scenario(seed=7, name=f"n{i}")) for i in (1, 2)
    ]
    release.set()
    for i in ids:
        client.result(i)
    stats = service.client().stats()
    assert stats["executed"] == 3
    # Wave 2 grouped the two queued submissions into one batch.
    assert sizes == [1, 2]
    assert stats["batches"] == 2


def test_streamed_submission_delivers_telemetry(service, tiny_scenario):
    client = service.client()
    events = []
    manifest = client.run(
        tiny_scenario(), stream=True, on_event=events.append
    )
    assert manifest.metrics_hash() == run_scenario(tiny_scenario()).metrics_hash()
    assert events, "streamed run produced no telemetry records"
    for rec in events:
        validate_trace_record(rec)
    # Streamed runs bypass the store (the event stream is a side
    # effect a cache hit could not replay).
    assert client.stats()["cache_hits"] == 0


def test_unparseable_scenario_rejected_at_submit(service, tiny_scenario):
    client = service.client()
    bad = tiny_scenario().to_dict()
    bad["workload"]["jobs"][0]["app"] = "no-such-workload"
    with pytest.raises(ServiceError, match="no-such-workload"):
        client.submit(bad)


def test_failed_run_raises_service_error(service, tiny_scenario):
    client = service.client()
    bad = tiny_scenario().to_dict()
    bad["workload"]["preloads"] = []  # parses, but the app dies at run
    sub = client.submit(bad)
    with pytest.raises(ServiceError, match="failed"):
        client.result(sub)
    assert client.status(sub)["state"] == "failed"
    ok = client.run(tiny_scenario())  # service survives the failure
    assert ok.scenario_hash == tiny_scenario().content_hash()
    assert client.stats()["failed"] == 1


def test_unknown_submission_id_is_an_error(service):
    with pytest.raises(ServiceError, match="unknown submission"):
        service.client().status("sub-999999")


def test_malformed_submit_is_an_error(service):
    with pytest.raises(ServiceError, match="scenario object"):
        service.client()._request(
            {"op": "submit", "scenario": 42}, expect="submitted"
        )


def test_unknown_op_is_an_error(service):
    with pytest.raises(ServiceError, match="unknown op"):
        service.client()._request({"op": "frobnicate"}, expect="nothing")


def test_stats_reports_store_and_address(service, inproc_address):
    stats = service.client().stats()
    assert stats["address"] == inproc_address
    assert stats["store"].endswith("results")
    assert stats["jobs"] == 1


def test_double_start_rejected(service, inproc_address):
    with pytest.raises(RuntimeError, match="already started"):
        service.start(inproc_address + "-again")


def test_start_failure_propagates(service, inproc_address):
    other = SchedulerService()
    with pytest.raises(ValueError, match="already listening"):
        other.start(inproc_address)
