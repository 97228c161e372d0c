"""One scenario, every run path, one metrics hash."""

from repro.execution import ExecutionCore, parallel_jobs
from repro.scenario import run_scenario
from repro.service import SchedulerService, ServiceClient


def test_every_run_path_gives_the_same_metrics_hash(
    tiny_scenario, inproc_address
):
    """Direct ``run_scenario``, the execution core over a two-process
    pool, and the inproc service on its warm thread (``jobs=1``) and on
    its process pool (``jobs=2``) all produce the same manifest."""
    scenario = tiny_scenario()
    expected = run_scenario(scenario).metrics_hash()

    # Two copies, so the pool really fans out (one spec runs inline).
    with parallel_jobs(2):
        pooled = ExecutionCore().run([scenario, scenario])
    assert [m.metrics_hash() for m in pooled] == [expected, expected]

    for jobs in (1, 2):
        address = f"{inproc_address}-jobs{jobs}"
        service = SchedulerService(jobs=jobs).start(address)
        try:
            with ServiceClient(address) as client:
                served = client.run(scenario)
                assert client.stats()["executed"] == 1
        finally:
            service.stop()
        assert served.metrics_hash() == expected, f"jobs={jobs}"
