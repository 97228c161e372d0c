"""Tests for the non-work-conserving reservation scheduler (§9)."""

import pytest

from repro.config import MB, StorageProfile
from repro.core import IOClass, IORequest, IOTag
from repro.core.reservation import ReservationScheduler
from repro.simcore import Simulator
from repro.storage import StorageDevice

FLAT = StorageProfile(name="flat", peak_rate=100.0 * MB, n_half=0.0,
                      discipline="fcfs")


def make(reservations, nominal=100.0 * MB, depth=4):
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    sched = ReservationScheduler(sim, dev, reservations, nominal, depth=depth)
    return sim, dev, sched


def submit(sim, sched, app, nbytes=1 * MB):
    req = IORequest(sim, IOTag(app), "read", nbytes, IOClass.PERSISTENT)
    sched.submit(req)
    return req


def test_validation():
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    with pytest.raises(ValueError):
        ReservationScheduler(sim, dev, {"a": 0.0}, 100.0)
    with pytest.raises(ValueError):
        ReservationScheduler(sim, dev, {"a": 0.7, "b": 0.5}, 100.0)
    with pytest.raises(ValueError):
        ReservationScheduler(sim, dev, {}, 0.0)
    with pytest.raises(ValueError):
        ReservationScheduler(sim, dev, {}, 100.0, depth=0)


def test_reserved_app_paced_to_fraction():
    sim, dev, sched = make({"a": 0.2})  # 20 MB/s
    for _ in range(10):
        submit(sim, sched, "a", 2 * MB)
    sim.run(until=1.0)
    # ~20 MB in the first second despite a 100 MB/s idle device.
    assert sched.stats.service_by_app["a"] <= 24 * MB


def test_not_work_conserving_even_when_idle():
    sim, dev, sched = make({"a": 0.1})
    r1 = submit(sim, sched, "a", 10 * MB)
    r2 = submit(sim, sched, "a", 10 * MB)
    sim.run()
    # Second request waits for the bucket (10 MB at 10 MB/s = 1 s).
    assert r2.t_dispatched == pytest.approx(1.0)


def test_isolation_between_reserved_apps():
    """Each app's share is its own, whatever the other does."""
    sim, dev, sched = make({"quiet": 0.5, "noisy": 0.5})
    for _ in range(200):
        submit(sim, sched, "noisy", 1 * MB)
    submit(sim, sched, "quiet", 1 * MB)
    probe = submit(sim, sched, "quiet", 1 * MB)
    sim.run(until=probe.completion)
    # quiet's 2 MB at 50 MB/s: done within ~0.05s + bounded queue time.
    assert sim.now < 0.2


def test_unreserved_apps_share_leftover():
    sim, dev, sched = make({"vip": 0.8})
    for _ in range(50):
        submit(sim, sched, "bg", 1 * MB)
    sim.run(until=1.0)
    # leftover = 20%: background gets ~20 MB/s.
    assert sched.stats.service_by_app["bg"] <= 25 * MB


def test_job_name_matching_like_cgroups():
    sim, dev, sched = make({"terasort": 0.5})
    assert sched.rate_for("app01-terasort") == pytest.approx(50.0 * MB)
    assert sched.rate_for("terasort") == pytest.approx(50.0 * MB)


def test_apps_reserved_by_job_name_leave_the_leftover_to_the_rest():
    sim, dev, sched = make({"vip": 0.5})
    submit(sim, sched, "app01-vip")
    submit(sim, sched, "bg")
    # bg is the only unreserved app, so the whole 50% leftover is its.
    assert sched.rate_for("bg") == pytest.approx(50.0 * MB)


def test_depth_limit_respected():
    sim, dev, sched = make({"a": 1.0}, depth=2)
    for _ in range(10):
        submit(sim, sched, "a", 1 * MB)
    assert dev.in_flight <= 2
    sim.run()
    assert sched.stats.total_requests == 10


def test_all_requests_complete():
    sim, dev, sched = make({"a": 0.5, "b": 0.25})
    reqs = [submit(sim, sched, app, 1 * MB)
            for app in ("a", "b", "c") for _ in range(5)]
    sim.run()
    assert all(r.completion.processed for r in reqs)
