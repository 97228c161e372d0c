"""Unit tests for Resource / Gate."""

import pytest

from repro.simcore import Gate, Resource, SimulationError, Simulator


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    grants = []

    def worker(tag, hold):
        yield res.acquire()
        grants.append((tag, sim.now))
        yield sim.timeout(hold)
        res.release()

    for tag in range(4):
        sim.process(worker(tag, 10.0))
    sim.run()
    times = dict(grants)
    assert times[0] == 0.0 and times[1] == 0.0
    assert times[2] == 10.0 and times[3] == 10.0


def test_resource_fifo_head_of_line():
    """A large request at the head blocks later small ones (YARN-style)."""
    sim = Simulator()
    res = Resource(sim, capacity=4)
    order = []

    def big():
        yield res.acquire(3)
        order.append(("big", sim.now))
        res.release(3)

    def small():
        yield res.acquire(1)
        order.append(("small", sim.now))
        res.release(1)

    def hogger():
        yield res.acquire(4)
        yield sim.timeout(5.0)
        res.release(4)

    sim.process(hogger())
    sim.run(until=0.5)
    sim.process(big())
    sim.process(small())
    sim.run()
    assert order[0][0] == "big"
    assert order[0][1] == 5.0


def test_resource_over_release_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_acquire_more_than_capacity_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    with pytest.raises(SimulationError):
        res.acquire(3)


def test_resource_zero_capacity_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_available_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=5)
    res.acquire(2)
    sim.run()
    assert res.available == 3
    res.release(2)
    assert res.available == 5


def test_gate_broadcasts_to_all_waiters():
    sim = Simulator()
    gate = Gate(sim)
    woken = []

    def waiter(tag):
        value = yield gate.wait()
        woken.append((tag, value, sim.now))

    for tag in range(3):
        sim.process(waiter(tag))

    def opener():
        yield sim.timeout(2.0)
        gate.open("go")

    sim.process(opener())
    sim.run()
    assert woken == [(0, "go", 2.0), (1, "go", 2.0), (2, "go", 2.0)]


def test_gate_reusable_after_open():
    sim = Simulator()
    gate = Gate(sim)
    hits = []

    def waiter():
        yield gate.wait()
        hits.append(sim.now)
        yield gate.wait()
        hits.append(sim.now)

    sim.process(waiter())

    def opener():
        yield sim.timeout(1.0)
        gate.open()
        yield sim.timeout(1.0)
        gate.open()

    sim.process(opener())
    sim.run()
    assert hits == [1.0, 2.0]


def test_gate_open_returns_waiter_count():
    sim = Simulator()
    gate = Gate(sim)
    gate.wait()
    gate.wait()
    assert gate.open() == 2
    assert gate.open() == 0
