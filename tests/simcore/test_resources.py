"""Unit tests for Gate."""

from repro.simcore import Gate, Simulator


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
