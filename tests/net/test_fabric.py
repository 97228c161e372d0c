"""Unit tests for the network fabric."""

import pytest

from repro.config import MB
from repro.net import NetFabric
from repro.simcore import Simulator

BW = 100.0 * MB


def test_link_validation():
    sim = Simulator()
    with pytest.raises(ValueError, match="peak_rate"):
        NetFabric(sim, ["x"], 0.0)


def test_single_transfer_time():
    sim = Simulator()
    net = NetFabric(sim, ["a", "b"], BW)

    def proc():
        yield net.transfer("a", "b", 100 * MB)
        return sim.now

    assert sim.run(until=sim.process(proc())) == pytest.approx(1.0)


def test_local_transfer_is_free():
    sim = Simulator()
    net = NetFabric(sim, ["a"], BW)

    def proc():
        yield net.transfer("a", "a", 500 * MB)
        return sim.now

    assert sim.run(until=sim.process(proc())) == 0.0
    assert net.total_bytes == 0


def test_ingress_sharing_between_flows():
    """Two senders into one receiver: the receiver NIC is the bottleneck
    and both flows finish at the fair-share time."""
    sim = Simulator()
    net = NetFabric(sim, ["a", "b", "c"], BW)
    done = []

    def send(src):
        yield net.transfer(src, "c", 50 * MB)
        done.append((src, sim.now))

    sim.process(send("a"))
    sim.process(send("b"))
    sim.run()
    # 100 MB total into a 100 MB/s NIC: both complete at t=1.
    assert done[0][1] == pytest.approx(1.0)
    assert done[1][1] == pytest.approx(1.0)


def test_independent_paths_do_not_contend():
    sim = Simulator()
    net = NetFabric(sim, ["a", "b", "c", "d"], BW)
    times = []

    def send(src, dst):
        yield net.transfer(src, dst, 100 * MB)
        times.append(sim.now)

    sim.process(send("a", "b"))
    sim.process(send("c", "d"))
    sim.run()
    assert times == [pytest.approx(1.0), pytest.approx(1.0)]


def test_transfer_validation():
    sim = Simulator()
    net = NetFabric(sim, ["a", "b"], BW)
    with pytest.raises(KeyError):
        net.transfer("a", "ghost", 1)
    with pytest.raises(ValueError):
        net.transfer("a", "b", 0)


def test_total_bytes_accounting():
    sim = Simulator()
    net = NetFabric(sim, ["a", "b"], BW)

    def proc():
        yield net.transfer("a", "b", 10 * MB)
        yield net.transfer("b", "a", 5 * MB)

    sim.run(until=sim.process(proc()))
    assert net.total_bytes == 15 * MB
    assert net.egress["a"].read_meter.total == 10 * MB
    assert net.ingress["a"].read_meter.total == 5 * MB


# ------------------------------------------------- fault injection hooks

def test_link_failure_fails_inflight_transfer():
    """A leg failing mid-transfer must fail the transfer event (not hang
    it, and not complete it as a success)."""
    from repro.faults import LinkFailure
    sim = Simulator()
    net = NetFabric(sim, ["a", "b"], BW)
    caught = []

    def proc():
        try:
            yield net.transfer("a", "b", 100 * MB)
        except LinkFailure:
            caught.append(sim.now)

    sim.process(proc())
    sim.call_at(0.5, lambda: net.egress["a"].fail(LinkFailure("cable cut")))
    sim.run()
    assert caught == [0.5]


def test_link_rate_factor_slows_transfer():
    sim = Simulator()
    net = NetFabric(sim, ["a", "b"], BW)
    net.egress["a"].set_rate_factor(0.5)

    def proc():
        yield net.transfer("a", "b", 100 * MB)
        return sim.now

    # The degraded 50 MB/s egress leg is the bottleneck.
    assert sim.run(until=sim.process(proc())) == pytest.approx(2.0)


def test_link_repair_restores_transfers():
    from repro.faults import LinkFailure
    sim = Simulator()
    net = NetFabric(sim, ["a", "b"], BW)
    net.egress["a"].fail(LinkFailure("down"))
    net.egress["a"].repair()
    assert not net.egress["a"].failed

    def proc():
        yield net.transfer("a", "b", 100 * MB)
        return sim.now

    assert sim.run(until=sim.process(proc())) == pytest.approx(1.0)
