"""Where a failed chunk or transfer leg surfaces, and how many hops later.

A chunk's failure must reach the stream that waits on it, and a chunk
that fails while nobody waits on it is fault collateral: the run loop
counts it in ``Simulator.orphaned_faults`` instead of raising.  Which of
the two happens depends on exactly when the stream attaches and
detaches its wait, so these tests pin that timing hop by hop.  A hop is
one processed engine event.
"""

import pytest

from repro.config import MB
from repro.dataplane.streams import windowed_stream
from repro.faults.errors import DeviceFailure, LinkFailure
from repro.net import NetFabric
from repro.simcore import Simulator


def _guarded(sim, gen, log):
    """Run ``gen`` as a process; log how it ended and when."""

    def wrapper():
        try:
            yield from gen
        except DeviceFailure as exc:
            log.append(("raised", sim.now, str(exc)))
            return
        log.append(("ok", sim.now))

    return sim.process(wrapper())


def test_chunk_failing_while_the_stream_waits_raises_in_the_stream():
    sim = Simulator()

    def chunk(delay, fail):
        yield sim.timeout(delay)
        if fail:
            raise DeviceFailure("chunk 1 lost")
        return delay

    chunks = [lambda: sim.process(chunk(2.0, False)),
              lambda: sim.process(chunk(1.0, True)),
              lambda: sim.process(chunk(3.0, False))]
    log = []
    _guarded(sim, windowed_stream(sim, iter(chunks), window=2), log)
    sim.run()
    assert log == [("raised", 1.0, "chunk 1 lost")]
    assert sim.orphaned_faults == 0


def test_chunk_failing_one_hop_after_the_wake_is_orphaned():
    """Chunk A's finish wakes the stream; chunk B fails on the very next
    hop, before the stream has resumed and waits again.  Nobody waits on
    B at that moment, so its failure counts as an orphaned fault; the
    stream still sees it once it waits on B again.  A stream that kept
    its callback on B between waits would hide the orphan."""
    sim = Simulator()

    def chunk_a():
        yield sim.timeout(1.0)
        return "a"

    def chunk_b():
        yield sim.timeout(1.0)
        # One hop: this event is queued after A's finish event.
        hop = sim.event()
        hop.succeed()
        yield hop
        raise DeviceFailure("chunk b lost")

    def chunk_c():
        yield sim.timeout(0.5)

    chunks = [lambda: sim.process(chunk_a()), lambda: sim.process(chunk_b()),
              lambda: sim.process(chunk_c())]
    log = []
    _guarded(sim, windowed_stream(sim, iter(chunks), window=2), log)
    sim.run()
    assert sim.orphaned_faults == 1
    assert log == [("raised", 1.0, "chunk b lost")]


def test_cut_link_fails_its_transfer_two_hops_after_the_leg():
    sim = Simulator()
    net = NetFabric(sim, ["a", "b"], 100.0 * MB)
    xfer = net.transfer("a", "b", 100 * MB)
    egress = net.egress["a"]
    assert egress.in_flight == 1
    sim.call_at(0.5, lambda: net.egress["a"].fail(LinkFailure("a:out cut")))
    sim.run(until=0.25)
    # The cut itself is the next event.
    sim.step()
    assert sim.now == 0.5 and egress.in_flight == 0
    assert not xfer.triggered
    # Hop 1 processes the failed leg; hop 2 joins the legs.
    sim.step()
    assert not xfer.triggered
    sim.step()
    assert xfer.triggered and not xfer.ok
    assert isinstance(xfer.exception, LinkFailure)
    # The ingress leg still completes on its own at t=1.0.
    sim.run()
    assert sim.now == pytest.approx(1.0)
    assert sim.orphaned_faults == 0
