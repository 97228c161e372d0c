"""A finished stream and transfer leave nothing for the cyclic GC.

Every stream and remote transfer allocates a little bookkeeping (the
stream's window, the transfer's leg join, the device's completion
records).  Reference counting must free all of it as soon as it is done:
a reference cycle would wait for the cyclic collector, and with many
streams in flight that raises a run's peak memory.
"""

import gc

from repro.config import HDD_PROFILE, MB
from repro.core import SFQDScheduler
from repro.dataplane import IOClass, IOTag
from repro.dataplane.streams import request_stream
from repro.net import NetFabric
from repro.simcore import Simulator
from repro.storage import StorageDevice


def test_finished_streams_and_transfers_leave_no_garbage_cycles():
    sim = Simulator()
    device = StorageDevice(sim, HDD_PROFILE, name="d0")
    sched = SFQDScheduler(sim, device, depth=2)
    net = NetFabric(sim, ["a", "b"], 100.0 * MB)
    tag = IOTag("app", 1.0)

    def job():
        yield from request_stream(sim, sched.submit, tag, "read", 24 * MB,
                                  IOClass.PERSISTENT, 4 * MB, 2)
        yield net.transfer("a", "b", 8 * MB)

    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            sim.process(job())
        sim.run()
        assert sched.stats.total_requests == 18
        assert gc.collect() == 0
    finally:
        gc.enable()
