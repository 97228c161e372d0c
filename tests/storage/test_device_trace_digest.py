"""Pin StorageDevice's completion times bit for bit.

Every figure golden rests on the device model's float arithmetic, so a
refactor of its rate bookkeeping must reproduce each completion time
and latency exactly, not approximately.  This test drives four profiles
(an HDD with frequent flush storms, the SSD preset, a processor-sharing
device with storms, and a flat network-link pipe) through bursts of up
to 600 requests in flight while the rate factor is set at t=0 and
changed mid-run, and hashes the ``repr`` of every completion.

The digests were captured from the original two-path implementation
(lookup tables for healthy devices up to 256 in flight, plain
arithmetic otherwise); a change that moves any of them alters simulated
behaviour.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from repro.config import HDD_PROFILE, MB, SSD_PROFILE, StorageProfile
from repro.simcore import Simulator
from repro.storage import StorageDevice
from tests.device_events import submit

PROFILES = {
    "hdd_small_flush": replace(HDD_PROFILE, flush_threshold=64 * MB),
    "ssd": SSD_PROFILE,
    "ps_storms": StorageProfile(
        name="ps_storms",
        peak_rate=200.0 * MB,
        n_half=2.0,
        write_cost=2.0,
        request_overhead=0.01 * MB,
        flush_threshold=96.0 * MB,
        flush_duration=0.5,
        flush_factor=0.4,
        discipline="ps",
    ),
    "link": StorageProfile(name="link", peak_rate=125.0 * MB, n_half=0.0),
}

#: (factor at t=0, factor after the 200th completion)
SCHEDULES = ((1.0, 0.37), (0.37, 2.5), (2.5, 1.0))

SIZES = (64 * 1024, 1 * MB, 4 * MB, 8 * MB)

DIGESTS = {
    "hdd_small_flush": "f0d54e17044a8330e95c5ae6f045c24c1df0e6c7a5aead78c8dda568d0ea8b49",
    "ssd": "00762539e732aed6af8a8d5796e1e4891411a404ed3d39a534177f94fa7ace31",
    "ps_storms": "51c4b0b9e690a8f664cb649ba49827aab0a4a8c035a524e4f3544983f5f6b94a",
    "link": "795511abd937c43eb169ad8f701e71c37a6da62f1732ce696a9dfea2c4c2472d",
}


def _drive(profile, f0, f_mid, digest):
    """Two bursts (600 at t=0, 300 more after the 300th completion);
    returns the peak number of requests in flight."""
    sim = Simulator()
    dev = StorageDevice(sim, profile, name="d")
    rng = random.Random(15)
    done = 0
    peak = 0

    def on_done(ev):
        nonlocal done
        done += 1
        digest.update(repr((sim.now, ev.value.latency)).encode())
        if done == 200:
            dev.set_rate_factor(f_mid)
        elif done == 300:
            burst(300)

    def burst(k):
        nonlocal peak
        for _ in range(k):
            op = "write" if rng.random() < 0.4 else "read"
            submit(dev, op, rng.choice(SIZES)).callbacks.append(on_done)
        peak = max(peak, dev.in_flight)

    dev.set_rate_factor(f0)
    burst(600)
    sim.run()
    assert done == 900
    assert dev.in_flight == 0
    return peak


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_device_trace_digest(name):
    digest = hashlib.sha256()
    for f0, f_mid in SCHEDULES:
        assert _drive(PROFILES[name], f0, f_mid, digest) >= 600
    assert digest.hexdigest() == DIGESTS[name]
