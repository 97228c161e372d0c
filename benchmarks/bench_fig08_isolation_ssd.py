"""Figure 8a/8b: the isolation study on the SSD setup, with split
read/write reference latencies for the SFQ(D2) controller."""

from repro.experiments.figures import fig8_isolation_ssd


def test_fig8_isolation_ssd(benchmark, report):
    result = benchmark.pedantic(fig8_isolation_ssd, rounds=1, iterations=1)
    report(result)

    native = result.find(case="native")
    dyn = result.find(case="sfq(d2)")

    # Paper: WC still interfered on SSD (50%); SFQ(D2) restores it to
    # (or beyond) standalone, with total throughput >= native's.
    assert native["slowdown"] > 0.25
    assert dyn["slowdown"] < 0.5 * native["slowdown"]
    assert dyn["throughput_mbs"] > 0.85 * native["throughput_mbs"]
    # The controller's references reflect flash read/write asymmetry.
    assert any("write" in n for n in result.notes)
