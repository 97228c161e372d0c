"""Figure 6a/6b: performance isolation of WordCount vs TeraGen (HDD):
native vs SFQ(D=12/8/4/2) vs SFQ(D2), 32:1 sharing ratio."""

from repro.experiments.figures import fig6_isolation_hdd


def test_fig6_isolation_hdd(benchmark, report):
    result = benchmark.pedantic(fig6_isolation_hdd, rounds=1, iterations=1)
    report(result)

    native = result.find(case="native")
    d12 = result.find(case="sfq(d=12)")
    d4 = result.find(case="sfq(d=4)")
    d2s = result.find(case="sfq(d=2)")
    dyn = result.find(case="sfq(d2)")

    # Paper: native 107% >> SFQ(D) improving as D shrinks (86..13%),
    # SFQ(D2) best-or-near-best (8%).
    assert native["slowdown"] > 0.45
    assert d12["slowdown"] < native["slowdown"]
    assert d4["slowdown"] < d12["slowdown"]
    assert d2s["slowdown"] < 0.5 * native["slowdown"]
    assert dyn["slowdown"] < 0.35 * native["slowdown"]

    # Fig. 6b: throughput losses are bounded; the smallest static depth
    # pays the most (paper: -20%), the dynamic scheduler pays much less.
    assert d2s["throughput_loss"] < -0.08
    assert dyn["throughput_loss"] > d2s["throughput_loss"]
    assert dyn["throughput_loss"] > -0.12
