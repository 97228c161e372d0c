"""Figure 9: CDF of Facebook2009 job runtimes — standalone, interfered
by TeraGen, and isolated by IBIS SFQ(D2) at 32:1."""

from repro.experiments.figures import fig9_facebook


def test_fig9_facebook(benchmark, report):
    result = benchmark.pedantic(fig9_facebook, rounds=1, iterations=1)
    report(result)

    standalone = result.find(case="standalone")
    interfered = result.find(case="interfered")
    isolated = result.find(case="sfq(d2)")

    # Paper: interference shifts the CDF far right (90th percentile
    # 120 s -> 230 s); SFQ(D2) pulls it back near standalone (138 s).
    assert interfered["p90"] > 1.4 * standalone["p90"]
    assert isolated["p90"] < 0.75 * interfered["p90"]
    assert isolated["mean_runtime"] < interfered["mean_runtime"]
    # Recovery: most of the interference gap is closed.
    gap_closed = (interfered["p90"] - isolated["p90"]) / (
        interfered["p90"] - standalone["p90"]
    )
    assert gap_closed > 0.5
