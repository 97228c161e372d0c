"""Figure 13: runtime overhead of IBIS on standalone WC/TG/TS."""

from repro.experiments.figures import fig13_overhead


def test_fig13_overhead(benchmark, report):
    result = benchmark.pedantic(fig13_overhead, rounds=1, iterations=1)
    report(result)

    # Paper: 1% (WC), 2% (TG), 4% (TS).  Shape: interposition +
    # scheduling costs little when there is no contention to manage.
    for row in result.rows:
        assert row["overhead"] < 0.15, row
    wc = result.find(app="wordcount")
    assert wc["overhead"] < 0.05
