"""Figure 3: WordCount under contention on native Hadoop (HDD and SSD)."""

from repro.config import SSD_PROFILE, default_cluster
from repro.experiments.figures import fig3_contention


def test_fig3_contention_hdd(benchmark, report):
    result = benchmark.pedantic(fig3_contention, rounds=1, iterations=1)
    report(result)
    tg = result.find(case="wc+teragen")["slowdown"]
    ts = result.find(case="wc+terasort")["slowdown"]
    tv = result.find(case="wc+teravalidate")["slowdown"]
    # Paper (HDD): TeraValidate 62.6%, TeraGen 107%, TeraSort 108%.
    # Shape: all three interfere substantially; the writers hurt most.
    assert tg > 0.30
    assert ts > 0.15
    assert tv > 0.05
    assert max(tg, ts) > tv


def test_fig3_contention_ssd(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig3_contention(default_cluster(storage=SSD_PROFILE)),
        rounds=1, iterations=1,
    )
    report(result)
    tg = result.find(case="wc+teragen")["slowdown"]
    # Paper (SSD): contention persists on faster storage (TeraGen 50%).
    assert tg > 0.20
