"""Figure 12: distributed scheduling coordination off (No Sync) vs on
(Sync) — total-service proportional sharing under skewed data placement."""

from repro.experiments.figures import fig12_coordination


def test_fig12_coordination(benchmark, report):
    result = benchmark.pedantic(fig12_coordination, rounds=1, iterations=1)
    report(result)

    nosync = result.find(case="no sync")
    sync = result.find(case="sync")

    # §5's objective: equal-weight applications should split the TOTAL
    # I/O service 1:1.  Without coordination the evenly-spread scan
    # collects a large multiple of the skewed scan's service; with the
    # broker the ratio approaches the target.
    assert nosync["total_service_ratio"] > 1.8
    assert sync["total_service_ratio"] < 1.5
    assert sync["ratio_error"] < 0.5 * nosync["ratio_error"]

    # The under-served (skewed) application's slowdown improves.
    assert sync["hot_slowdown"] < nosync["hot_slowdown"]
