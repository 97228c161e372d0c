"""Table 2: CPU and memory usage of the daemons hosting IBIS."""

from repro.experiments.figures import tab2_resource_usage


def test_tab2_resource_usage(benchmark, report):
    result = benchmark.pedantic(tab2_resource_usage, rounds=1, iterations=1)
    report(result)

    for app in ("wordcount", "teragen", "terasort"):
        native = result.find(app=app, case="native")
        ibis = result.find(app=app, case="ibis")
        # IBIS adds daemon work (tagging, queuing, broker traffic) but
        # stays modest — single-digit per-core CPU %, like Table 2.
        assert ibis["cpu_pct"] >= native["cpu_pct"]
        assert ibis["cpu_pct"] < 12.0
        assert ibis["mem_mb_per_node"] < 64.0
