"""Figure 10a/10b: TPC-H on Hive vs TeraSort on MapReduce — native,
cgroups weight 100:1, cgroups throttle, and IBIS 100:1."""

from repro.experiments.figures import fig10_multiframework


def test_fig10_multiframework(benchmark, report):
    result = benchmark.pedantic(fig10_multiframework, rounds=1, iterations=1)
    report(result)

    for query in ("q21", "q9"):
        native = result.find(query=query, case="native")
        cgw = result.find(query=query, case="cg(weight)-100:1")
        cgt = result.find(query=query, case="cg(throttle)")
        ibis = result.find(query=query, case="ibis-100:1")

        # The queries lose noticeable performance under contention.
        assert native["query_rel_perf"] < 0.92
        # IBIS restores the query best (or ties) — it schedules HDFS
        # I/O, which cgroups cannot see.
        assert ibis["query_rel_perf"] >= cgw["query_rel_perf"] - 0.02
        assert ibis["query_rel_perf"] > native["query_rel_perf"] + 0.015

    # Q21 is persistent-I/O heavy: cgroups barely helps it (paper: +1-3%)
    q21_native = result.find(query="q21", case="native")
    q21_cgw = result.find(query="q21", case="cg(weight)-100:1")
    q21_ibis = result.find(query="q21", case="ibis-100:1")
    assert q21_ibis["query_rel_perf"] - q21_native["query_rel_perf"] > \
        2 * max(0.0, q21_cgw["query_rel_perf"] - q21_native["query_rel_perf"]) - 0.02

    # Throttling is non-work-conserving: TeraSort does worse under it
    # than under IBIS (paper: up to 16%).
    for query in ("q21", "q9"):
        cgt = result.find(query=query, case="cg(throttle)")
        ibis = result.find(query=query, case="ibis-100:1")
        assert ibis["ts_rel_perf"] >= cgt["ts_rel_perf"] - 0.02
