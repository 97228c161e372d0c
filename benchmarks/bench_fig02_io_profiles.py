"""Figure 2: I/O demand profiles of TeraSort and WordCount run alone."""

from repro.experiments.figures import fig2_io_profiles


def test_fig2_io_profiles(benchmark, report):
    result = benchmark.pedantic(fig2_io_profiles, rounds=1, iterations=1)
    report(result)

    ts = result.find(app="terasort")
    wc = result.find(app="wordcount")
    # TeraSort's I/O is far more intensive than WordCount's (Fig. 2a vs
    # 2b): compare sustained demand (bytes moved per second of runtime).
    def sustained(label):
        read = sum(result.series[f"{label}:read"][1])
        write = sum(result.series[f"{label}:write"][1])
        return (read + write) / max(1.0, result.find(app=label)["runtime"])

    assert sustained("terasort") > 2.0 * sustained("wordcount")
    assert ts["peak_write"] > 1.5 * wc["peak_write"]
    # WordCount writes intermediate data throughout (its write series is
    # non-trivial even though its final output is small).
    wc_writes = result.series["wordcount:write"][1]
    assert max(wc_writes) > 50.0  # MB/s cluster-wide
    # Series cover each job's runtime.
    assert result.series["terasort:read"][0][-1] >= ts["runtime"] - 2.0
