"""Figure 7: SFQ(D2)'s depth adaptation and observed latency over time
on one datanode (including the write-back flush-storm latency spikes)."""

from repro.experiments.figures import fig7_depth_adaptation


def test_fig7_depth_adaptation(benchmark, report):
    result = benchmark.pedantic(fig7_depth_adaptation, rounds=1, iterations=1)
    report(result)

    row = result.rows[0]
    # The controller actually moves D within its [1, 12] bounds.
    assert row["samples"] >= 5
    assert 1.0 <= row["d_min"] < row["d_max"] <= 12.0
    assert row["d_max"] - row["d_min"] >= 1.0  # real adaptation, not flat

    # Latency is steered around the reference; spikes (flush storms)
    # exceed it and are brought back down.
    lat_times, lat_values = result.series["latency_ms"]
    assert len(lat_values) >= 5
    assert max(lat_values) > row["lref_ms"]
    assert min(lat_values) < 1.8 * row["lref_ms"]

    # Depth falls when latency spikes: shortly after the worst-latency
    # sample, D sits clearly below its own peak.
    d_times, d_values = result.series["depth"]
    spike_t = lat_times[lat_values.index(max(lat_values))]
    after = [d for t, d in zip(d_times, d_values) if t >= spike_t]
    assert after and min(after[: max(3, len(after) // 4)]) < max(d_values) - 0.5
