"""Figure 11: proportional (equal) slowdown for TeraSort vs TeraGen —
CPU-only tuning vs CPU + IBIS I/O tuning."""

from repro.experiments.figures import fig11_proportional_slowdown


def test_fig11_proportional_slowdown(benchmark, report):
    result = benchmark.pedantic(
        fig11_proportional_slowdown, rounds=1, iterations=1
    )
    report(result)

    cpu_only = next(r for r in result.rows if r["case"].startswith("cpu only"))
    cpu_ibis = next(r for r in result.rows if r["case"].startswith("cpu+ibis"))

    # Paper: CPU-only gets 83%/61% at best; CPU+IBIS reaches an equal
    # 42%/42% — 30% better average.  Shape: adding the I/O knob both
    # closes the gap and lowers the average slowdown.
    assert cpu_ibis["gap"] < cpu_only["gap"]
    assert cpu_ibis["gap"] < 0.10
    assert cpu_ibis["avg"] < 0.9 * cpu_only["avg"]
