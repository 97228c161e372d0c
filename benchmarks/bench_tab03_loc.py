"""Table 3: development cost (lines of code) of the IBIS components."""

from repro.experiments.figures import tab3_loc


def test_tab3_loc(benchmark, report):
    result = benchmark.pedantic(tab3_loc, rounds=1, iterations=1)
    report(result)

    by_component = {r["component"]: r["loc"] for r in result.rows}
    # Paper's Table 3 shape: interposition is the largest component;
    # a sophisticated scheduler is ~a thousand lines or less; the total
    # stays in the few-thousands.
    assert by_component["interposition"] >= by_component["sfq(d) scheduler"]
    assert by_component["sfq(d2) scheduler"] > by_component["sfq(d) scheduler"]
    assert by_component["sfq(d2) scheduler"] < 1000
    assert 300 < by_component["total"] < 8000
    assert by_component["total"] == sum(
        v for k, v in by_component.items() if k != "total"
    )
