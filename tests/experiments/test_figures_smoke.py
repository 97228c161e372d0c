"""Fast smoke tests for the experiment functions at a reduced scale.

The full-shape assertions live in ``benchmarks/``; here we verify each
experiment runs end-to-end and produces the expected row/series schema,
at 1/256 scale so the whole module stays quick.

Each result's JSON payload is also pinned by its sha256 in
``smoke_digests.json``, so these runs check bit-identity for free.  Update
a digest (the failure message prints the new one) only when an
intentional modelling change alters the numbers.
"""

import hashlib
import json
import pathlib

import pytest

from repro.config import SSD_PROFILE, default_cluster
from repro.experiments import (
    fig2_io_profiles,
    fig3_contention,
    fig6_isolation_hdd,
    fig7_depth_adaptation,
    fig8_isolation_ssd,
    fig9_facebook,
    fig11_proportional_slowdown,
    fig12_coordination,
    fig13_overhead,
    mixed_policy_ablation,
    tab2_resource_usage,
    tab3_loc,
)
from repro.experiments.report import result_payload

TINY = default_cluster(scale=1 / 256)
DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "smoke_digests.json").read_text())


def assert_digest(name, result):
    digest = hashlib.sha256(result_payload(result).encode()).hexdigest()
    assert digest == DIGESTS[name], f"{name} payload drifted: sha256 {digest}"


def test_fig2_schema():
    r = fig2_io_profiles(TINY)
    assert_digest("fig2", r)
    assert {row["app"] for row in r.rows} == {"terasort", "wordcount"}
    for key in ("terasort:read", "terasort:write", "wordcount:read",
                "wordcount:write"):
        times, values = r.series[key]
        assert len(times) == len(values) > 0


def test_fig3_schema():
    r = fig3_contention(TINY)
    assert_digest("fig3", r)
    cases = {row["case"] for row in r.rows}
    assert cases == {"wc_alone", "wc+teravalidate", "wc+teragen", "wc+terasort"}
    assert r.find(case="wc_alone")["slowdown"] == 0.0


def test_fig6_schema():
    r = fig6_isolation_hdd(TINY)
    assert_digest("fig6", r)
    cases = [row["case"] for row in r.rows]
    assert cases[0] == "wc_alone"
    assert "sfq(d2)" in cases
    for row in r.rows[1:]:
        assert row["throughput_mbs"] > 0


def test_fig9_small_trace():
    r = fig9_facebook(TINY, n_jobs=6)
    assert_digest("fig9", r)
    assert {row["case"] for row in r.rows} == {"standalone", "interfered",
                                               "sfq(d2)"}
    for label in ("standalone", "interfered", "sfq(d2)"):
        xs, ys = r.series[label]
        assert len(xs) == 6
        assert ys[-1] == pytest.approx(1.0)
        assert xs == sorted(xs)


def test_fig13_schema():
    r = fig13_overhead(TINY)
    assert_digest("fig13", r)
    assert {row["app"] for row in r.rows} == {"wordcount", "teragen",
                                              "terasort"}
    for row in r.rows:
        assert row["native"] > 0 and row["ibis"] > 0


def test_mixed_policy_ablation_schema():
    r = mixed_policy_ablation(TINY)
    assert_digest("mixed", r)
    cases = [row["case"] for row in r.rows]
    assert cases == ["wc_alone", "native", "ibis-persistent",
                     "ibis-intermediate", "ibis-uniform"]
    # Each managed case records its NodePolicy in canonical JSON.
    from repro.core import NodePolicy
    for row in r.rows[1:]:
        policy = NodePolicy.from_json(row["policy"])
        assert policy.to_json() == row["policy"]
    # WC vs TG contention lives on the HDFS disk: managing PERSISTENT
    # alone must recover (at least) the isolation of uniform IBIS, and
    # managing only the intermediate paths must not help native at all.
    sd = {row["case"]: row["slowdown"] for row in r.rows}
    assert sd["ibis-persistent"] <= sd["ibis-uniform"] + 1e-9
    assert sd["ibis-uniform"] < sd["native"]
    assert sd["ibis-intermediate"] == pytest.approx(sd["native"])


# Artifacts pinned by digest alone.  fig8 runs on its SSD setup; fig11
# searches 14 cluster runs, so it is pinned at 1/1024 to keep tier-1
# quick (~2 s there, ~7 s at 1/256).
DIGEST_ONLY = {
    "fig7": lambda: fig7_depth_adaptation(TINY),
    "fig8": lambda: fig8_isolation_ssd(
        default_cluster(scale=1 / 256, storage=SSD_PROFILE)),
    "fig11": lambda: fig11_proportional_slowdown(default_cluster(scale=1 / 1024)),
    "fig12": lambda: fig12_coordination(TINY),
    "tab2": lambda: tab2_resource_usage(TINY),
}


@pytest.mark.parametrize("name", sorted(DIGEST_ONLY))
def test_artifact_digest(name):
    assert_digest(name, DIGEST_ONLY[name]())


def test_tab3_counts_real_files():
    """The counts move whenever those files change, so only the table's
    shape is pinned: its components in order, its row keys, positive
    integer counts, and a total that sums the rest."""
    r = tab3_loc()
    assert [row["component"] for row in r.rows] == [
        "interposition", "sfq(d) scheduler", "sfq(d2) scheduler",
        "scheduling coordination", "cgroups baseline", "total"]
    for row in r.rows:
        assert set(row) == {"component", "loc"}
        assert type(row["loc"]) is int and row["loc"] > 0
    *parts, total = r.rows
    assert total["loc"] == sum(row["loc"] for row in parts)
