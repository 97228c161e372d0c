"""Tests for the benchmark application builders."""

import pytest

from repro.config import GB, TB, default_cluster
from repro.workloads import (
    teragen,
    terasort,
    teravalidate,
    wordcount,
)

CFG = default_cluster()


def test_teragen_is_map_only_writer():
    spec = teragen(CFG)
    assert spec.n_reduces == 0
    assert spec.input_path is None
    assert spec.output_bytes == CFG.scaled(1 * TB)
    assert spec.n_maps >= 1
    # near one block per map
    assert spec.output_bytes / spec.n_maps == pytest.approx(
        CFG.sim_block_size, rel=0.2
    )


def test_terasort_shuffles_everything():
    spec = terasort(CFG, "/in/t", input_bytes=100 * GB)
    scaled = CFG.scaled(100 * GB)
    assert spec.shuffle_bytes == scaled
    assert spec.output_bytes == scaled
    assert spec.n_reduces > 0
    assert spec.map_spill_factor > 1.0


def test_wordcount_is_compute_heavy_small_output():
    spec = wordcount(CFG, "/in/w")
    assert spec.map_cpu_s_per_mb > 5 * terasort(CFG, "/x").map_cpu_s_per_mb
    assert spec.output_bytes < 0.1 * CFG.scaled(50 * GB)
    assert 0 < spec.shuffle_bytes < CFG.scaled(50 * GB)


def test_teravalidate_read_mostly():
    spec = teravalidate(CFG, "/in/sorted")
    assert spec.n_reduces == 0
    assert spec.output_bytes == 0
