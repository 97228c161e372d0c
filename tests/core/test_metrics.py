"""Unit tests for performance metrics."""

import pytest

from repro.core.metrics import aggregate_service, relative_performance, slowdown


def test_slowdown_basic():
    assert slowdown(207.0, 100.0) == pytest.approx(1.07)
    assert slowdown(100.0, 100.0) == 0.0
    with pytest.raises(ValueError):
        slowdown(1.0, 0.0)
    with pytest.raises(ValueError):
        slowdown(0.0, 1.0)


def test_relative_performance():
    assert relative_performance(200.0, 100.0) == pytest.approx(0.5)
    assert relative_performance(100.0, 100.0) == 1.0
    # Faster than standalone clamps at 1.0 (Fig. 8's SSD anomaly).
    assert relative_performance(90.0, 100.0) == 1.0


def test_aggregate_service_sums_across_schedulers():
    total = aggregate_service(
        [{"a": 1.0, "b": 2.0}, {"a": 3.0}, {"c": 4.0}]
    )
    assert total == {"a": 4.0, "b": 2.0, "c": 4.0}


def test_aggregate_service_empty():
    assert aggregate_service([]) == {}
