"""Retry backoff: fixed, capped exponential, no jitter."""

import pytest

from repro.service import backoff


def test_backoff_grows_and_caps():
    assert backoff(1) == pytest.approx(0.05)
    assert backoff(2) == pytest.approx(0.1)
    assert backoff(3) == pytest.approx(0.2)
    assert backoff(8) == pytest.approx(5.0)  # 6.4 s, capped
    assert backoff(30) == pytest.approx(5.0)
