"""Unit tests for I/O tags and requests."""

import pytest

from repro.core import IOClass, IORequest, IOTag
from repro.simcore import Simulator


def test_tag_validation():
    with pytest.raises(ValueError):
        IOTag(app_id="", weight=1.0)
    with pytest.raises(ValueError):
        IOTag(app_id="a", weight=0.0)
    with pytest.raises(ValueError):
        IOTag(app_id="a", weight=-3.0)


def test_tag_is_hashable_value_object():
    assert IOTag("a", 2.0) == IOTag("a", 2.0)
    assert len({IOTag("a", 2.0), IOTag("a", 2.0)}) == 1


def test_request_carries_tag_fields():
    sim = Simulator()
    req = IORequest(sim, IOTag("app1", 32.0), "read", 1024, IOClass.NETWORK)
    assert req.app_id == "app1"
    assert req.weight == 32.0
    assert req.io_class is IOClass.NETWORK
    assert req.t_submitted == 0.0
    assert req.t_dispatched is None


def test_request_validation():
    sim = Simulator()
    tag = IOTag("a")
    with pytest.raises(ValueError):
        IORequest(sim, tag, "erase", 100)
    with pytest.raises(ValueError):
        IORequest(sim, tag, "read", 0)


def test_io_class_members():
    assert {c.value for c in IOClass} == {"persistent", "intermediate", "network"}
