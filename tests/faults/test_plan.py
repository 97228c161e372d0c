"""Unit tests for FaultEvent / FaultPlan: validation and serialisation."""

import pytest

from repro.faults import (
    FAULT_KINDS,
    NODE_CRASH,
    FaultEvent,
    FaultPlan,
)


def small_plan():
    return FaultPlan(
        events=(
            FaultEvent.node_crash(1.0, "dn01", duration=2.0),
            FaultEvent.slow_disk(3.0, "dn02", duration=1.0, factor=0.5,
                                 device="tmp"),
            FaultEvent.broker_outage(5.0, duration=2.0, jitter=0.5),
        ),
        read_backoff=0.125,
        read_timeout=1.5,
        max_read_attempts=3,
    )


# ------------------------------------------------------------- validation

def test_fault_kinds_is_complete():
    assert set(FAULT_KINDS) == {"node_crash", "slow_disk", "broker_outage"}


def test_link_degrade_is_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind 'link_degrade'"
                       r".*\('node_crash', 'slow_disk', 'broker_outage'\)"):
        FaultEvent(kind="link_degrade", at=1.0, target="dn01", duration=1.0,
                   factor=0.5)


@pytest.mark.parametrize("bad", [
    dict(kind="meteor_strike", at=1.0, target="dn01"),
    dict(kind=NODE_CRASH, at=-1.0, target="dn01"),
    dict(kind=NODE_CRASH, at=1.0, target=""),            # needs a target
    dict(kind=NODE_CRASH, at=1.0, target="dn01", duration=-1.0),
    dict(kind=NODE_CRASH, at=1.0, target="dn01", jitter=-0.1),
    dict(kind="slow_disk", at=1.0, target="dn01"),       # duration <= 0
    dict(kind="slow_disk", at=1.0, target="dn01", duration=1.0, factor=0.0),
    dict(kind="slow_disk", at=1.0, target="dn01", duration=1.0, factor=1.5),
    dict(kind="slow_disk", at=1.0, target="dn01", duration=1.0, factor=0.5,
         device="floppy"),
    dict(kind="link_degrade", at=1.0, target="dn01", duration=1.0, factor=0.5),
    dict(kind="broker_outage", at=1.0, target="dn01", duration=1.0),
    dict(kind="broker_outage", at=1.0),                  # duration <= 0
])
def test_invalid_events_rejected(bad):
    with pytest.raises(ValueError):
        FaultEvent(**bad)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field,bad", [
    ("at", dict(kind=NODE_CRASH, at=NAN, target="dn01")),
    ("at", dict(kind=NODE_CRASH, at=INF, target="dn01")),
    ("jitter", dict(kind=NODE_CRASH, at=1.0, target="dn01", jitter=NAN)),
    ("duration", dict(kind=NODE_CRASH, at=1.0, target="dn01", duration=NAN)),
    ("duration", dict(kind=NODE_CRASH, at=1.0, target="dn01", duration=INF)),
    ("duration", dict(kind="slow_disk", at=1.0, target="dn01", duration=NAN,
                      factor=0.5)),
    ("duration", dict(kind="broker_outage", at=1.0, duration=INF)),
])
def test_non_finite_event_times_rejected(field, bad):
    with pytest.raises(ValueError, match=field):
        FaultEvent(**bad)


def test_non_finite_event_time_rejected_from_json():
    with pytest.raises(ValueError, match="at must be finite"):
        FaultPlan.from_json(
            '{"events": [{"kind": "node_crash", "at": NaN, "target": "dn01"}]}')


@pytest.mark.parametrize("field", ["read_backoff", "read_timeout"])
@pytest.mark.parametrize("value", [NAN, INF])
def test_non_finite_plan_times_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        FaultPlan(**{field: value})


def test_permanent_crash_is_duration_zero():
    ev = FaultEvent.node_crash(1.0, "dn01")
    assert ev.duration == 0.0  # permanent by convention


def test_plan_validation():
    ev = FaultEvent.broker_outage(1.0, duration=1.0)
    with pytest.raises(ValueError):
        FaultPlan(events=(ev,), read_backoff=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(events=(ev,), read_timeout=-1.0)
    with pytest.raises(ValueError):
        FaultPlan(events=(ev,), max_read_attempts=0)
    with pytest.raises(TypeError):
        FaultPlan(events=({"kind": "node_crash"},))


def test_plan_coerces_events_to_tuple():
    ev = FaultEvent.broker_outage(1.0, duration=1.0)
    plan = FaultPlan(events=[ev])
    assert plan.events == (ev,)
    assert isinstance(plan.events, tuple)


# --------------------------------------------------------- serialisation

def test_round_trip_preserves_equality():
    plan = small_plan()
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_canonical_json_is_stable():
    # Equal plans built independently serialise to identical bytes.
    assert small_plan().to_json() == small_plan().to_json()
    text = small_plan().to_json()
    assert FaultPlan.from_json(text).to_json() == text


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown FaultPlan"):
        FaultPlan.from_dict({"events": [], "blast_radius": 3})
    with pytest.raises(ValueError, match="unknown FaultEvent"):
        FaultEvent.from_dict({"kind": NODE_CRASH, "at": 1.0,
                              "target": "dn01", "severity": "high"})


def test_from_dict_accepts_event_instances():
    ev = FaultEvent.node_crash(1.0, "dn01", duration=2.0)
    plan = FaultPlan.from_dict({"events": [ev]})
    assert plan.events == (ev,)


def test_from_dict_rejects_non_sequence_events():
    with pytest.raises(TypeError):
        FaultPlan.from_dict({"events": "node_crash"})


def test_default_plan_has_no_events():
    plan = FaultPlan()
    assert plan.events == ()
    assert plan.max_read_attempts >= 1
