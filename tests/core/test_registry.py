"""Scheduler classes as the policy table, PolicySpec/NodePolicy
validation & serialization.

Includes the headline extensibility check: a third-party scheduler
defined *here* (no edits to ``repro.core``) is filed by subclassing,
becomes constructible through ``PolicySpec``/``NodePolicy``, and runs
inside a ``DataNodeIO``.
"""

import pytest

from repro.config import MB, StorageProfile, default_cluster
from repro.core import (
    CgroupsThrottleScheduler,
    CgroupsWeightScheduler,
    DataNodeIO,
    DepthController,
    IOClass,
    IORequest,
    IOScheduler,
    IOTag,
    NativeScheduler,
    NodePolicy,
    PolicySpec,
    SFQD2Scheduler,
    SFQDScheduler,
    policy_class,
)
from repro.simcore import Simulator
from repro.storage import StorageDevice

FLAT = StorageProfile(name="flat", peak_rate=100.0 * MB, n_half=0.0)

CTRL = DepthController.symmetric(0.05)


# ------------------------------------------------------------ policy table
def test_builtins_registered_under_canonical_names():
    for name in ("native", "sfq(d)", "sfq(d2)", "cgroups-weight",
                 "cgroups-throttle", "reservation"):
        assert policy_class(name).algorithm == name


def test_aliases_resolve_to_canonical():
    assert policy_class("sfqd") is SFQDScheduler
    assert policy_class("sfqd2") is SFQD2Scheduler
    assert PolicySpec(kind="sfqd").kind == "sfq(d)"
    assert PolicySpec(kind="sfqd2", controller=CTRL).kind == "sfq(d2)"


def test_unknown_kind_raises_with_choices():
    for lookup in (policy_class, lambda kind: PolicySpec(kind=kind)):
        with pytest.raises(ValueError, match="unknown policy kind") as exc:
            lookup("elevator")
        for name in ("native", "sfq(d)", "sfq(d2)", "cgroups-weight"):
            assert repr(name) in str(exc.value)


def test_capability_declarations():
    assert policy_class("sfq(d)").supports_coordination
    assert policy_class("sfq(d2)").supports_coordination
    assert not policy_class("native").supports_coordination
    # cgroups sees only container-issued local I/O (§6): the capability
    # says so, for both modes — including the SFQD-derived weight mode.
    for kind in ("cgroups-weight", "cgroups-throttle"):
        scheduler = policy_class(kind)
        assert scheduler.manages_classes == frozenset({IOClass.INTERMEDIATE})
        assert not scheduler.supports_coordination
    assert policy_class("sfq(d2)").required_params == ("controller",)
    assert policy_class("cgroups-throttle").required_params == ("throttle_rates",)


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        class Impostor(IOScheduler):  # filed when the class body runs
            algorithm = "native"
    assert policy_class("native") is NativeScheduler


def test_abstract_and_optout_subclasses_stay_unregistered():
    class NoAlgorithm(IOScheduler):  # inherits algorithm: not filed
        pass

    # A subclass that leaves a filed algorithm inherited is not filed
    # either, so it neither clashes with nor replaces its parent.
    class TunedSFQD(SFQDScheduler):
        pass

    assert policy_class("sfq(d)") is SFQDScheduler
    with pytest.raises(ValueError, match="unknown policy kind"):
        policy_class(NoAlgorithm.algorithm)


# --------------------------------------------------------------- PolicySpec
def test_spec_normalizes_alias_kinds():
    assert PolicySpec(kind="sfqd", depth=2).kind == "sfq(d)"
    assert PolicySpec.sfqd2(CTRL).kind == "sfq(d2)"


def test_spec_validates_required_params():
    with pytest.raises(ValueError, match="DepthController"):
        PolicySpec(kind="sfqd2")
    with pytest.raises(ValueError, match="throttle_rates"):
        PolicySpec(kind="cgroups-throttle")


def test_spec_rejects_unsupported_coordination():
    with pytest.raises(ValueError, match="coordination"):
        PolicySpec(kind="native", coordinated=True)
    with pytest.raises(ValueError, match="coordination"):
        PolicySpec(kind="cgroups-weight", coordinated=True)
    assert PolicySpec.sfqd(4, coordinated=True).coordinated


def test_spec_json_round_trip():
    for spec in (
        PolicySpec.native(),
        PolicySpec.sfqd(7, coordinated=True),
        PolicySpec.sfqd2(DepthController(
            ref_latency_read=0.02, ref_latency_write=0.08, gain=40.0)),
        PolicySpec.cgroups_throttle({"terasort": 48.0 * MB}),
    ):
        text = spec.to_json()
        again = PolicySpec.from_json(text)
        assert again == spec
        assert again.to_json() == text  # canonical: stable fixed point


def test_spec_json_is_canonical():
    a = PolicySpec.sfqd(4).to_json()
    assert a == PolicySpec(kind="sfqd", depth=4).to_json()
    assert "\n" not in a and ": " not in a  # compact separators, one line


# --------------------------------------------------------------- NodePolicy
def test_node_policy_uniform_and_coerce():
    spec = PolicySpec.sfqd(4)
    np_ = NodePolicy.uniform(spec)
    assert np_.spec_for(IOClass.PERSISTENT) is spec
    assert NodePolicy.coerce(spec) == np_
    assert NodePolicy.coerce(np_) is np_
    with pytest.raises(TypeError):
        NodePolicy.coerce("sfqd")


def test_node_policy_coordinated_any():
    coord = PolicySpec.sfqd(4, coordinated=True)
    nat = PolicySpec.native()
    assert NodePolicy(persistent=coord, intermediate=nat, network=nat).coordinated
    assert not NodePolicy.uniform(nat).coordinated


def test_node_policy_json_round_trip():
    policy = NodePolicy(
        persistent=PolicySpec.sfqd2(CTRL),
        intermediate=PolicySpec.cgroups_weight(),
        network=PolicySpec.sfqd(2),
    )
    again = NodePolicy.from_json(policy.to_json())
    assert again == policy
    assert again.to_json() == policy.to_json()


# ------------------------------------------------------ per-class wiring
def _mk_node(policy):
    sim = Simulator()
    config = default_cluster()
    node = DataNodeIO(sim, "dn00", config, policy)
    return sim, node


def test_datanode_builds_mixed_policies_per_class():
    sim, node = _mk_node(NodePolicy(
        persistent=PolicySpec.sfqd2(CTRL),
        intermediate=PolicySpec.sfqd(depth=2),
        network=PolicySpec.native(),
    ))
    assert isinstance(node.schedulers[IOClass.PERSISTENT], SFQD2Scheduler)
    assert isinstance(node.schedulers[IOClass.INTERMEDIATE], SFQDScheduler)
    assert type(node.schedulers[IOClass.NETWORK]) is NativeScheduler
    assert node.schedulers[IOClass.INTERMEDIATE].depth == 2
    # every scheduler shares the node's bus
    for sched in node.schedulers.values():
        assert sched.telemetry is node.telemetry


def test_cgroups_policy_falls_back_to_native_outside_intermediate():
    for spec in (PolicySpec.cgroups_weight(),
                 PolicySpec.cgroups_throttle({"terasort": 1.0 * MB})):
        _sim, node = _mk_node(spec)
        assert isinstance(
            node.schedulers[IOClass.INTERMEDIATE],
            (CgroupsWeightScheduler, CgroupsThrottleScheduler),
        )
        assert type(node.schedulers[IOClass.PERSISTENT]) is NativeScheduler
        assert type(node.schedulers[IOClass.NETWORK]) is NativeScheduler


# ----------------------------------------------------- third-party plug-in
class RoundRobinScheduler(IOScheduler):
    """A scheduler the core knows nothing about: FIFO with depth 1,
    round-robin across apps.  Exists purely to prove the plug-in path."""

    algorithm = "test-round-robin"
    aliases = ("rr",)
    required_params = ()

    def __init__(self, sim, device, name="", telemetry=None, bonus=0):
        super().__init__(sim, device, name, telemetry=telemetry)
        self.bonus = bonus  # arbitrary spec.params pass-through
        self._order: list[str] = []
        self._queues: dict[str, list] = {}

    @property
    def queued(self):
        return sum(len(q) for q in self._queues.values())

    def _enqueue(self, req):
        app = req.app_id
        if app not in self._queues:
            self._queues[app] = []
            self._order.append(app)
        self._queues[app].append(req)
        self._try_dispatch()

    def _try_dispatch(self):
        while self.outstanding < 1 and self._order:
            app = self._order.pop(0)
            queue = self._queues[app]
            req = queue.pop(0)
            if queue:
                self._order.append(app)
            else:
                del self._queues[app]
            self._dispatch_to_device(req)

    def _on_complete(self, req, done):
        self._try_dispatch()


def test_third_party_scheduler_registers_and_runs():
    assert policy_class("test-round-robin") is RoundRobinScheduler
    assert policy_class("rr") is RoundRobinScheduler

    spec = PolicySpec(kind="rr", params={"bonus": 3})
    assert spec.kind == "test-round-robin"
    assert PolicySpec.from_json(spec.to_json()) == spec

    # Constructible standalone through the class's spec factory...
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    sched = policy_class(spec.kind).from_spec(sim, dev, spec, name="rr0")
    assert isinstance(sched, RoundRobinScheduler)
    assert sched.bonus == 3

    # ...and inside a DataNodeIO via NodePolicy, end to end.
    sim, node = _mk_node(NodePolicy(
        persistent=spec,
        intermediate=PolicySpec.native(),
        network=PolicySpec.native(),
    ))
    assert isinstance(node.schedulers[IOClass.PERSISTENT], RoundRobinScheduler)
    reqs = [
        IORequest(sim, IOTag(app, 1.0), "read", 4 * MB, IOClass.PERSISTENT)
        for app in ("a", "b", "a")
    ]
    for req in reqs:
        node.submit(req)
    sim.run()
    stats = node.schedulers[IOClass.PERSISTENT].stats
    assert stats.total_requests == 3
    assert stats.service_by_app == {"a": 8 * MB, "b": 4 * MB}
