"""Policy selection as data: :class:`PolicySpec` and :class:`NodePolicy`.

A :class:`PolicySpec` names one scheduler class (by its ``algorithm``
or an alias) and its parameters; it is validated against that class's
declared capabilities at construction and serializes to/from a
canonical dict/JSON form — the same form experiment configs and cache
keys derive from.

A :class:`NodePolicy` maps each interposed I/O class (§3) to its own
spec, which is the point of interposition: *different* schedulers can
manage the persistent, intermediate and shuffle paths of one node.
``NodePolicy.uniform`` preserves the old one-policy-everywhere API, and
everything accepting a policy coerces a bare ``PolicySpec`` through it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Union

from repro.config import known_fields
from repro.core.base import policy_class

# Importing the built-in scheduler modules files their classes by name,
# so a PolicySpec can be validated wherever it is constructed.
import repro.core.sfq           # noqa: F401  (sfq(d))
import repro.core.sfqd2         # noqa: F401  (sfq(d2))
import repro.core.cgroups       # noqa: F401  (cgroups-weight/-throttle)
import repro.core.reservation   # noqa: F401  (reservation)
from repro.core.sfqd2 import DepthController
from repro.dataplane.tags import IOClass

__all__ = ["NodePolicy", "PolicySpec", "canonical_json", "policy_from_dict"]


def canonical_json(payload: Any) -> str:
    """One canonical JSON text per logical value (sorted keys, no spaces).

    Experiment configs, trace metadata and the calibration-cache key all
    serialize through this, so equal configurations hash equally.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class PolicySpec:
    """Which I/O scheduler runs at an interposition point.

    ``kind`` may be a canonical algorithm name or an alias (``sfqd`` →
    ``sfq(d)``); it is normalized to the canonical name.
    ``coordinated`` enables the Scheduling Broker (§5); it is rejected
    for schedulers that do not declare coordination support.
    ``params`` carries extra keyword arguments for schedulers without
    dedicated fields (third-party schedulers).
    """

    kind: str = "native"
    depth: int = 4                                 # SFQ(D)
    controller: Optional[DepthController] = None   # SFQ(D2)
    throttle_rates: dict[str, float] = field(default_factory=dict)
    coordinated: bool = False
    sync_period: float = 1.0
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        scheduler = policy_class(self.kind)  # raises on unknown kinds
        kind = scheduler.algorithm
        object.__setattr__(self, "kind", kind)
        if self.sync_period <= 0:
            raise ValueError("sync_period must be positive")
        for param in scheduler.required_params:
            if param == "controller":
                if self.controller is None:
                    raise ValueError(f"{kind} policy requires a DepthController")
            elif param == "throttle_rates":
                if not self.throttle_rates:
                    raise ValueError(f"{kind} policy requires throttle_rates")
            elif param not in self.params:
                raise ValueError(
                    f"{kind} policy requires parameter {param!r}"
                )
        if self.coordinated and not scheduler.supports_coordination:
            raise ValueError(
                f"coordination is not supported by the {kind!r} policy"
            )

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        """Canonical dict form (JSON-ready; omits unset optionals)."""
        out: dict[str, Any] = {
            "kind": self.kind,
            "depth": self.depth,
            "coordinated": self.coordinated,
            "sync_period": self.sync_period,
        }
        if self.controller is not None:
            out["controller"] = dataclasses.asdict(self.controller)
        if self.throttle_rates:
            out["throttle_rates"] = dict(self.throttle_rates)
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolicySpec":
        payload = known_fields(cls, data)
        controller = payload.pop("controller", None)
        if controller is not None and not isinstance(controller, DepthController):
            controller = DepthController(**known_fields(DepthController, controller))
        return cls(controller=controller, **payload)

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "PolicySpec":
        return cls.from_dict(json.loads(text))

    # Convenience constructors used throughout the experiments -------------
    @classmethod
    def native(cls) -> "PolicySpec":
        return cls(kind="native")

    @classmethod
    def sfqd(cls, depth: int, coordinated: bool = False) -> "PolicySpec":
        return cls(kind="sfqd", depth=depth, coordinated=coordinated)

    @classmethod
    def sfqd2(
        cls, controller: DepthController, coordinated: bool = False
    ) -> "PolicySpec":
        return cls(kind="sfqd2", controller=controller, coordinated=coordinated)

    @classmethod
    def cgroups_weight(cls) -> "PolicySpec":
        return cls(kind="cgroups-weight")

    @classmethod
    def cgroups_throttle(cls, rates_bps: dict[str, float]) -> "PolicySpec":
        return cls(kind="cgroups-throttle", throttle_rates=dict(rates_bps))


@dataclass(frozen=True)
class NodePolicy:
    """One :class:`PolicySpec` per interposed I/O class.

    The scheduler's declared capabilities still apply per class: a spec
    whose scheduler does not manage a class falls back to native there
    (that is how cgroups ends up INTERMEDIATE-only, §6).
    """

    persistent: PolicySpec
    intermediate: PolicySpec
    network: PolicySpec

    @classmethod
    def uniform(cls, spec: PolicySpec) -> "NodePolicy":
        """The classic configuration: one policy at every point."""
        return cls(persistent=spec, intermediate=spec, network=spec)

    @classmethod
    def coerce(cls, policy: Union[PolicySpec, "NodePolicy"]) -> "NodePolicy":
        if isinstance(policy, cls):
            return policy
        if isinstance(policy, PolicySpec):
            return cls.uniform(policy)
        raise TypeError(
            f"expected PolicySpec or NodePolicy, got {type(policy).__name__}"
        )

    def spec_for(self, io_class: IOClass) -> PolicySpec:
        if io_class is IOClass.PERSISTENT:
            return self.persistent
        if io_class is IOClass.INTERMEDIATE:
            return self.intermediate
        return self.network

    def specs(self) -> dict[IOClass, PolicySpec]:
        return {c: self.spec_for(c) for c in IOClass}

    @property
    def coordinated(self) -> bool:
        """True if any class's policy asks for broker coordination."""
        return any(spec.coordinated for spec in self.specs().values())

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        return {c.value: self.spec_for(c).to_dict() for c in IOClass}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NodePolicy":
        return cls(**{
            c.value: PolicySpec.from_dict(data[c.value]) for c in IOClass
        })

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "NodePolicy":
        return cls.from_dict(json.loads(text))


def policy_from_dict(data: Mapping[str, Any]) -> "PolicySpec | NodePolicy":
    """Parse a declarative policy: either one :class:`PolicySpec` dict
    (``{"kind": ...}``, applied uniformly by the consumer) or a per-class
    :class:`NodePolicy` dict keyed by the three I/O classes."""
    if "kind" in data:
        return PolicySpec.from_dict(data)
    class_keys = {c.value for c in IOClass}
    if set(data) == class_keys:
        return NodePolicy.from_dict(data)
    raise ValueError(
        f"policy dict must carry 'kind' (uniform PolicySpec) or exactly "
        f"the per-class keys {sorted(class_keys)}; got {sorted(data)}"
    )
