"""The pluggable I/O-policy registry.

Interposition's whole point (§3) is that *different* schedulers can sit
at each of a datanode's three I/O classes.  The registry is what makes
that pluggable: every :class:`~repro.core.base.IOScheduler` subclass
self-registers under its ``algorithm`` name (via ``__init_subclass__``)
together with declared *capabilities*:

* ``manages_classes`` — which I/O classes the scheduler can actually
  manage.  cgroups declares ``{INTERMEDIATE}`` only, faithfully to §6 —
  the restriction is a capability, not a special case in the wiring.
* ``supports_coordination`` — whether the scheduler implements the
  DSFQ ``add_start_delay`` interface the Scheduling Broker drives (§5).
* ``required_params`` — spec parameters construction needs (e.g. the
  SFQ(D2) controller).

:class:`~repro.core.policy.PolicySpec` validates against this registry,
and :class:`~repro.core.interposition.DataNodeIO` builds schedulers
through it — no ``if/elif`` chain anywhere.  Third-party schedulers
(from experiments, benchmarks or tests) register simply by subclassing
``IOScheduler`` with an ``algorithm`` attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.dataplane.tags import IOClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import IOScheduler
    from repro.core.policy import PolicySpec
    from repro.simcore import Simulator
    from repro.storage import StorageDevice
    from repro.telemetry import TelemetryBus

__all__ = ["PolicyInfo", "PolicyRegistry", "REGISTRY", "get_policy",
           "policy_names", "register_scheduler"]


@dataclass(frozen=True)
class PolicyInfo:
    """One registered scheduler implementation and its capabilities."""

    name: str                          # canonical algorithm name
    scheduler: type
    aliases: tuple[str, ...]
    manages_classes: frozenset[IOClass]
    supports_coordination: bool
    required_params: tuple[str, ...]

    @classmethod
    def from_scheduler(cls, scheduler: type["IOScheduler"]) -> "PolicyInfo":
        return cls(
            name=scheduler.algorithm,
            scheduler=scheduler,
            aliases=tuple(scheduler.aliases),
            manages_classes=frozenset(scheduler.manages_classes),
            supports_coordination=bool(scheduler.supports_coordination),
            required_params=tuple(scheduler.required_params),
        )

    def manages(self, io_class: IOClass) -> bool:
        return io_class in self.manages_classes

    def build(
        self,
        sim: "Simulator",
        device: "StorageDevice",
        spec: "PolicySpec",
        name: str = "",
        telemetry: Optional["TelemetryBus"] = None,
    ) -> "IOScheduler":
        """Construct the scheduler for one interposition point."""
        return self.scheduler.from_spec(
            sim, device, spec, name=name, telemetry=telemetry
        )


class PolicyRegistry:
    """Name -> :class:`PolicyInfo`, with alias resolution."""

    def __init__(self) -> None:
        self._infos: dict[str, PolicyInfo] = {}
        self._resolve: dict[str, str] = {}   # name or alias -> canonical name

    def register(self, scheduler: type["IOScheduler"]) -> PolicyInfo:
        info = PolicyInfo.from_scheduler(scheduler)
        for key in (info.name, *info.aliases):
            owner = self._resolve.get(key)
            if owner is not None:
                existing = self._infos[owner].scheduler
                if existing.__qualname__ == scheduler.__qualname__:
                    continue  # module re-import of the same class
                raise ValueError(
                    f"policy name {key!r} already registered by "
                    f"{existing.__module__}.{existing.__qualname__}"
                )
        self._infos[info.name] = info
        for key in (info.name, *info.aliases):
            self._resolve[key] = info.name
        return info

    def get(self, kind: str) -> PolicyInfo:
        canonical = self._resolve.get(kind)
        if canonical is None:
            raise ValueError(
                f"unknown policy kind {kind!r}; one of {self.names()}"
            )
        return self._infos[canonical]

    def canonical(self, kind: str) -> str:
        return self.get(kind).name

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._infos))

    def __contains__(self, kind: str) -> bool:
        return kind in self._resolve

    def __iter__(self) -> Any:
        return iter(self._infos.values())


#: The process-wide registry all schedulers register into.
REGISTRY = PolicyRegistry()


def register_scheduler(scheduler: type["IOScheduler"]) -> PolicyInfo:
    """Register a scheduler class (called by ``IOScheduler.__init_subclass__``)."""
    return REGISTRY.register(scheduler)


def get_policy(kind: str) -> PolicyInfo:
    """Resolve a policy kind (or alias) to its registry entry."""
    return REGISTRY.get(kind)


def policy_names() -> tuple[str, ...]:
    """Canonical names of every registered policy."""
    return REGISTRY.names()
