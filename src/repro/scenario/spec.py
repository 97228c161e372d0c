"""Declarative scenarios: one canonical spec for a whole run.

A :class:`Scenario` composes the repo's canonical-JSON pieces — a
:class:`~repro.config.ClusterConfig`, a
:class:`~repro.core.NodePolicy`, an optional
:class:`~repro.faults.FaultPlan` — with the two declarative specs this
module adds:

* :class:`WorkloadSpec` — what runs: input preloads plus an ordered
  list of :class:`JobEntry` submissions (benchmark apps, Hive queries,
  SWIM trace replays) with weights, cores and submit times;
* :class:`MeasurementSpec` — how the run ends (``until`` jobs or a
  fixed ``horizon``) and which metrics the runner collects.

Everything round-trips through canonical JSON (sorted keys, no
whitespace), so a scenario has a stable :meth:`~Scenario.content_hash`:
two specs that mean the same run hash identically regardless of key
order, and a run manifest can name exactly the spec that produced it.

The spec is pure data; materialising and running it is
:class:`~repro.scenario.runner.ScenarioRunner`'s job.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, Optional

from repro.config import ClusterConfig
from repro.core import NodePolicy, PolicySpec, canonical_json, policy_from_dict
from repro.faults import FaultPlan
from repro.workloads import APP_BUILDERS

__all__ = [
    "ENTRY_APPS",
    "JobEntry",
    "METRICS",
    "MeasurementSpec",
    "PreloadSpec",
    "Scenario",
    "WorkloadSpec",
    "load_scenario",
]

#: Applications a :class:`JobEntry` may name: the registered benchmark
#: builders plus the two composite kinds the runner expands itself.
ENTRY_APPS = tuple(sorted(APP_BUILDERS)) + ("hive", "swim")

#: Metrics a :class:`MeasurementSpec` may request.
METRICS = (
    "runtime",           # per-job rows: submit/finish/runtime
    "throughput_mbs",    # aggregate storage MB/s over [0, window end)
    "service",           # per-job scheduled bytes over [0, window end)
    "total_service",     # per-app total service (coordination studies)
    "fault_counters",    # replica failovers / task retries / orphans
    "scheduler_stats",   # request counts + broker traffic (Tab. 2)
    "device_series",     # per-second read/write MB/s series (Fig. 2)
    "depth_trace",       # SFQ(D2) depth + latency trace (Fig. 7)
    "latency",           # per-(app, class) queue-wait/service percentiles
)

#: Where a windowed metric's observation window ends.
WINDOWS = ("run", "min_finish", "until_finish")


def _freeze_params(params: Mapping[str, Any]) -> dict[str, Any]:
    # Round-trip through canonical JSON so a params dict can only hold
    # JSON-able values (anything else would break the content hash).
    try:
        return json.loads(canonical_json(dict(params)))
    except TypeError as exc:
        raise ValueError(f"params must be JSON-serialisable: {exc}") from None


def _from_known_fields(cls, data: Mapping[str, Any]):
    known = {f.name for f in fields(cls)}
    extra = set(data) - known
    if extra:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(extra)}")
    return cls(**dict(data))


@dataclass(frozen=True)
class PreloadSpec:
    """One pre-materialised HDFS input file.

    ``nbytes`` is paper-scale (the cluster scales it down internally);
    ``nodes`` restricts placement to a subset of datanodes to induce
    skewed data distribution (Fig. 12), empty meaning all nodes.
    """

    path: str
    nbytes: float
    nodes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("preload needs a path")
        if self.nbytes <= 0:
            raise ValueError(f"preload {self.path!r} needs nbytes > 0")
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"path": self.path, "nbytes": self.nbytes}
        if self.nodes:
            out["nodes"] = list(self.nodes)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PreloadSpec":
        return _from_known_fields(cls, data)


@dataclass(frozen=True)
class JobEntry:
    """One submission: an application, its share, and when it arrives.

    ``app`` names a registered workload builder (``terasort``, ...), a
    Hive query chain (``hive``, with ``params["query"]``) or a SWIM
    trace replay (``swim``, expanded to its sampled jobs).  ``params``
    are extra builder keyword arguments (``input_path``,
    ``input_bytes``, ``output_bytes``, ``n_reduces``, ...).

    ``name`` is the entry's key within the scenario — referenced by
    ``MeasurementSpec.until`` and reported in manifest rows; it defaults
    to ``app`` and doubles as the job name for the benchmark builders.
    """

    app: str
    name: str = ""
    io_weight: float = 1.0
    cpu_weight: float = 1.0
    max_cores: Optional[int] = None
    submit_at: float = 0.0
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.app not in ENTRY_APPS:
            raise ValueError(
                f"unknown app {self.app!r}; expected one of {ENTRY_APPS}"
            )
        if self.io_weight <= 0 or self.cpu_weight <= 0:
            raise ValueError(f"entry {self.key!r}: weights must be positive")
        if self.max_cores is not None and self.max_cores <= 0:
            raise ValueError(f"entry {self.key!r}: max_cores must be positive")
        if not 0 <= self.submit_at < float("inf"):  # also rejects NaN
            raise ValueError(
                f"entry {self.key!r}: submit_at must be finite and >= 0, "
                f"got {self.submit_at}"
            )
        if self.app == "hive" and "query" not in self.params:
            raise ValueError("hive entries need params['query']")
        object.__setattr__(self, "params", _freeze_params(self.params))

    @property
    def key(self) -> str:
        """The entry's name within the scenario (rows, ``until`` refs)."""
        return self.name or self.app

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"app": self.app}
        if self.name:
            out["name"] = self.name
        if self.io_weight != 1.0:
            out["io_weight"] = self.io_weight
        if self.cpu_weight != 1.0:
            out["cpu_weight"] = self.cpu_weight
        if self.max_cores is not None:
            out["max_cores"] = self.max_cores
        if self.submit_at:
            out["submit_at"] = self.submit_at
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobEntry":
        return _from_known_fields(cls, data)


@dataclass(frozen=True)
class WorkloadSpec:
    """The run's inputs and submissions, in execution order."""

    jobs: tuple[JobEntry, ...]
    preloads: tuple[PreloadSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))
        object.__setattr__(self, "preloads", tuple(self.preloads))
        if not self.jobs:
            raise ValueError("a workload needs at least one job entry")
        keys = [e.key for e in self.jobs]
        dupes = {k for k in keys if keys.count(k) > 1}
        if dupes:
            raise ValueError(
                f"job entry names must be unique; duplicated: {sorted(dupes)}"
            )

    def entry(self, key: str) -> JobEntry:
        for e in self.jobs:
            if e.key == key:
                return e
        raise KeyError(
            f"no job entry named {key!r}; have {[e.key for e in self.jobs]}"
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"jobs": [e.to_dict() for e in self.jobs]}
        if self.preloads:
            out["preloads"] = [p.to_dict() for p in self.preloads]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        payload = dict(data)
        jobs = tuple(
            e if isinstance(e, JobEntry) else JobEntry.from_dict(e)
            for e in payload.pop("jobs", ())
        )
        preloads = tuple(
            p if isinstance(p, PreloadSpec) else PreloadSpec.from_dict(p)
            for p in payload.pop("preloads", ())
        )
        if payload:
            raise ValueError(f"unknown WorkloadSpec fields: {sorted(payload)}")
        return cls(jobs=jobs, preloads=preloads)


@dataclass(frozen=True)
class MeasurementSpec:
    """How a run ends and what the manifest reports.

    * ``until`` — run until these entries finish (empty: until every
      submitted job finishes); ``horizon > 0`` instead runs for a fixed
      window of simulated seconds (Fig. 12's service-ratio probe).
    * ``metrics`` — which collectors the runner attaches (see
      :data:`METRICS`).
    * ``window`` — where windowed metrics (throughput, service) stop
      integrating: end of the run, the earliest job finish, or the
      first ``until`` entry's finish.
    * ``options`` — per-metric parameters (e.g. ``depth_source`` for
      the depth trace).
    """

    until: tuple[str, ...] = ()
    horizon: float = 0.0
    metrics: tuple[str, ...] = ("runtime",)
    window: str = "run"
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "until", tuple(self.until))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        unknown = set(self.metrics) - set(METRICS)
        if unknown:
            raise ValueError(
                f"unknown metrics {sorted(unknown)}; expected among {METRICS}"
            )
        if self.window not in WINDOWS:
            raise ValueError(
                f"window must be one of {WINDOWS}, got {self.window!r}"
            )
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.horizon > 0 and self.until:
            raise ValueError("horizon and until are mutually exclusive")
        if self.window == "until_finish" and not self.until:
            raise ValueError("window 'until_finish' needs until entries")
        object.__setattr__(self, "options", _freeze_params(self.options))

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"metrics": list(self.metrics)}
        if self.until:
            out["until"] = list(self.until)
        if self.horizon:
            out["horizon"] = self.horizon
        if self.window != "run":
            out["window"] = self.window
        if self.options:
            out["options"] = dict(self.options)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MeasurementSpec":
        return _from_known_fields(cls, data)


def _resolve_policy(
    data: "Mapping[str, Any] | PolicySpec | NodePolicy", config: ClusterConfig
) -> NodePolicy:
    """Parse a declarative policy into a concrete :class:`NodePolicy`.

    JSON sugar: a spec whose ``controller`` is the string ``"auto"``
    gets the §4-calibrated :class:`DepthController` for ``config``'s
    storage profile (via the shared calibration cache) — so scenario
    files need not embed calibration constants.  ``to_dict`` always
    emits the resolved controller, so hashes are calibration-explicit.
    """
    if isinstance(data, (PolicySpec, NodePolicy)):
        return NodePolicy.coerce(data)

    def resolve_auto(spec_dict: Mapping[str, Any]) -> dict[str, Any]:
        out = dict(spec_dict)
        if out.get("controller") == "auto":
            from repro.experiments.harness import controller_for

            out["controller"] = controller_for(config)
        return out

    payload = dict(data)
    if "kind" not in payload:
        payload = {k: resolve_auto(v) for k, v in payload.items()}
    else:
        payload = resolve_auto(payload)
    return NodePolicy.coerce(policy_from_dict(payload))


@dataclass(frozen=True)
class Scenario:
    """One runnable experiment, as data.

    ``policy`` accepts a bare :class:`PolicySpec` and stores it as the
    uniform :class:`NodePolicy`; ``faults`` is optional.  The canonical
    dict/JSON form is fully explicit (cluster defaults expanded,
    controllers resolved), so :meth:`content_hash` identifies the run
    semantics, not the authoring shorthand.
    """

    name: str
    cluster: ClusterConfig
    policy: NodePolicy
    workload: WorkloadSpec
    measure: MeasurementSpec = field(default_factory=MeasurementSpec)
    faults: Optional[FaultPlan] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        object.__setattr__(self, "policy", NodePolicy.coerce(self.policy))
        for key in self.measure.until:
            self.workload.entry(key)  # raises on dangling references

    # ------------------------------------------------------------ utility
    def renamed(self, name: str) -> "Scenario":
        """A copy under another name (sweep variants)."""
        return replace(self, name=name)

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "cluster": self.cluster.to_dict(),
            "policy": self.policy.to_dict(),
            "workload": self.workload.to_dict(),
            "measure": self.measure.to_dict(),
        }
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        payload = dict(data)
        known = {f.name for f in fields(cls)}
        extra = set(payload) - known
        if extra:
            raise ValueError(f"unknown Scenario fields: {sorted(extra)}")
        cluster = payload.get("cluster", {})
        if not isinstance(cluster, ClusterConfig):
            cluster = ClusterConfig.from_dict(cluster)
        policy = _resolve_policy(payload.get("policy", {"kind": "native"}),
                                 cluster)
        workload = payload["workload"]
        if not isinstance(workload, WorkloadSpec):
            workload = WorkloadSpec.from_dict(workload)
        measure = payload.get("measure", MeasurementSpec())
        if not isinstance(measure, MeasurementSpec):
            measure = MeasurementSpec.from_dict(measure)
        faults = payload.get("faults")
        if faults is not None and not isinstance(faults, FaultPlan):
            faults = FaultPlan.from_dict(faults)
        return cls(
            name=payload["name"],
            cluster=cluster,
            policy=policy,
            workload=workload,
            measure=measure,
            faults=faults,
            description=payload.get("description", ""),
        )

    def to_json(self) -> str:
        """Canonical JSON: equal scenarios serialise identically."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def content_hash(self) -> str:
        """Stable 16-hex digest of the canonical form — the identity a
        :class:`~repro.scenario.runner.RunManifest` records."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


def load_scenario(
    source: "str | pathlib.Path | Mapping[str, Any]",
) -> Scenario:
    """Load a scenario from a JSON file path, JSON text, or a dict.

    A string is treated as JSON when it starts with ``{`` and as a file
    path otherwise.
    """
    if isinstance(source, pathlib.Path):
        return Scenario.from_json(source.read_text())
    if isinstance(source, str):
        if source.lstrip().startswith("{"):
            return Scenario.from_json(source)
        return Scenario.from_json(pathlib.Path(source).read_text())
    return Scenario.from_dict(source)
