"""Configuration: units, storage profiles, and cluster presets.

Mirrors the paper's testbed (§7.1, Table 1): nine nodes — eight workers
with two six-core CPUs, 32 GB RAM and two disks each (HDFS data and
intermediate data on separate spindles), plus one master running the
Resource Manager, Name Node and the IBIS Scheduling Broker.

All experiments run at a configurable ``scale`` so a laptop-sized
simulation finishes in seconds while preserving the relative shapes of
the paper's results.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "StorageProfile",
    "HDD_PROFILE",
    "SSD_PROFILE",
    "STORAGE_PROFILES",
    "ClusterConfig",
    "YarnConfig",
    "default_cluster",
    "known_fields",
]

# Binary units, matching Table 1's dfs.block.size = 134,217,728.
KB = 1 << 10
MB = 1 << 20
GB = 1 << 30
TB = 1 << 40

_INF = float("inf")


def known_fields(cls: type, data: Mapping[str, Any]) -> dict[str, Any]:
    """``data`` as a new dict, once every key names a field of dataclass
    ``cls``: a typo in a spec file fails with a ``ValueError`` naming
    the key rather than a bare ``TypeError`` from the constructor."""
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return dict(data)


@dataclass(frozen=True)
class StorageProfile:
    """Parameters of the processor-sharing storage device model.

    The device performs *work* (bytes, weighted per operation) at an
    aggregate rate ``W(n) = peak_rate * n / (n + n_half)`` when ``n``
    requests are in service, shared equally.  This yields throughput
    that saturates with concurrency while latency keeps growing — the
    exact trade-off the SFQ(D) depth parameter exposes (§4).

    ``write_cost`` > 1 models flash read/write asymmetry: a write of
    ``b`` bytes contributes ``b * write_cost`` work.  ``request_overhead``
    is fixed extra work per request (seek/command overhead).

    The write-back model: every ``flush_threshold`` bytes written, the
    device enters a *flush storm* for ``flush_duration`` seconds during
    which its rate is multiplied by ``flush_factor`` — reproducing the
    foreground-flush latency spikes of Fig. 7.
    """

    name: str
    peak_rate: float           # aggregate work units (bytes) per second
    n_half: float              # concurrency at which W(n) = peak/2... (sat. knee)
    read_cost: float = 1.0     # work units per byte read
    write_cost: float = 1.0    # work units per byte written
    request_overhead: float = 0.0  # fixed work units per request
    flush_threshold: float = 0.0   # bytes written per storm; 0 disables
    flush_duration: float = 0.0    # seconds of degraded service
    flush_factor: float = 1.0      # rate multiplier during a storm
    # Service discipline for in-flight requests:
    #   "fcfs" — requests are serviced serially in arrival order at the
    #            aggregate rate W(n) (a disk head: outstanding requests
    #            raise elevator efficiency, but one transfers at a time).
    #   "ps"   — equal processor sharing of W(n) (a network pipe).
    discipline: str = "ps"

    def __post_init__(self):
        # `< _INF` also rejects NaN.
        for name in ("peak_rate", "read_cost", "write_cost"):
            value = getattr(self, name)
            if not 0 < value < _INF:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("n_half", "request_overhead", "flush_duration"):
            value = getattr(self, name)
            if not 0 <= value < _INF:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        # An infinite threshold is a device that never storms.
        if not self.flush_threshold >= 0:
            raise ValueError(
                f"flush_threshold must be >= 0, got {self.flush_threshold}")
        if not (0 < self.flush_factor <= 1.0):
            raise ValueError("flush_factor must be in (0, 1]")
        if self.discipline not in ("ps", "fcfs"):
            raise ValueError(f"unknown discipline {self.discipline!r}")

    def rate_at(self, n: int) -> float:
        """Aggregate service rate with ``n`` requests in flight."""
        if n <= 0:
            return 0.0
        return self.peak_rate * n / (n + self.n_half)

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        """Canonical dict form (every field explicit, JSON-ready)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: "Mapping[str, Any] | str") -> "StorageProfile":
        """Build from a full field dict, or a named preset (``"hdd"``)."""
        if isinstance(data, str):
            try:
                return STORAGE_PROFILES[data]
            except KeyError:
                raise ValueError(
                    f"unknown storage profile {data!r}; "
                    f"expected one of {sorted(STORAGE_PROFILES)}"
                ) from None
        return cls(**known_fields(cls, data))


# A 7.2K RPM SAS disk: ~160 MB/s streaming at depth, noticeable
# per-request positioning overhead, symmetric read/write, and page-cache
# flush storms (Fig. 7's ~260 s and ~790 s spikes).
HDD_PROFILE = StorageProfile(
    name="hdd",
    peak_rate=160.0 * MB,
    n_half=0.4,
    read_cost=1.0,
    write_cost=1.0,
    request_overhead=0.375 * MB,  # ~6 ms positioning at 60 MB/s effective
    flush_threshold=3.0 * GB,
    flush_duration=4.0,
    flush_factor=0.3,
    discipline="fcfs",
)

# An Intel 120 GB MLC SATA SSD: fast reads, much slower writes
# (write_cost = 3 → effective ~140 MB/s writes vs ~420 MB/s reads),
# minimal per-request overhead, shallow saturation knee, no flush storms.
SSD_PROFILE = StorageProfile(
    name="ssd",
    peak_rate=420.0 * MB,
    n_half=0.3,
    read_cost=1.0,
    write_cost=3.0,
    request_overhead=0.02 * MB,
    discipline="fcfs",
)

#: Named presets accepted wherever a profile is given declaratively
#: (scenario JSON, the experiment CLI's ``--storage`` flag).
STORAGE_PROFILES: dict[str, StorageProfile] = {
    "hdd": HDD_PROFILE,
    "ssd": SSD_PROFILE,
}


@dataclass(frozen=True)
class YarnConfig:
    """Table 1 plus the per-task container sizes from §7.1."""

    dfs_replication: int = 3
    dfs_block_size: int = 134_217_728  # Table 1, bytes
    fairscheduler_preemption: bool = True
    preemption_timeout: float = 5.0    # seconds, Table 1
    map_task_vcores: int = 1
    map_task_memory: int = 2 * GB
    reduce_task_vcores: int = 1
    reduce_task_memory: int = 8 * GB
    heartbeat_interval: float = 1.0    # NM -> RM heartbeat (piggybacks broker)
    max_task_attempts: int = 4         # mapreduce.map/reduce.maxattempts

    def __post_init__(self):
        for name in ("map_task_vcores", "map_task_memory",
                     "reduce_task_vcores", "reduce_task_memory",
                     "dfs_block_size"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        for name in ("dfs_replication", "max_task_attempts"):
            value = getattr(self, name)
            if not value >= 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "YarnConfig":
        return cls(**known_fields(cls, data))


@dataclass(frozen=True)
class ClusterConfig:
    """The simulated testbed."""

    n_workers: int = 8
    cores_per_node: int = 12
    memory_per_node: int = 32 * GB
    alloc_memory_per_node: int = 24 * GB    # YARN-allocatable (192GB total, §7.1)
    storage: StorageProfile = HDD_PROFILE
    nic_bandwidth: float = 125.0 * MB       # Gigabit Ethernet
    io_chunk: int = 4 * MB                  # request granularity
    # Per-stream pipelining: HDFS clients keep several packets in flight
    # (readahead on reads, write-behind on writes).  This is what lets an
    # uncontrolled aggressive writer flood the storage on native Hadoop
    # ("TeraGen's I/Os are sent to storage as soon as they come", §7.2).
    read_window: int = 2
    write_window: int = 6
    yarn: YarnConfig = field(default_factory=YarnConfig)
    scale: float = 1.0                      # data-volume scale factor
    block_scale: float = 0.125              # block-size scale (keeps task waves sane)
    seed: int = 20160531

    def __post_init__(self):
        if self.n_workers <= 0 or self.cores_per_node <= 0:
            raise ValueError("cluster must have workers and cores")
        if not (0 < self.scale <= 1.0):
            raise ValueError("scale must be in (0, 1]")
        if not (0 < self.block_scale <= 1.0):
            raise ValueError("block_scale must be in (0, 1]")
        if self.io_chunk <= 0:
            raise ValueError("io_chunk must be positive")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {seed!r}")
        if not 0 < self.nic_bandwidth < _INF:  # also rejects NaN
            raise ValueError(
                f"nic_bandwidth must be finite and > 0, got {self.nic_bandwidth}")
        for name in ("read_window", "write_window"):
            value = getattr(self, name)
            if not value >= 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        yarn = self.yarn
        memory = max(yarn.map_task_memory, yarn.reduce_task_memory)
        if self.alloc_memory_per_node < memory:
            raise ValueError(
                f"alloc_memory_per_node must hold the largest task container "
                f"({memory} bytes), got {self.alloc_memory_per_node}")
        vcores = max(yarn.map_task_vcores, yarn.reduce_task_vcores)
        if self.cores_per_node < vcores:
            raise ValueError(
                f"cores_per_node must hold the largest task container "
                f"({vcores} vcores), got {self.cores_per_node}")

    @property
    def sim_block_size(self) -> int:
        """HDFS block size after scaling, never below one I/O chunk."""
        return max(self.io_chunk, int(self.yarn.dfs_block_size * self.block_scale))

    def scaled(self, nbytes: float) -> int:
        """Scale a paper-sized data volume down to simulation size."""
        return max(self.io_chunk, int(nbytes * self.scale))

    def with_storage(self, profile: StorageProfile) -> "ClusterConfig":
        return replace(self, storage=profile)

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        """Canonical dict form: every field explicit, nested dataclasses
        expanded — so equal configurations always serialize identically
        (the scenario layer's content hash relies on this)."""
        out = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in ("storage", "yarn")
        }
        out["storage"] = self.storage.to_dict()
        out["yarn"] = self.yarn.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterConfig":
        """Inverse of :meth:`to_dict`.  Omitted fields keep their
        defaults; ``storage`` also accepts a preset name (``"hdd"``)."""
        payload = known_fields(cls, data)
        if "storage" in payload:
            payload["storage"] = StorageProfile.from_dict(payload["storage"])
        if "yarn" in payload and not isinstance(payload["yarn"], YarnConfig):
            payload["yarn"] = YarnConfig.from_dict(payload["yarn"])
        return cls(**payload)


def default_cluster(
    scale: float = 1.0 / 64.0,
    storage: StorageProfile = HDD_PROFILE,
    seed: int = 20160531,
) -> ClusterConfig:
    """The paper's 8-worker testbed at simulation scale."""
    return ClusterConfig(storage=storage, scale=scale, seed=seed)
