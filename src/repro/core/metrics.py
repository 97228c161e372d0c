"""Performance metrics used throughout the evaluation (§7).

* slowdown / relative performance w.r.t. standalone runtimes,
* proportional-sharing error against assigned weights,
* Jain's fairness index over weighted service,
* aggregate throughput across schedulers/devices.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = [
    "aggregate_service",
    "jain_fairness",
    "proportional_share_error",
    "relative_performance",
    "slowdown",
]


def slowdown(runtime: float, standalone: float) -> float:
    """Fractional slowdown w.r.t. the standalone runtime (0.5 == 50%)."""
    if standalone <= 0:
        raise ValueError("standalone runtime must be positive")
    if runtime <= 0:
        raise ValueError("runtime must be positive")
    return runtime / standalone - 1.0


def relative_performance(runtime: float, standalone: float) -> float:
    """Standalone-relative performance in (0, 1]: 1.0 == no interference.

    This is the y-axis of Fig. 10 (``standalone / contended`` runtime).
    """
    if standalone <= 0 or runtime <= 0:
        raise ValueError("runtimes must be positive")
    return min(1.0, standalone / runtime) if runtime >= standalone else 1.0


def proportional_share_error(
    service: Mapping[str, float], weights: Mapping[str, float]
) -> float:
    """How far the realised service split is from the weight split.

    Returns max over apps of ``|share_observed − share_assigned|``;
    0 means perfect proportional sharing.  Apps absent from ``service``
    count as zero service.
    """
    if not weights:
        raise ValueError("weights must be non-empty")
    total_weight = sum(weights.values())
    total_service = sum(service.get(app, 0.0) for app in weights)
    if total_weight <= 0:
        raise ValueError("total weight must be positive")
    if total_service <= 0:
        raise ValueError("no service recorded for any weighted app")
    worst = 0.0
    for app, w in weights.items():
        observed = service.get(app, 0.0) / total_service
        assigned = w / total_weight
        worst = max(worst, abs(observed - assigned))
    return worst


def jain_fairness(values: Sequence[float] | Iterable[float]) -> float:
    """Jain's index: 1.0 = perfectly equal, 1/n = maximally unfair."""
    import numpy as np

    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("fairness of empty set")
    if (arr < 0).any():
        raise ValueError("fairness values must be non-negative")
    total = arr.sum()
    if total == 0:
        return 1.0  # nobody got anything: vacuously equal
    return float(total**2 / (arr.size * (arr**2).sum()))


def aggregate_service(stat_dicts: Iterable[Mapping[str, float]]) -> dict[str, float]:
    """Sum per-app service over many schedulers (the A_i of §5)."""
    out: dict[str, float] = {}
    for d in stat_dicts:
        for app, amount in d.items():
            out[app] = out.get(app, 0.0) + amount
    return out
