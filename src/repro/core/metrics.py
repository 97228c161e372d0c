"""Performance metrics used throughout the evaluation (§7).

* slowdown / relative performance w.r.t. standalone runtimes,
* per-app service summed across schedulers (the A_i of §5).
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = [
    "aggregate_service",
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


def aggregate_service(stat_dicts: Iterable[Mapping[str, float]]) -> dict[str, float]:
    """Sum per-app service over many schedulers (the A_i of §5)."""
    out: dict[str, float] = {}
    for d in stat_dicts:
        for app, amount in d.items():
            out[app] = out.get(app, 0.0) + amount
    return out
