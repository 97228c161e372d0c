"""Shared experiment plumbing: result records and cached controllers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.config import ClusterConfig
from repro.core import DepthController
from repro.core.profiling import calibrate_controller

__all__ = ["ExperimentResult", "controller_for"]


@dataclass
class ExperimentResult:
    """What an experiment produced: named rows and optional series.

    ``rows`` is a list of dicts (one per bar/line of the figure);
    ``series`` maps a name to ``(times, values)`` pairs for
    time-series figures (Fig. 2, Fig. 7) and CDFs (Fig. 9).
    """

    name: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    series: dict[str, tuple[list[float], list[float]]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def row(self, **kv: Any) -> None:
        self.rows.append(kv)

    def find(self, **match: Any) -> dict[str, Any]:
        """The first row whose fields match (for assertions in tests).

        Raises a :class:`KeyError` that lists the keys and values the
        rows actually carry, so a typo'd case name fails with the menu
        of valid ones instead of a bare "no row matching".
        """
        for r in self.rows:
            if all(r.get(k) == v for k, v in match.items()):
                return r
        available: dict[str, list] = {}
        for r in self.rows:
            for key in match:
                if key in r and r[key] not in available.setdefault(key, []):
                    available[key].append(r[key])
        detail = (
            "; ".join(f"{k} in {vals}" for k, vals in available.items())
            if available
            else f"no row has any of {sorted(match)}; "
                 f"row keys: {sorted({k for r in self.rows for k in r})}"
        )
        raise KeyError(
            f"no row matching {match} in {self.name} "
            f"({len(self.rows)} rows; {detail})"
        )


# The §4 profiling procedure is deterministic per storage profile, so
# a process calibrates each setup once.  Forked workers inherit what the
# parent already calibrated, and figures and the scenario service ship
# the resolved controller inside each scenario.
_CONTROLLERS: dict[tuple, DepthController] = {}


def controller_for(config: ClusterConfig) -> DepthController:
    """``calibrate_controller``, memoised in this process per storage
    profile and chunk size (all the calibration reads of ``config``)."""
    key = (config.storage, config.io_chunk)
    ctrl = _CONTROLLERS.get(key)
    if ctrl is None:
        ctrl = _CONTROLLERS[key] = calibrate_controller(config)
    return ctrl
