"""Grid sweeps over declarative scenarios.

A sweep is a dotted key path into the scenario's dict form plus a list
of values — ``cluster.seed=1,2,3`` or
``workload.jobs.0.io_weight=1,8,32``.  Several sweeps combine as a
cartesian grid; each grid point is a full :class:`Scenario` (re-parsed,
so every variant is validated and hashed independently) whose name is
suffixed with its coordinates.  The variants are independent runs, so
the experiment CLI fans them out over the shared worker pool.
"""

from __future__ import annotations

import copy
import itertools
import json
from typing import Any, Mapping, Sequence

from repro.scenario.spec import Scenario

__all__ = ["apply_override", "expand_grid", "parse_sweep", "sweep_scenarios"]


def parse_sweep(text: str) -> tuple[str, list[Any]]:
    """Parse ``path=v1,v2,...``; values are JSON literals when they
    parse (numbers, booleans, null) and strings otherwise."""
    path, sep, raw = text.partition("=")
    if not sep or not path or not raw:
        raise ValueError(
            f"sweep must look like key.path=v1,v2,... — got {text!r}"
        )

    def parse_value(token: str) -> Any:
        try:
            return json.loads(token)
        except json.JSONDecodeError:
            return token

    return path, [parse_value(tok) for tok in raw.split(",")]


def apply_override(data: Mapping[str, Any], path: str, value: Any) -> dict:
    """A deep copy of ``data`` with ``path`` (dots descend into dicts,
    integers index lists) replaced by ``value``."""
    out = copy.deepcopy(dict(data))
    keys = path.split(".")
    node: Any = out
    for i, key in enumerate(keys[:-1]):
        node = _descend(node, key, path)
        if not isinstance(node, (dict, list)):
            raise ValueError(
                f"sweep path {path!r}: {'.'.join(keys[: i + 1])!r} is a leaf"
            )
    leaf = keys[-1]
    if isinstance(node, list):
        node[_index(leaf, node, path)] = value
    else:
        if leaf not in node:
            # Same rule as descent: a typo'd leaf must not silently add
            # a field the spec parser would then reject (or ignore).
            raise KeyError(
                f"sweep path {path!r}: no key {leaf!r} (have {sorted(node)})"
            )
        node[leaf] = value
    return out


def _descend(node: Any, key: str, path: str) -> Any:
    if isinstance(node, list):
        return node[_index(key, node, path)]
    if isinstance(node, dict):
        if key not in node:
            # Creating intermediate dicts would silently typo-fork the
            # spec; unknown keys must name something already present.
            raise KeyError(
                f"sweep path {path!r}: no key {key!r} "
                f"(have {sorted(node)})"
            )
        return node[key]
    raise ValueError(f"sweep path {path!r}: cannot descend into {key!r}")


def _index(key: str, node: Sequence, path: str) -> int:
    try:
        idx = int(key)
    except ValueError:
        raise ValueError(
            f"sweep path {path!r}: list index expected, got {key!r}"
        ) from None
    if not (-len(node) <= idx < len(node)):
        raise IndexError(
            f"sweep path {path!r}: index {idx} out of range "
            f"(length {len(node)})"
        )
    return idx


def expand_grid(
    data: Mapping[str, Any], sweeps: Sequence[tuple[str, Sequence[Any]]]
) -> list[tuple[dict[str, Any], dict]]:
    """All grid points: (assignment, scenario dict) per combination, in
    row-major order of the given sweeps.  No sweeps: the base alone."""
    if not sweeps:
        return [({}, copy.deepcopy(dict(data)))]
    out = []
    axes = [[(path, v) for v in values] for path, values in sweeps]
    for combo in itertools.product(*axes):
        variant = dict(data)
        for path, value in combo:
            variant = apply_override(variant, path, value)
        out.append((dict(combo), variant))
    return out


def sweep_scenarios(
    data: Mapping[str, Any], sweeps: Sequence[tuple[str, Sequence[Any]]]
) -> list[Scenario]:
    """Expand a scenario dict into named, validated grid variants."""
    scenarios = []
    for assignment, variant in expand_grid(data, sweeps):
        scenario = Scenario.from_dict(variant)
        if assignment:
            suffix = ",".join(f"{k}={v}" for k, v in assignment.items())
            scenario = scenario.renamed(f"{scenario.name}[{suffix}]")
        scenarios.append(scenario)
    return scenarios
