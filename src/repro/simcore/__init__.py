"""Discrete-event simulation core.

A small, dependency-free discrete-event engine in the style of SimPy:
generator-coroutine processes scheduled over a same-instant FIFO and a
queue of later events keyed by due time, with deterministic
tie-breaking, counting resources, gates, and instrumentation
primitives (time series, rate meters).

Everything in the IBIS reproduction — storage devices, HDFS, YARN,
MapReduce tasks, and the IBIS schedulers themselves — runs on this engine.
"""

from repro.simcore.engine import (
    Event,
    FaultError,
    Interrupt,
    Process,
    RequestCancelled,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.simcore.instrument import RateMeter, TimeSeries
from repro.simcore.resources import Gate, Resource
from repro.simcore.rng import RngRegistry

__all__ = [
    "Event",
    "FaultError",
    "Gate",
    "Interrupt",
    "Process",
    "RateMeter",
    "RequestCancelled",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "TimeSeries",
    "Timeout",
]
