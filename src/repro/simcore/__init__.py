"""Discrete-event simulation core.

A small, dependency-free discrete-event engine in the style of SimPy:
generator-coroutine processes scheduled over a same-instant FIFO and
a bucketed event wheel, with deterministic tie-breaking, counting
resources, stores, and instrumentation primitives (time series, rate
meters).

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
from repro.simcore.instrument import Counter, RateMeter, TimeSeries
from repro.simcore.resources import Gate, Resource, Store
from repro.simcore.rng import RngRegistry
from repro.simcore.wheel import EventWheel

__all__ = [
    "Counter",
    "Event",
    "EventWheel",
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
    "Store",
    "TimeSeries",
    "Timeout",
]
