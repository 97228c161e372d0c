"""Per-layer wall-clock split of one scenario run, by runtime wrappers.

A layer is one ``repro.<package>``.  :meth:`LayerTracer.install` wraps,
at class level and before any cluster is built, the entry points each
layer offers to the others and the engine callbacks it registers.  Every
wrapped call opens a span on one shared stack; a layer's self time is
the duration of its spans minus the part their child spans cover.  Time
inside ``Simulator.run`` that no span covers (event dispatch, queue
pops, condition callbacks) is therefore ``simcore`` self time.

Three kinds of wrapper:

* plain functions and methods — one span per call;
* ``Process._resume`` — one span per resume, charged to the package
  that defines the resumed generator's code;
* public generator functions (``DFSClient.read_file``, ...) — the call
  returns a proxy whose ``send``/``throw`` steps are timed as spans of
  the generator's layer, so work a task delegates with ``yield from``
  is charged to the layer that does it.

Helpers called millions of times inside one layer (``_eligible``,
``_advance``) are not wrapped: their cost stays in the caller's span,
and wrapping them would multiply the tracing overhead.  Wrappers only
time and count; they return what the wrapped code returns, so a traced
run reproduces the untraced ``metrics_hash``.

Installing is a one-way, whole-process change: run it in a process that
runs exactly one traced scenario (the benchmark's child process does).
"""

from __future__ import annotations

import functools
import importlib
import pathlib
import time
from collections import defaultdict

__all__ = ["LAYERS", "LayerTracer"]

LAYERS = (
    "simcore", "storage", "core", "dataplane", "yarnsim", "mapreduce",
    "hdfs", "localfs", "net", "telemetry", "faults", "hive", "scenario",
)

#: (module, class, attributes, layer): calls timed as spans.
_SPANS = (
    ("repro.simcore.engine", "Simulator", ("run",), "simcore"),
    ("repro.storage.device", "StorageDevice",
     ("submit", "_on_tick", "_on_storm_boundary", "set_rate_factor", "fail",
      "repair"), "storage"),
    ("repro.core.base", "IOScheduler",
     ("submit", "cancel", "_on_device_event"), "core"),
    ("repro.core.base", "SchedulerStats", ("_on_completed",), "core"),
    ("repro.core.sfqd2", "SFQD2Scheduler", ("_control_tick",), "core"),
    ("repro.core.broker", "BrokerClient", ("_tick", "restart"), "core"),
    ("repro.core.broker", "SchedulingBroker", ("set_down",), "core"),
    ("repro.core.interposition", "DataNodeIO", ("submit",), "core"),
    ("repro.dataplane.path", "IOPath", ("submit",), "dataplane"),
    ("repro.dataplane.request", "IORequest", ("__init__",), "dataplane"),
    ("repro.dataplane.scope", "CancelScope", ("cancel",), "dataplane"),
    ("repro.dataplane.spans", "SpanRecorder", ("_on_span",), "dataplane"),
    ("repro.yarnsim.resourcemanager", "ResourceManager",
     ("request_container", "release_container", "register_app",
      "unregister_app", "node_down", "node_up"), "yarnsim"),
    ("repro.hdfs.namenode", "NameNode",
     ("lookup", "create_file", "node_down", "node_up"), "hdfs"),
    ("repro.net.fabric", "NetFabric", ("transfer",), "net"),
    ("repro.telemetry.bus", "TelemetryBus", ("publish",), "telemetry"),
    ("repro.faults.injector", "FaultInjector",
     ("arm", "_fire", "_node_recover", "watch_task", "alive"), "faults"),
    ("repro.scenario.runner", "ScenarioRunner", ("run",), "scenario"),
    # Module-level names, patched where the caller looks them up.
    ("repro.scenario.runner", None, ("run_query",), "hive"),
)

#: (module, class, generator methods, layer): calls return a traced proxy.
_GENERATORS = (
    ("repro.hdfs.client", "DFSClient", ("read_file", "write_file"), "hdfs"),
    ("repro.hdfs.datanode", "BlockService",
     ("read_block", "write_block"), "hdfs"),
    ("repro.localfs.filesystem", "LocalFS",
     ("write", "read", "servlet_read"), "localfs"),
)

#: (module, class, attributes): calls counted but not timed (they run
#: inside a span of their own layer already).
_COUNTED = (
    ("repro.storage.device", "StorageDevice", ("_reschedule",)),
    ("repro.core.sfqd2", "DepthController", ("update",)),
    ("repro.core.broker", "BrokerClient", ("sync",)),
    ("repro.mapreduce.appmaster", None, ("run_map_task", "run_reduce_task")),
)


def _layer_of_file(filename: str) -> str:
    """The layer owning a source file; code outside a layer package
    (``repro/cluster.py``, ``repro/workloads``) is testbed wiring and
    counts as ``scenario``."""
    parts = pathlib.PurePath(filename).parts
    if len(parts) >= 3 and parts[-3] == "repro" and parts[-2] in LAYERS:
        return parts[-2]
    return "scenario"


class _TracedGenerator:
    """A generator stand-in whose steps run inside a layer span."""

    __slots__ = ("_gen", "_step")

    def __init__(self, gen, step):
        self._gen = gen
        self._step = step

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self._gen.send, None)

    def send(self, value):
        return self._step(self._gen.send, value)

    def throw(self, *exc):
        return self._step(self._gen.throw, *exc)

    def close(self):
        return self._gen.close()


def _call(method, *args):
    return method(*args)


class LayerTracer:
    """Span stack plus per-layer self time, span counts and work counts."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: calls per wrapped function, keyed ``Class.method``
        self.counts: dict[str, int] = defaultdict(int)
        #: inclusive time inside ``ResourceManager._allocate``
        self.allocate_s = 0.0
        #: sum of ``len(_pending)`` at each ``_allocate`` entry
        self.pending_total = 0
        #: the cluster the traced run built (for queue push counts)
        self.cluster = None
        # A sentinel frame keeps ``stack[-1]`` valid for top-level spans.
        self._stack: list[list[float]] = [[0.0]]

    # ------------------------------------------------------------ wrappers
    def span(self, layer: str, fn, name: str = ""):
        """``fn`` wrapped so each call is a span of ``layer`` (and, with
        ``name``, counted under that name)."""
        stack, self_s, calls, counts = (
            self._stack, self.self_s, self.calls, self.counts)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name:
                counts[name] += 1
            calls[layer] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                stack[-1][0] += dt

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def generator(self, layer: str, fn, name: str):
        step = self.span(layer, _call)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return _TracedGenerator(fn(*args, **kwargs), step)

        return wrapper

    def resume(self, fn):
        """``Process._resume``, charged to the resumed generator's layer."""
        spans = {layer: self.span(layer, fn) for layer in LAYERS}
        span_of_code: dict = {}

        @functools.wraps(fn)
        def _resume(proc, trigger):
            code = proc._gen.gi_code
            span = span_of_code.get(code)
            if span is None:
                span = span_of_code[code] = spans[
                    _layer_of_file(code.co_filename)]
            return span(proc, trigger)

        return _resume

    # ------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every listed entry point (once per process)."""

        def targets(table):
            """(owner, attribute, count name, rest of row) per entry."""
            for module, cls, attrs, *rest in table:
                owner = importlib.import_module(module)
                if cls:
                    owner = getattr(owner, cls)
                for attr in attrs:
                    yield (owner, attr,
                           f"{cls or module.rsplit('.', 1)[-1]}.{attr}", rest)

        for owner, attr, name, (layer,) in targets(_SPANS):
            setattr(owner, attr, self.span(layer, getattr(owner, attr), name))
        for owner, attr, name, (layer,) in targets(_GENERATORS):
            setattr(owner, attr,
                    self.generator(layer, getattr(owner, attr), name))
        for owner, attr, name, _ in targets(_COUNTED):
            setattr(owner, attr, self.count(name, getattr(owner, attr)))

        from repro.scenario.runner import ScenarioRunner
        from repro.simcore.engine import Process
        from repro.yarnsim.resourcemanager import ResourceManager

        Process._resume = self.resume(Process._resume)

        allocate = ResourceManager._allocate

        def _allocate(rm):
            self.pending_total += len(rm._pending)
            t0 = time.perf_counter()
            try:
                return allocate(rm)
            finally:
                self.allocate_s += time.perf_counter() - t0

        ResourceManager._allocate = self.span(
            "yarnsim", _allocate, "ResourceManager._allocate")

        materialise = ScenarioRunner.materialise

        def capture(runner, scenario):
            self.cluster = materialise(runner, scenario)
            return self.cluster

        ScenarioRunner.materialise = capture

    # ------------------------------------------------------------- results
    def metrics(self, traced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced run, keyed by metric name.

        ``traced_wall_s`` is the traced ``run_scenario`` wall time, the
        denominator of every ``<layer>.share``.
        """
        c = self.counts
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.share"] = self.self_s[layer] / traced_wall_s
            out[f"{layer}.calls"] = self.calls[layer]
        events = self.cluster.sim._queue._seq
        submits = c["StorageDevice.submit"]
        allocs = c["ResourceManager._allocate"]
        out.update({
            "simcore.events": events,
            "simcore.us_per_event": (
                1e6 * self.self_s["simcore"] / events if events else 0.0),
            "storage.requests": submits,
            "storage.reschedules_per_request": (
                c["StorageDevice._reschedule"] / submits if submits else 0.0),
            "core.requests": c["IOScheduler.submit"],
            "core.broker_syncs": c["BrokerClient.sync"],
            "core.depth_updates": c["DepthController.update"],
            "dataplane.requests": c["IOPath.submit"],
            "yarnsim.container_requests": c["ResourceManager.request_container"],
            "yarnsim.allocate_calls": allocs,
            "yarnsim.pending_per_allocate": (
                self.pending_total / allocs if allocs else 0.0),
            "yarnsim.allocate_s": self.allocate_s,
            "mapreduce.tasks": (
                c["appmaster.run_map_task"] + c["appmaster.run_reduce_task"]),
            "hdfs.block_reads": c["BlockService.read_block"],
            "hdfs.block_writes": c["BlockService.write_block"],
            "localfs.ops": (c["LocalFS.write"] + c["LocalFS.read"]
                            + c["LocalFS.servlet_read"]),
            "net.transfers": c["NetFabric.transfer"],
            "telemetry.published": c["TelemetryBus.publish"],
        })
        return out
