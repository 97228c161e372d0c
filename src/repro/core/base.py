"""Scheduler interface, shared accounting, and the native passthrough.

Every interposed scheduling point — the Data Node's HDFS path, the local
intermediate-I/O path, and the Node Manager's shuffle servlet — hosts
one :class:`IOScheduler` instance in front of a :class:`StorageDevice`.

Subclassing ``IOScheduler`` with an ``algorithm`` attribute files the
class under that name (and its ``aliases``), making it constructible
through :class:`~repro.core.policy.PolicySpec` without touching any
core code; :func:`policy_class` looks it up, and the class attributes
are its declared capabilities.  Every request's life cycle is published
as structured events on the scheduler's
:class:`~repro.telemetry.TelemetryBus` to whichever sinks subscribe;
:class:`SchedulerStats`, the scheduler's own accounting, is updated
directly before any of them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Optional

from repro.dataplane import IOClass, IORequest, LifecycleError, RequestState
from repro.simcore import Event, RateMeter, RequestCancelled, Simulator
from repro.storage import IOCompletion, StorageDevice
from repro.telemetry import (
    REQUEST_COMPLETED,
    REQUEST_DISPATCHED,
    REQUEST_SUBMITTED,
    SPAN,
    RequestCompleted,
    RequestDispatched,
    RequestSubmitted,
    Span,
    TelemetryBus,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.policy import PolicySpec

__all__ = ["IOScheduler", "NativeScheduler", "SchedulerStats", "policy_class"]

#: Every scheduler class that defines ``algorithm``, under that name and
#: under each of its ``aliases``.
_POLICIES: dict[str, type["IOScheduler"]] = {}


def policy_class(kind: str) -> type["IOScheduler"]:
    """The scheduler class filed under ``kind`` (an ``algorithm`` name
    or an alias); ``ValueError`` listing the valid names otherwise."""
    try:
        return _POLICIES[kind]
    except KeyError:
        names = tuple(sorted({cls.algorithm for cls in _POLICIES.values()}))
        raise ValueError(
            f"unknown policy kind {kind!r}; one of {names}"
        ) from None


class SchedulerStats:
    """Per-scheduler accounting, updated on every completed request: the
    one place a completed request is counted.

    The per-app service counters the Scheduling Broker reads (the
    ``a_ij`` of §5) and the last weight seen per app, plus one
    :class:`~repro.simcore.RateMeter` per ``(app, op)`` holding the
    time-stamped samples that windowed throughput, per-app service and
    the per-second rate series read.  Devices keep only byte totals.
    """

    def __init__(self, name: str):
        self.name = name
        # Bytes of I/O serviced per application (the a_ij of §5).
        self.service_by_app: dict[str, float] = defaultdict(float)
        # Completed-bytes meters per (app, op), built on first completion.
        self.meters: dict[tuple[str, str], RateMeter] = {}
        self.total_requests = 0
        # Last-seen weight per app (requests carry the weight in their tag).
        self.weight_by_app: dict[str, float] = {}

    def _on_completed(self, t: float, app: str, op: str, nbytes: int,
                      weight: float) -> None:
        self.service_by_app[app] += nbytes
        self.weight_by_app[app] = weight
        meter = self.meters.get((app, op))
        if meter is None:
            meter = self.meters[app, op] = RateMeter(f"{self.name}:{app}:{op}")
        meter.add(t, nbytes)
        self.total_requests += 1


class IOScheduler:
    """Base class: submit tagged requests, dispatch them to the device.

    Subclasses override :meth:`_enqueue` (and whatever dispatch machinery
    they need) and call :meth:`_dispatch_to_device` to start servicing a
    request.  The base class publishes the request life-cycle events and
    exposes the per-app service counters the Scheduling Broker reads.

    Class attributes double as the policy's capability declaration:

    * ``algorithm`` — canonical policy name (defining it in a subclass
      body files the class under it; a subclass that leaves it inherited
      is not filed);
    * ``aliases`` — alternative spec names resolving to this policy;
    * ``manages_classes`` — I/O classes the scheduler can manage; the
      interposition layer falls back to native for the rest;
    * ``supports_coordination`` — implements ``add_start_delay`` (§5);
    * ``required_params`` — :class:`PolicySpec` fields/params that must
      be present to construct this scheduler.
    """

    #: human-readable algorithm name, overridden by subclasses
    algorithm = "abstract"
    aliases: tuple[str, ...] = ()
    manages_classes: frozenset[IOClass] = frozenset(IOClass)
    supports_coordination: bool = False
    required_params: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "algorithm" not in cls.__dict__:
            return
        names = (cls.algorithm, *cls.aliases)
        for key in names:
            owner = _POLICIES.get(key)
            # A class of the same qualified name is a module re-import.
            if owner is not None and owner.__qualname__ != cls.__qualname__:
                raise ValueError(
                    f"policy name {key!r} already registered by "
                    f"{owner.__module__}.{owner.__qualname__}"
                )
        for key in names:
            _POLICIES[key] = cls

    def __init__(
        self,
        sim: Simulator,
        device: StorageDevice,
        name: str = "",
        telemetry: Optional[TelemetryBus] = None,
    ):
        self.sim = sim
        self.device = device
        self.name = name or f"{self.algorithm}@{device.name}"
        self.telemetry = telemetry if telemetry is not None else TelemetryBus()
        self.stats = SchedulerStats(self.name)
        self.outstanding = 0
        self._submit_hooks: list[Callable[[IORequest], None]] = []

    # ------------------------------------------------------------- factory
    @classmethod
    def from_spec(
        cls,
        sim: Simulator,
        device: StorageDevice,
        spec: "PolicySpec",
        name: str = "",
        telemetry: Optional[TelemetryBus] = None,
    ) -> "IOScheduler":
        """Construct from a :class:`PolicySpec` (the policy's factory).

        The default forwards ``spec.params`` as keyword arguments, which
        is all a third-party scheduler needs; built-ins with dedicated
        spec fields (depth, controller, throttle rates) override this.
        """
        return cls(sim, device, name=name, telemetry=telemetry, **dict(spec.params))

    # ------------------------------------------------------------------ api
    def submit(self, req: IORequest) -> Event:
        """Accept a tagged request; returns its completion event.

        A request whose tag's cancel scope is already cancelled (its
        task died while the issuing stream was mid-flight) is refused
        here: failed with :class:`RequestCancelled` without touching
        the queue.  Otherwise the request is registered with the scope
        and enters the ``QUEUED`` lifecycle state.

        Submit hooks run *before* the request is enqueued: enqueueing
        may dispatch and even complete the request synchronously (the
        native passthrough does), and hooks must observe the submission
        first.
        """
        scope = req.tag.scope
        if scope is not None:
            if scope.cancelled:
                req.mark_cancelled(self.sim.now)
                self._publish_span(req, "cancelled")
                req.completion.fail(RequestCancelled(
                    f"{req.app_id} {req.op} refused at {self.name}: "
                    f"scope {scope.name or '?'} cancelled"
                ))
                return req.completion
            scope.register(req)
        if self._submit_hooks:
            for hook in self._submit_hooks:
                hook(req)
        telemetry = self.telemetry
        if telemetry.publishes(REQUEST_SUBMITTED):
            telemetry.publish(RequestSubmitted(
                t=self.sim.now, source=self.name, app_id=req.app_id,
                op=req.op, nbytes=req.nbytes, io_class=req.io_class.value,
                queued=self.queued,
            ))
        req.mark_queued(self.sim.now, self)
        self._enqueue(req)
        return req.completion

    def cancel(self, req: IORequest) -> None:
        """Withdraw a still-queued request (first-class cancellation).

        Removes it from the queue with the scheduler's accounting kept
        consistent (:meth:`_remove`), marks it ``CANCELLED``, and fails
        its completion with :class:`RequestCancelled`.  Only legal in
        the ``QUEUED`` state — a dispatched request is at the device
        and runs to completion.
        """
        if req.state is not RequestState.QUEUED:
            raise LifecycleError(
                f"cannot cancel {req!r}: not queued (state "
                f"{req.state.value})"
            )
        if req._sched is not self:
            raise LifecycleError(
                f"cannot cancel {req!r}: queued at "
                f"{getattr(req._sched, 'name', None)!r}, not {self.name!r}"
            )
        self._remove(req)
        req.mark_cancelled(self.sim.now)
        self._publish_span(req, "cancelled")
        req.completion.fail(RequestCancelled(
            f"{req.app_id} {req.op} cancelled while queued at {self.name}"
        ))

    def add_submit_hook(self, hook: Callable[[IORequest], None]) -> None:
        self._submit_hooks.append(hook)

    @property
    def queued(self) -> int:
        """Requests accepted but not yet dispatched (0 for passthrough)."""
        return 0

    # ------------------------------------------------------- subclass hooks
    def _enqueue(self, req: IORequest) -> None:
        raise NotImplementedError

    def _remove(self, req: IORequest) -> None:
        """Withdraw a queued request from this scheduler's queue,
        keeping its accounting (tags, buckets) consistent.  Schedulers
        that can hold requests queued must override this; the native
        passthrough never queues, so cancellation never reaches it."""
        raise LifecycleError(
            f"{self.name} ({self.algorithm}) cannot remove queued requests"
        )

    def _on_complete(self, req: IORequest,
                     done: Optional[IOCompletion]) -> None:
        """Called after accounting, with ``done`` None when the device
        failed the request; subclasses trigger further dispatch."""

    # ------------------------------------------------------------ plumbing
    def _publish_span(self, req: IORequest, state: str) -> None:
        telemetry = self.telemetry
        if telemetry.publishes(SPAN):
            telemetry.publish(Span(
                t=self.sim.now, source=self.name, app_id=req.app_id,
                op=req.op, nbytes=req.nbytes, io_class=req.io_class.value,
                state=state, queue_wait=req.queue_wait,
                service=req.service_time,
            ))

    def _dispatch_to_device(self, req: IORequest) -> None:
        now = self.sim.now
        req.mark_dispatched(now)
        self.outstanding += 1
        telemetry = self.telemetry
        if telemetry.publishes(REQUEST_DISPATCHED):
            telemetry.publish(RequestDispatched(
                t=now, source=self.name, app_id=req.app_id,
                op=req.op, nbytes=req.nbytes, io_class=req.io_class.value,
                wait=now - req.t_submitted,
            ))
        # The device reports back through _on_device_event.
        self.device.submit(req.op, req.nbytes, self, req)

    def _on_device_event(self, req: IORequest, ev) -> None:
        """The device finished ``req``: ``ev`` is its completion record,
        with the outcome in ``_value``/``_exc``."""
        exc = ev._exc
        if exc is None:
            self._complete(req, ev._value)
        else:
            self._fail(req, exc)

    def _fail(self, req: IORequest, exc: BaseException) -> None:
        """A device I/O failed (injected fault): free the slot so the
        scheduler keeps dispatching, and pass the failure to the issuer."""
        self.outstanding -= 1
        req.mark_failed(self.sim.now)
        self._publish_span(req, "failed")
        self._on_complete(req, None)
        req.completion.fail(exc)

    def _complete(self, req: IORequest, done: IOCompletion) -> None:
        self.outstanding -= 1
        now = self.sim.now
        req.mark_completed(now)
        tag = req.tag
        # The scheduler's own accounting comes first, then any sink.
        self.stats._on_completed(now, tag.app_id, req.op, req.nbytes,
                                 tag.weight)
        telemetry = self.telemetry
        if telemetry.publishes(REQUEST_COMPLETED):
            telemetry.publish(RequestCompleted(
                t=now, source=self.name, app_id=tag.app_id,
                op=req.op, nbytes=req.nbytes, io_class=req.io_class.value,
                latency=done.latency, weight=tag.weight,
            ))
        self._publish_span(req, "completed")
        self._on_complete(req, done)
        req.completion.succeed(done)


class NativeScheduler(IOScheduler):
    """No I/O management: requests hit the device as soon as they arrive.

    This is the paper's "Native Hadoop" configuration — the device's
    work-conserving processor sharing is the only arbiter, so an
    aggressive application freely steals bandwidth (§2.3).
    """

    algorithm = "native"

    def _enqueue(self, req: IORequest) -> None:
        self._dispatch_to_device(req)
