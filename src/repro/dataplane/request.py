"""The unit of scheduling: a tagged I/O request with a lifecycle.

An :class:`IORequest` is created ``SUBMITTED`` and walked through the
:mod:`~repro.dataplane.lifecycle` state machine by the scheduler it is
submitted to, stamping the simulation time of every transition.  The
timestamps are the raw material of span accounting: ``queue_wait`` is
admission→dispatch, ``service_time`` is dispatch→completion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.dataplane.lifecycle import LifecycleError, RequestState
from repro.dataplane.tags import IOClass, IOTag
from repro.simcore import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import IOScheduler

__all__ = ["IORequest"]


class IORequest:
    """One tagged I/O, queued at an interposed scheduler.

    ``completion`` succeeds (with the device's ``IOCompletion``) once
    the device has serviced the request, or fails — with the device
    fault, or with :class:`~repro.simcore.RequestCancelled` if the
    request was withdrawn before dispatch.  ``start_tag``/``finish_tag``
    are filled in by SFQ-family schedulers; ``prev_finish`` remembers
    the app's previous finish tag so cancellation can roll the tag
    chain back.
    """

    __slots__ = (
        "tag",
        "op",
        "nbytes",
        "io_class",
        "state",
        "completion",
        "start_tag",
        "finish_tag",
        "prev_finish",
        "t_submitted",
        "t_queued",
        "t_dispatched",
        "t_finished",
        "_sched",
    )

    def __init__(
        self,
        sim: Simulator,
        tag: IOTag,
        op: str,
        nbytes: int,
        io_class: IOClass = IOClass.PERSISTENT,
    ):
        if op not in ("read", "write"):
            raise ValueError(f"unknown op {op!r}")
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        self.tag = tag
        self.op = op
        self.nbytes = int(nbytes)
        self.io_class = io_class
        self.state: RequestState = RequestState.SUBMITTED
        self.completion: Event = Event(sim, name="ioreq")
        self.start_tag: float = 0.0
        self.finish_tag: float = 0.0
        self.prev_finish: float = 0.0
        self.t_submitted: float = sim.now
        self.t_queued: Optional[float] = None
        self.t_dispatched: Optional[float] = None
        self.t_finished: Optional[float] = None
        self._sched: Optional["IOScheduler"] = None

    # ------------------------------------------------------------- identity
    @property
    def app_id(self) -> str:
        return self.tag.app_id

    @property
    def weight(self) -> float:
        return self.tag.weight

    # ------------------------------------------------------------ lifecycle
    def _advance(self, to: RequestState, now: float) -> None:
        if to not in self.state.allowed:
            raise LifecycleError(
                f"illegal transition {self.state.value} -> {to.value} "
                f"for {self!r} at t={now:g}"
            )
        self.state = to

    def mark_queued(self, now: float, scheduler: "IOScheduler") -> None:
        """A scheduler accepted the request into its queue."""
        self._advance(RequestState.QUEUED, now)
        self.t_queued = now
        self._sched = scheduler

    def mark_dispatched(self, now: float) -> None:
        """The request was admitted to the storage device."""
        self._advance(RequestState.DISPATCHED, now)
        self.t_dispatched = now

    def mark_completed(self, now: float) -> None:
        self._advance(RequestState.COMPLETED, now)
        self._finish(now)

    def mark_failed(self, now: float) -> None:
        self._advance(RequestState.FAILED, now)
        self._finish(now)

    def mark_cancelled(self, now: float) -> None:
        self._advance(RequestState.CANCELLED, now)
        self._finish(now)

    def _finish(self, now: float) -> None:
        self.t_finished = now
        scope = self.tag.scope
        if scope is not None:
            scope._discard(self)

    # ---------------------------------------------------------------- spans
    @property
    def queue_wait(self) -> float:
        """Seconds spent queued: admission to dispatch (or to
        withdrawal, for cancelled requests).  0.0 before dispatch and
        for requests refused at submission."""
        if self.t_queued is None:
            return 0.0
        if self.t_dispatched is not None:
            return self.t_dispatched - self.t_queued
        if self.t_finished is not None:
            return self.t_finished - self.t_queued
        return 0.0

    @property
    def service_time(self) -> float:
        """Seconds of device service: dispatch to completion/failure.
        0.0 until the device finished with the request."""
        if self.t_dispatched is None or self.t_finished is None:
            return 0.0
        return self.t_finished - self.t_dispatched

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<IORequest {self.tag.app_id} {self.op} {self.nbytes}B "
            f"{self.io_class.value} {self.state.value}>"
        )
