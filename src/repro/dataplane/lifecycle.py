"""The request lifecycle state machine.

Every :class:`~repro.dataplane.request.IORequest` walks a fixed state
graph, stamping the simulation time of each transition::

    SUBMITTED ──> QUEUED ──> DISPATCHED ──> COMPLETED
        │            │            └───────> FAILED
        └────────────┴──────────────────────> CANCELLED

* ``SUBMITTED`` — the request object exists, tagged, not yet accepted
  by any scheduler.
* ``QUEUED`` — an interposed scheduler accepted it (tags assigned for
  SFQ-family schedulers).
* ``DISPATCHED`` — admitted to the storage device (one of the D
  outstanding slots).
* ``COMPLETED`` / ``FAILED`` — the device finished servicing it, or an
  injected fault killed the device I/O.
* ``CANCELLED`` — withdrawn before dispatch (its issuing task died, or
  its scope was already cancelled at submission).

Illegal transitions raise :class:`LifecycleError` — a dispatched
request can no longer be cancelled, a terminal request cannot move.
The per-transition timestamps are what the span accounting
(:mod:`repro.dataplane.spans`) decomposes into queue wait vs device
service.
"""

from __future__ import annotations

import enum

from repro.simcore import RequestCancelled, SimulationError

__all__ = ["LifecycleError", "RequestCancelled", "RequestState"]


class RequestState(enum.Enum):
    """Where a request currently is on the submission path."""

    SUBMITTED = "submitted"
    QUEUED = "queued"
    DISPATCHED = "dispatched"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self._terminal


_TERMINAL = frozenset(
    {RequestState.COMPLETED, RequestState.FAILED, RequestState.CANCELLED}
)

#: Allowed transitions: state -> states reachable from it.
TRANSITIONS: dict[RequestState, frozenset[RequestState]] = {
    RequestState.SUBMITTED: frozenset(
        {RequestState.QUEUED, RequestState.CANCELLED}
    ),
    RequestState.QUEUED: frozenset(
        {RequestState.DISPATCHED, RequestState.CANCELLED}
    ),
    RequestState.DISPATCHED: frozenset(
        {RequestState.COMPLETED, RequestState.FAILED}
    ),
    RequestState.COMPLETED: frozenset(),
    RequestState.FAILED: frozenset(),
    RequestState.CANCELLED: frozenset(),
}

# Denormalize the tables onto the members themselves: every request
# transition checks ``to in state.allowed`` (IORequest._advance), and
# at a million requests per run the extra dict hop is measurable.  A
# tuple, unlike a frozenset, tests membership by identity without a
# Python-level ``Enum.__hash__`` call.
for _state in RequestState:
    _state.allowed = tuple(s for s in RequestState if s in TRANSITIONS[_state])
    _state._terminal = _state in _TERMINAL
del _state


class LifecycleError(SimulationError):
    """An illegal lifecycle transition (or cancellation misuse)."""
