"""Shared chunking/windowing primitives for every streaming entry point.

The DataXceiver of a real datanode streams a block as a pipeline of
packets: several chunks are in flight per stream (readahead for reads,
write-behind for writes).  HDFS block streams, local intermediate
spill/merge and the shuffle servlet all pipeline the same way — so the
primitive lives here, in the dataplane, and the per-protocol modules
(:mod:`repro.hdfs.datanode`, :mod:`repro.localfs.filesystem`) are thin
adapters over it.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.dataplane.request import IORequest
from repro.dataplane.tags import IOClass, IOTag
from repro.simcore import Event, Simulator
from repro.simcore.engine import _PENDING, _PROCESSED

__all__ = ["iter_chunks", "request_stream", "windowed_stream"]


def iter_chunks(total: int, chunk: int) -> Iterator[int]:
    """Yield chunk sizes covering ``total`` bytes."""
    if total <= 0:
        raise ValueError("total must be positive")
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    remaining = total
    while remaining > 0:
        size = min(chunk, remaining)
        yield size
        remaining -= size


class _Window:
    """The in-flight chunks of one stream and its wait for them.

    Each wait is one wake :class:`Event`, triggered as ``AnyOf`` (the
    next chunk) or ``AllOf`` (every chunk) over the in-flight list would
    trigger: a failed chunk fails it, and success needs ``remaining``
    chunks.  The callback is attached to every in-flight chunk when a
    wait starts and detached from the unfinished ones when it ends,
    exactly where those composites attach and detach theirs, so event
    order, and which failures count as orphaned, stay the same.
    """

    __slots__ = ("sim", "events", "wake", "remaining")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.events: list[Event] = []
        self.wake: Optional[Event] = None
        self.remaining = 0

    def wait(self, need: int, name: str) -> Event:
        wake = self.wake = Event(self.sim, name)
        self.remaining = need
        # Bound per wait, not kept on self: a stored bound method would
        # make every window a reference cycle, freed only by the cyclic
        # GC, and raise peak memory.
        cb = self._on_chunk
        for ev in self.events:
            if wake._state != _PENDING:
                break  # settled already by a processed chunk
            if ev._state == _PROCESSED:
                cb(ev)
            else:
                ev.callbacks.append(cb)
        return wake

    def _on_chunk(self, ev: Event) -> None:
        wake = self.wake
        if wake._state != _PENDING:
            return
        if ev._exc is not None:
            self._detach()
            wake.fail(ev._exc)
            return
        self.remaining -= 1
        if not self.remaining:
            self._detach()
            wake.succeed()

    def _detach(self) -> None:
        cb = self._on_chunk  # equal to the bound method attached in wait()
        for ev in self.events:
            if ev._state != _PROCESSED:
                try:
                    ev.callbacks.remove(cb)
                except ValueError:
                    pass


def windowed_stream(
    sim: Simulator,
    chunk_events: Iterator[Callable[[], Event]],
    window: int,
):
    """Generator: drive chunk operations keeping up to ``window`` in flight.

    Each element of ``chunk_events`` is a thunk producing the event for
    one chunk (a device completion, or a sub-process for multi-leg
    chunks).  Completes when every chunk has completed; the first chunk
    failure it waits on raises here.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    w = _Window(sim)
    active = w.events
    for make in chunk_events:
        if len(active) >= window:
            yield w.wait(1, "any")
            active = w.events = [e for e in active if e._state < _PROCESSED]
        active.append(make())
    if active:
        yield w.wait(len(active), "all")


def request_stream(
    sim: Simulator,
    submit: Callable[[IORequest], Event],
    tag: IOTag,
    op: str,
    nbytes: int,
    io_class: IOClass,
    chunk: int,
    window: int,
):
    """Generator: stream ``nbytes`` as windowed single-leg requests.

    The common case — every chunk is one tagged request submitted at
    one interposition point (``submit`` is typically
    ``DataNodeIO.submit`` or ``IOPath.submit``).  Multi-leg streams
    (HDFS replication pipelines, remote reads) compose
    :func:`iter_chunks` + :func:`windowed_stream` directly.
    """

    def make(size: int) -> Callable[[], Event]:
        return lambda: submit(IORequest(sim, tag, op, size, io_class))

    thunks = (make(s) for s in iter_chunks(nbytes, chunk))
    yield from windowed_stream(sim, thunks, window)
    return nbytes
