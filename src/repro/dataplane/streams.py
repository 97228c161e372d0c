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

from typing import Callable, Iterator

from repro.dataplane.request import IORequest
from repro.dataplane.tags import IOClass, IOTag
from repro.simcore import Event, Simulator
from repro.simcore.engine import _PROCESSED

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
    active: list[Event] = []
    for make in chunk_events:
        if len(active) >= window:
            yield sim.any_of(active)
            active = [e for e in active if e._state < _PROCESSED]
        active.append(make())
    if active:
        yield sim.all_of(active)


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
