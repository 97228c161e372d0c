"""Block service: streams blocks through the interposed schedulers.

The DataXceiver of a real datanode streams a block as a pipeline of
packets: several chunks are in flight per stream (readahead for reads,
write-behind for writes).  This pipelining is what lets an uncontrolled
aggressive application flood the storage on native Hadoop — "TeraGen's
I/Os are sent to storage as soon as they come without any control"
(§7.2) — and what the IBIS schedulers' dispatch depth D reins in.

Every chunk request carries the application's :class:`IOTag` (§3) and
is queued at the PERSISTENT-class scheduler of the replica's node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core import DataNodeIO, IOClass, IORequest, IOTag
from repro.dataplane.streams import iter_chunks, windowed_stream
from repro.faults.plan import FaultPlan
from repro.hdfs.blocks import BlockLocations
from repro.net import NetFabric
from repro.simcore import Event, FaultError, Interrupt, Simulator
from repro.telemetry import REPLICA_FAILOVER, ReplicaFailover, TelemetryBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultInjector

__all__ = ["BlockService"]


class BlockService:
    """Chunked, pipelined block read/write against the interposition layer."""

    def __init__(
        self,
        sim: Simulator,
        nodes: dict[str, DataNodeIO],
        net: NetFabric,
        chunk: int,
        read_window: int = 2,
        write_window: int = 4,
        telemetry: Optional[TelemetryBus] = None,
    ):
        self.sim = sim
        self.nodes = nodes
        self.net = net
        self.chunk = chunk
        self.read_window = read_window
        self.write_window = write_window
        self.telemetry = telemetry
        self._fault_plan = FaultPlan()
        self._injector: Optional["FaultInjector"] = None

    def enable_failover(
        self, plan: FaultPlan, injector: Optional["FaultInjector"] = None
    ) -> None:
        """Read with the retry budget, backoff and timeout of ``plan``,
        skipping the replicas ``injector`` reports down."""
        self._fault_plan = plan
        self._injector = injector

    def read_block(self, loc: BlockLocations, reader_node: str, tag: IOTag):
        """Generator: stream one block to ``reader_node``; returns the
        number of bytes read.

        Attempt 0 reads the closest replica; remote reads additionally
        cross the network.  A failed or timed-out attempt retries on the
        next replica with exponential backoff, up to the fault plan's
        ``max_read_attempts``.  Without a plan (:meth:`enable_failover`)
        the defaults of :class:`~repro.faults.FaultPlan` apply, and a
        healthy run never retries.
        """
        plan = self._fault_plan
        order = self._failover_order(loc, reader_node)
        last_exc: Optional[Exception] = None
        for attempt in range(plan.max_read_attempts):
            if attempt > 0 and plan.read_backoff > 0:
                yield self.sim.timeout(plan.read_backoff * 2 ** (attempt - 1))
            live = order
            if self._injector is not None:
                live = [r for r in order if self._injector.alive(r)] or order
            replica = live[attempt % len(live)]
            try:
                yield from self._read_attempt(
                    loc, replica, reader_node, tag, plan.read_timeout
                )
                return loc.block.size
            except FaultError as exc:
                last_exc = exc
                telemetry = self.telemetry
                if telemetry is not None and telemetry.publishes(REPLICA_FAILOVER):
                    telemetry.publish(ReplicaFailover(
                        t=self.sim.now, source=reader_node, app_id=tag.app_id,
                        block_id=loc.block.block_id, failed=replica,
                        attempt=attempt + 1,
                    ))
        raise last_exc

    def _stream_from_replica(
        self, loc: BlockLocations, replica: str, reader_node: str, tag: IOTag
    ):
        """Generator: one streaming attempt from one chosen replica."""
        node = self.nodes[replica]
        remote = replica != reader_node

        def make_chunk(size: int) -> Callable[[], Event]:
            def thunk() -> Event:
                req = IORequest(self.sim, tag, "read", size, IOClass.PERSISTENT)
                if not remote:
                    return node.submit(req)

                def leg():
                    yield node.submit(req)
                    yield self.net.transfer(replica, reader_node, size)

                return self.sim.process(leg(), name="read-leg")

            return thunk

        thunks = (make_chunk(s) for s in iter_chunks(loc.block.size, self.chunk))
        yield from windowed_stream(self.sim, thunks, self.read_window)

    # -------------------------------------------------------- read failover
    def _failover_order(self, loc: BlockLocations, reader_node: str) -> list[str]:
        """Replica preference: :meth:`BlockLocations.closest` first, then
        the remaining replicas in placement order."""
        first = loc.closest(reader_node)
        return [first] + [r for r in loc.replicas if r != first]

    def _read_attempt(
        self,
        loc: BlockLocations,
        replica: str,
        reader_node: str,
        tag: IOTag,
        timeout: float,
    ):
        """Generator: one attempt, optionally bounded by ``timeout``."""
        if timeout <= 0:
            yield from self._stream_from_replica(loc, replica, reader_node, tag)
            return
        from repro.faults.errors import ReadTimeout

        proc = self.sim.process(
            self._stream_from_replica(loc, replica, reader_node, tag),
            name=f"read-try:{replica}",
        )
        guard = self.sim.timeout(timeout)
        yield self.sim.any_of([proc, guard])
        if not proc.is_alive:
            _ = proc.value  # re-raise a failure that raced the guard
            return
        timeout_exc = ReadTimeout(
            f"read of block {loc.block.block_id} from {replica} "
            f"exceeded {timeout}s"
        )
        proc.interrupt(timeout_exc)
        try:
            yield proc
        except Interrupt:
            pass
        raise timeout_exc

    def write_block(self, loc: BlockLocations, writer_node: str, tag: IOTag):
        """Generator: write one block through the replication pipeline.

        Each chunk is persisted on every replica (crossing the network
        for remote ones); up to ``write_window`` chunks ride the
        pipeline concurrently, as HDFS packets do.
        """

        def make_chunk(size: int) -> Callable[[], Event]:
            def thunk() -> Event:
                legs = [
                    self.sim.process(
                        self._write_chunk(replica, writer_node, size, tag),
                        name=f"pipe:{replica}",
                    )
                    for replica in loc.replicas
                ]
                return self.sim.all_of(legs)

            return thunk

        thunks = (make_chunk(s) for s in iter_chunks(loc.block.size, self.chunk))
        yield from windowed_stream(self.sim, thunks, self.write_window)
        return loc.block.size

    def _write_chunk(self, replica: str, writer_node: str, size: int, tag: IOTag):
        if replica != writer_node:
            yield self.net.transfer(writer_node, replica, size)
        req = IORequest(self.sim, tag, "write", size, IOClass.PERSISTENT)
        yield self.nodes[replica].submit(req)
