"""A deliberately simple cluster network model.

The paper's design note (§3) holds that IBIS needs no network-layer
bandwidth control because (1) storage saturates before the Gigabit
network and (2) scheduling the storage endpoints of network I/Os
indirectly shapes network contention.  The model therefore only needs
to create realistic *transfer delays* and congestion when many flows
land on one receiver:

* each node has one full-duplex NIC;
* concurrent flows into (out of) a NIC share its bandwidth equally
  (processor sharing — a good approximation of per-flow TCP fairness
  on a non-blocking switch);
* a transfer is paced by the slower of its two NIC shares; we
  approximate this by charging the bytes to both endpoint links and
  completing when both are done.
"""

from __future__ import annotations

from repro.config import StorageProfile
from repro.simcore import Event, Simulator
from repro.simcore.engine import _PENDING
from repro.storage import StorageDevice

__all__ = ["Link", "NetFabric"]


class Link:
    """One direction of a NIC, as a flat processor-sharing pipe."""

    def __init__(self, sim: Simulator, bandwidth: float, name: str):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        # Reuse the PS machinery of StorageDevice with a flat rate curve:
        # n flows share `bandwidth` equally, no knee, no overhead.
        self._pipe = StorageDevice(
            sim,
            StorageProfile(name=f"link:{name}", peak_rate=bandwidth, n_half=0.0),
            name=f"link:{name}",
        )
        self.name = name

    def send(self, nbytes: int) -> Event:
        return self._pipe.submit("read", nbytes)

    @property
    def bytes_carried(self) -> float:
        return self._pipe.read_meter.total

    @property
    def flows(self) -> int:
        return self._pipe.in_flight

    # -------------------------------------------------------------- faults
    @property
    def failed(self) -> bool:
        return self._pipe.failed

    def set_rate_factor(self, factor: float) -> None:
        """Scale this direction's bandwidth (link degradation)."""
        self._pipe.set_rate_factor(factor)

    def fail(self, exc: BaseException) -> None:
        """Cut the link: in-flight and future sends fail with ``exc``."""
        self._pipe.fail(exc)

    def repair(self) -> None:
        self._pipe.repair()


class NetFabric:
    """All NICs plus the transfer primitive used by HDFS and shuffle."""

    def __init__(self, sim: Simulator, node_ids: list[str], bandwidth: float):
        self.sim = sim
        self.bandwidth = bandwidth
        self.egress = {nid: Link(sim, bandwidth, f"{nid}:out") for nid in node_ids}
        self.ingress = {nid: Link(sim, bandwidth, f"{nid}:in") for nid in node_ids}
        self.total_bytes = 0.0

    def transfer(self, src: str, dst: str, nbytes: int) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``.

        Local 'transfers' (src == dst) complete immediately — the data
        never leaves the node.  Remote transfers occupy both the sender's
        egress and the receiver's ingress; the completion fires when the
        slower side finishes.
        """
        if src not in self.egress or dst not in self.egress:
            raise KeyError(f"unknown endpoint in transfer {src!r}->{dst!r}")
        if nbytes <= 0:
            raise ValueError("transfer size must be positive")
        done = Event(self.sim, name=f"xfer:{src}->{dst}")
        if src == dst:
            done.succeed(nbytes)
            return done
        self.total_bytes += nbytes
        _Join(self.sim, done, nbytes,
              self.egress[src].send(nbytes), self.ingress[dst].send(nbytes))
        return done


class _Join:
    """Settles a remote transfer once both legs are done.

    A relay event triggers when both legs succeeded or the first one
    failed (a link cut mid-transfer); when it pops, the transfer's own
    event follows.  The transfer therefore settles two hops after its
    deciding leg, a position in event order the pinned outputs rest on.
    """

    __slots__ = ("relay", "left", "done", "nbytes")

    def __init__(self, sim: Simulator, done: Event, nbytes: int,
                 out_leg: Event, in_leg: Event):
        self.relay = relay = Event(sim, name="all")
        self.left = 2
        self.done = done
        self.nbytes = nbytes
        relay.callbacks.append(self._settle)
        on_leg = self._on_leg
        out_leg.callbacks.append(on_leg)
        in_leg.callbacks.append(on_leg)

    def _on_leg(self, leg: Event) -> None:
        relay = self.relay
        if relay._state != _PENDING:
            return  # the other leg failed first
        if leg._exc is not None:
            relay.fail(leg._exc)
            return
        self.left -= 1
        if not self.left:
            relay.succeed()

    def _settle(self, relay: Event) -> None:
        if relay._exc is not None:
            self.done.fail(relay._exc)
        else:
            self.done.succeed(self.nbytes)
