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

Each NIC direction is a :class:`~repro.storage.StorageDevice` with a
flat processor-sharing profile (``n_half = 0``: ``n`` flows share the
bandwidth equally, no knee, no overhead), so the fault injector fails,
repairs and slows a link exactly as it does a disk.
"""

from __future__ import annotations

from repro.config import StorageProfile
from repro.simcore import Event, Simulator
from repro.simcore.engine import _PENDING
from repro.storage import StorageDevice

__all__ = ["NetFabric"]


class NetFabric:
    """All NICs plus the transfer primitive used by HDFS and shuffle."""

    def __init__(self, sim: Simulator, node_ids: list[str], bandwidth: float):
        self.sim = sim

        def link(name: str) -> StorageDevice:
            profile = StorageProfile(name=name, peak_rate=bandwidth, n_half=0.0)
            return StorageDevice(sim, profile, name=name)

        self.egress = {nid: link(f"link:{nid}:out") for nid in node_ids}
        self.ingress = {nid: link(f"link:{nid}:in") for nid in node_ids}
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
        join = _Join(self.sim, done, nbytes)
        self.egress[src].submit("read", nbytes, join)
        self.ingress[dst].submit("read", nbytes, join)
        return done


class _Join:
    """Owner of a remote transfer's two legs; settles the transfer once
    both are done.

    A relay event triggers when both legs succeeded or the first one
    failed (a link cut mid-transfer); when it pops, the transfer's own
    event follows.  The transfer therefore settles two hops after its
    deciding leg, a position in event order the pinned outputs rest on.
    """

    __slots__ = ("relay", "left", "done", "nbytes")

    def __init__(self, sim: Simulator, done: Event, nbytes: int):
        self.relay = relay = Event(sim, name="all")
        self.left = 2
        self.done = done
        self.nbytes = nbytes
        relay.callbacks.append(self._settle)

    def _on_device_event(self, _req, leg) -> None:
        """A leg's device finished: ``leg`` is its completion record."""
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
