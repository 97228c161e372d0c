"""Bucketed event wheel: the engine's calendar event queue.

The simulator's hot loop used to pop a single global binary heap one
event at a time — O(log n) tuple comparisons per push *and* per pop,
all paid in the Python/C comparison boundary.  The wheel replaces it
with a calendar queue:

* Timestamps are slotted into buckets of ``width`` seconds (``width``
  is rounded to a power of two so ``when * 1/width`` is an exact,
  order-preserving float scaling).  A push is a dict lookup and a list
  append — no comparisons.
* Buckets are sorted lazily: only when the wheel advances into a slot
  is its bucket sorted (one C-speed Timsort per bucket), after which
  each pop is an O(1) index bump.
* A min-heap over the *slot keys* (a few orders of magnitude smaller
  than the event population) finds the next non-empty bucket.

Determinism
-----------
Pop order is **exactly** the total order ``(when, seq)`` — identical to
the binary heap it replaces, including same-timestamp tie-breaks: the
wheel assigns the same monotonically increasing sequence numbers in the
same call order, slot scaling is monotone, and entries within a slot
are sorted by the same tuple.  ``tests/simcore/oracle.py`` keeps that
heap as a reference; ``tests/simcore/test_wheel_equivalence.py`` drives
both through randomized schedule/withdraw sequences and asserts
identical pop sequences.

The simulator keeps events due at the current time in its own FIFO, so
the wheel holds only later ones; :meth:`EventWheel.pop_batch` hands the
simulator every entry of the next timestamp at once.

Tombstones
----------
Dead events — a timeout abandoned by an interrupted process, a storage
device's superseded completion tick, a cancelled request's wait — used
to sit in the queue until their time came just to be popped as no-ops.
:meth:`EventWheel.withdraw` marks such an event ``WITHDRAWN`` in place;
pops skip tombstones, and when tombstones outnumber the live entries
(they "exceed half the queue") the wheel sweeps every bucket in one
pass.  The cumulative sweep count is exposed as
``Simulator.tombstones_compacted``.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush
from math import ldexp, frexp
from typing import Any

__all__ = ["EventWheel", "WITHDRAWN"]

#: Event ``_state`` value marking a queued-but-dead entry.  Defined here
#: (not in engine.py) because the queue is the only code that writes or
#: tests it; the engine imports it for its state table.  It compares greater than PROCESSED on purpose: a withdrawn
#: event can never fire again.
WITHDRAWN = 3

_INF = float("inf")

#: Don't bother sweeping queues this small — the scan costs more than
#: letting the handful of tombstones pop as no-ops.
_MIN_SWEEP = 32


def _pow2_width(width: float) -> float:
    """Round ``width`` to the nearest power of two (exact float scaling)."""
    if width <= 0:
        raise ValueError(f"bucket width must be positive, got {width}")
    mantissa, exponent = frexp(width)  # width = mantissa * 2**exponent
    # mantissa in [0.5, 1): round to 0.5 or 1.0, i.e. 2**(e-1) or 2**e.
    return ldexp(1.0, exponent if mantissa > 0.75 else exponent - 1)


class EventWheel:
    """Calendar queue over ``(when, seq, event)`` entries.

    The public surface mirrors what :class:`~repro.simcore.Simulator`
    needs: :meth:`push`, :meth:`pop`, :meth:`pop_batch`, :meth:`peek`,
    :meth:`withdraw`, ``len()`` (live entries only).  Entries must be
    pushed with monotonically non-decreasing lower bound (``when`` >= the
    ``when`` of the last popped entry) — the simulator's
    no-scheduling-in-the-past rule — but *pushes between pops may target
    any future time*, including times earlier than entries already
    handed a bucket.
    """

    __slots__ = (
        "_inv_width",
        "width",
        "_buckets",
        "_slots",
        "_cur",
        "_cur_i",
        "_cur_slot",
        "_seq",
        "_live",
        "_tombstones",
        "tombstones_compacted",
    )

    def __init__(self, width: float = 0.25):
        self.width = width = _pow2_width(width)
        self._inv_width = 1.0 / width
        # slot key -> unsorted list of (when, seq, ev)
        self._buckets: dict[int, list[tuple[float, int, Any]]] = {}
        self._slots: list[int] = []  # min-heap of (possibly stale) slot keys
        self._cur: list[tuple[float, int, Any]] = []  # active slot, sorted asc
        self._cur_i = 0
        self._cur_slot = -1
        self._seq = 0
        self._live = 0
        self._tombstones = 0
        #: total dead entries removed by compaction sweeps
        self.tombstones_compacted = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def tombstones(self) -> int:
        """Withdrawn entries currently still occupying queue slots."""
        return self._tombstones

    # ------------------------------------------------------------------ push
    def push(self, when: float, ev: Any) -> int:
        """Queue ``ev`` at time ``when``; returns its sequence number."""
        self._seq = seq = self._seq + 1
        self._live += 1
        s = int(when * self._inv_width)
        if s == self._cur_slot:
            # Lands in the slot being drained: ordered insert into the
            # active run (C bisect+insert).  New entries carry the
            # largest seq, so they can never sort before the
            # already-popped prefix.
            insort(self._cur, (when, seq, ev), self._cur_i)
        else:
            b = self._buckets.get(s)
            if b is None:
                self._buckets[s] = [(when, seq, ev)]
                heappush(self._slots, s)
            else:
                b.append((when, seq, ev))
        return seq

    # ------------------------------------------------------------- settling
    def _settle(self) -> bool:
        """Advance internal cursors until ``_cur[_cur_i]`` is the next
        live entry (or return False when the wheel is empty)."""
        while True:
            cur = self._cur
            i = self._cur_i
            n = len(cur)
            while i < n and cur[i][2]._state == WITHDRAWN:
                i += 1
                self._tombstones -= 1
            self._cur_i = i
            slots = self._slots
            buckets = self._buckets
            while slots and slots[0] not in buckets:
                heappop(slots)  # stale key: bucket already consumed
            if i < n:
                if slots and slots[0] < self._cur_slot:
                    # An earlier slot gained entries after this run was
                    # activated (possible between run() horizons).  Demote
                    # the unpopped tail back to its bucket so slots drain
                    # strictly in time order.
                    self._buckets[self._cur_slot] = cur[i:]
                    heappush(slots, self._cur_slot)
                    self._cur = []
                    self._cur_i = 0
                    self._cur_slot = -1
                    continue
                return True
            if not slots:
                if n:
                    self._cur = []
                    self._cur_i = 0
                return False
            s = heappop(slots)
            b = buckets.pop(s)
            b.sort()
            self._cur = b
            self._cur_i = 0
            self._cur_slot = s

    # ------------------------------------------------------------------- pop
    def pop(self, limit: float = _INF):
        """Remove and return the next live entry ``(when, seq, ev)``,
        or None when the wheel is empty or its head is later than
        ``limit``."""
        cur = self._cur
        i = self._cur_i
        if i < len(cur):
            entry = cur[i]
            if entry[2]._state != WITHDRAWN:
                slots = self._slots
                if not slots or slots[0] > self._cur_slot:
                    # Fast path: live head, and every pending bucket
                    # sits in a strictly later slot, so the head is the
                    # global minimum (entries never share slot keys
                    # across buckets, and slot order implies time order).
                    if entry[0] > limit:
                        return None
                    self._cur_i = i + 1
                    self._live -= 1
                    return entry
        if not self._settle():
            return None
        entry = self._cur[self._cur_i]
        if entry[0] > limit:
            return None
        self._cur_i += 1
        self._live -= 1
        return entry

    def pop_batch(self, out, limit: float = _INF):
        """Move every entry at the next live timestamp into ``out`` (a
        deque) in ``seq`` order and return that timestamp, or return None
        when the wheel is empty or its head is later than ``limit``.

        Tombstones inside the batch move too: whoever pops ``out`` skips
        them, as :meth:`pop` would have."""
        entry = self.pop(limit)
        if entry is None:
            return None
        out.append(entry[2])
        when = entry[0]
        # Entries sharing a timestamp share a slot, so the rest of the
        # batch follows the head in the sorted active run.
        cur = self._cur
        i = j = self._cur_i
        n = len(cur)
        while j < n and cur[j][0] == when:
            j += 1
        if j > i:
            dead = 0
            for k in range(i, j):
                ev = cur[k][2]
                if ev._state == WITHDRAWN:
                    dead += 1
                out.append(ev)
            self._cur_i = j
            self._live -= j - i - dead
            self._tombstones -= dead
        return when

    def peek(self) -> float:
        """Time of the next live entry, or ``inf``."""
        if not self._settle():
            return _INF
        return self._cur[self._cur_i][0]

    # ------------------------------------------------------------ tombstones
    def withdraw(self, ev: Any) -> None:
        """Mark a queued event dead in place (O(1)).

        The caller owns the event and guarantees it is queued (state
        TRIGGERED) with no observers left.  The entry stays physically
        in its bucket until a pop skips it or a compaction sweep drops
        it; the event object itself can never fire.
        """
        ev._state = WITHDRAWN
        ev.callbacks = None
        self._live -= 1
        t = self._tombstones + 1
        self._tombstones = t
        if t > _MIN_SWEEP and t > self._live:
            self.compact()

    def compact(self) -> int:
        """Sweep every bucket, dropping withdrawn entries; returns how
        many were removed.  O(total entries), amortized free because it
        only triggers once tombstones outnumber live entries."""
        swept = 0
        buckets = self._buckets
        for s in list(buckets):
            b = buckets[s]
            keep = [e for e in b if e[2]._state != WITHDRAWN]
            swept += len(b) - len(keep)
            if keep:
                buckets[s] = keep
            else:
                del buckets[s]
        cur = self._cur
        i = self._cur_i
        if i < len(cur):
            keep = [e for e in cur[i:] if e[2]._state != WITHDRAWN]
            swept += (len(cur) - i) - len(keep)
            self._cur = keep
        else:
            self._cur = []
        self._cur_i = 0
        self._slots = list(buckets)
        heapify(self._slots)
        self._tombstones -= swept
        self.tombstones_compacted += swept
        return swept
