"""Storage device with FCFS or processor-sharing service.

Model
-----
With ``n`` requests in flight the device delivers an aggregate service
rate ``W(n) = peak_rate · n / (n + n_half)`` — throughput saturates with
concurrency (the elevator/NCQ effect).  A request of ``b`` bytes carries
``b · op_cost + request_overhead`` *work units*.  Two disciplines:

* ``fcfs`` (disks): requests are *serviced serially in arrival order*
  at the aggregate rate — one transfer at a time, with outstanding
  requests only improving head scheduling.  A request's latency is the
  queued work ahead of it, which is why admission order (exactly what
  SFQ(D) controls) dominates interference on disks, and why an
  uncontrolled flood devastates a latecomer on native Hadoop.
* ``ps`` (network pipes): ``n`` flows share ``W(n)`` equally.

Writes on flash (``write_cost > 1``) consume more service than reads —
the asymmetry behind the paper's SSD result.

Both disciplines run on one mechanism: a *virtual work time* ``V``.
Under PS, ``V`` advances at the per-request rate ``W(n)/n`` and request
targets are ``V_admit + work``; under FCFS, ``V`` advances at ``W(n)``
and targets are cumulative (``previous target + work``).  All updates
are O(log n).

Write-back storms
-----------------
Each time cumulative write bytes cross ``flush_threshold``, the device
rate is multiplied by ``flush_factor`` for ``flush_duration`` seconds —
the foreground page-cache flushes visible as latency spikes in Fig. 7.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import NamedTuple, Optional

from repro.config import StorageProfile
from repro.simcore import Simulator, TotalMeter
from repro.simcore.engine import _PROCESSED, _TRIGGERED
from repro.telemetry import FLUSH_SPIKE, FlushSpike, TelemetryBus

__all__ = ["IOCompletion", "StorageDevice"]

_EPS = 1e-12

#: In-flight counts the rate tables cover up front; they double on demand.
_INITIAL_DEPTH = 16


class IOCompletion(NamedTuple):
    """The outcome of a completed I/O.  A named tuple: immutable, and
    cheap to build once per completed request."""

    op: str          # "read" | "write"
    nbytes: int
    latency: float   # seconds from submit to completion


class _Active:
    """One in-flight request, and the engine entry that reports its
    outcome: at completion (or failure) the device queues the record,
    and when popped it calls ``owner._on_device_event(req, self)`` with
    the outcome in ``_value`` / ``_exc``.
    """

    __slots__ = ("op", "nbytes", "submit_time", "owner", "req", "_value",
                 "_exc")

    #: a queued record is never withdrawn
    _state = _TRIGGERED

    def __init__(self, op: str, nbytes: int, submit_time: float, owner, req):
        self.op = op
        self.nbytes = nbytes
        self.submit_time = submit_time
        self.owner = owner
        self.req = req
        self._exc: Optional[BaseException] = None

    def _process(self) -> None:
        self.owner._on_device_event(self.req, self)


class _Tick:
    """The device's next completion tick: one engine entry per
    reschedule, withdrawn when a later state change supersedes it."""

    __slots__ = ("device", "when", "_state", "callbacks")

    def __init__(self, device: "StorageDevice", when: float):
        self.device = device
        self.when = when
        self._state = _TRIGGERED

    def _process(self) -> None:
        self._state = _PROCESSED
        self.device._on_tick()


class StorageDevice:
    """A single spindle/flash device, or one direction of a NIC
    (:class:`~repro.net.NetFabric`).

    It counts completed bytes per op in ``read_meter.total`` and
    ``write_meter.total``.  The time-stamped samples behind windowed
    throughput and rate series are kept by the schedulers in front of
    it (:class:`~repro.core.base.SchedulerStats`), once per request.
    """

    def __init__(
        self,
        sim: Simulator,
        profile: StorageProfile,
        name: str = "disk",
        telemetry: Optional[TelemetryBus] = None,
    ):
        self.sim = sim
        self.profile = profile
        self.name = name
        self.telemetry = telemetry if telemetry is not None else TelemetryBus()

        self._v = 0.0                 # virtual work time (per-request progress)
        self._v_updated = sim.now     # wall time of last _v update
        self._heap: list[tuple[float, int, _Active]] = []
        self._seq = 0
        self._scheduled_target = 0.0  # heap-head V target of the live tick
        self._last_target = 0.0       # fcfs: cumulative work target tail
        self._fcfs = profile.discipline == "fcfs"

        # Hot-path caches: per-op work costs, bound once so the dispatch
        # loop does indexing instead of attribute chains.
        self._op_cost = {"read": profile.read_cost, "write": profile.write_cost}
        self._request_overhead = profile.request_overhead
        self._flush_factor = profile.flush_factor

        self._storm_until = 0.0
        self._written_since_flush = 0.0

        # Fault-injection state: a rate multiplier (fail-slow disks) and
        # a failure marker.  The factor is folded into the rate tables.
        self._rate_factor = 1.0
        self._failed: Optional[BaseException] = None
        self._build_rates(_INITIAL_DEPTH)

        # Completion-tick dispatch: every submit/complete reschedules the
        # next tick.  The superseded tick is withdrawn from the event
        # queue (tombstoned) so it never dispatches.
        self._live_tick: Optional[_Tick] = None

        # Completed bytes per op (per-request latencies travel as
        # telemetry: the interposed scheduler publishes them in
        # ``request_completed``).
        self.read_meter = TotalMeter(f"{name}:read")
        self.write_meter = TotalMeter(f"{name}:write")
        self.completed_requests = 0

    # ------------------------------------------------------------------ api
    @property
    def in_flight(self) -> int:
        return len(self._heap)

    def submit(self, op: str, nbytes: int, owner, req=None) -> None:
        """Begin servicing an I/O immediately (no internal queue — admission
        control is the scheduler's job).

        When the device finishes the request, or fails it with the
        device fault, it calls ``owner._on_device_event(req, record)``:
        the record's ``_value`` is an :class:`IOCompletion`, or its
        ``_exc`` the fault."""
        if op not in ("read", "write"):
            raise ValueError(f"unknown op {op!r}")
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        sim = self.sim
        if self._failed is not None:
            entry = _Active(op, int(nbytes), sim.now, owner, req)
            entry._exc = self._failed
            sim._push(0.0, entry)
            return
        self._advance()
        work = nbytes * self._op_cost[op] + self._request_overhead
        if self._fcfs:
            # Serial service: this request completes after all work ahead.
            target = self._last_target = max(self._last_target, self._v) + work
        else:
            target = self._v + work
        entry = _Active(op, int(nbytes), sim.now, owner, req)
        self._seq += 1
        heap = self._heap
        heappush(heap, (target, self._seq, entry))
        if len(heap) == len(self._rates):
            self._build_rates(2 * len(self._rates))
        if op == "write":
            self._note_write(nbytes)
        self._reschedule()

    # -------------------------------------------------------------- faults
    @property
    def failed(self) -> bool:
        return self._failed is not None

    def set_rate_factor(self, factor: float) -> None:
        """Scale the device's service rate by ``factor`` (fail-slow disk).

        ``factor`` must stay positive — a dead device is :meth:`fail`,
        not factor 0 (V could never advance with work queued).
        """
        if factor <= 0:
            raise ValueError(f"rate factor must be > 0, got {factor}")
        if factor == self._rate_factor:
            return
        self._advance()
        self._rate_factor = factor
        self._build_rates(len(self._rates))
        self._reschedule()

    def fail(self, exc: BaseException) -> None:
        """Kill the device: every in-flight I/O fails with ``exc``, and
        so does every later :meth:`submit`, until :meth:`repair`."""
        self._advance()
        self._failed = exc
        sim = self.sim
        tick = self._live_tick
        if tick is not None and tick._state == _TRIGGERED:
            sim._withdraw(tick)
        self._live_tick = None
        dropped, self._heap = self._heap, []
        # FCFS tail restarts from the current progress point on repair.
        self._last_target = self._v
        for _tv, _seq, entry in dropped:
            entry._exc = exc
            sim._push(0.0, entry)

    def repair(self) -> None:
        """Bring a failed device back (empty, at full rate)."""
        self._failed = None
        self._v_updated = self.sim.now

    # ----------------------------------------------------------- internals
    def _build_rates(self, depth: int) -> None:
        """Tabulate the rate at which V advances, by in-flight count
        ``0..depth-1``: ``_rates`` normally, ``_storm_rates`` during a
        flush storm.  Each entry is ``rate_at(n) * rate_factor``, then
        ``* flush_factor`` in a storm, then ``/ n`` under PS.  The figure
        goldens pin this float association; on a healthy device the
        factor of 1.0 leaves every product exact."""
        rate_at = self.profile.rate_at
        factor = self._rate_factor
        flush = self._flush_factor
        rates = [0.0]
        storm = [0.0]
        for n in range(1, depth):
            r = rate_at(n) * factor
            s = r * flush
            if not self._fcfs:
                r /= n
                s /= n
            rates.append(r)
            storm.append(s)
        self._rates = rates
        self._storm_rates = storm

    def _advance(self) -> None:
        """Bring the virtual work time up to ``sim.now``.

        The population ``n`` is constant between updates (it only changes
        inside submit/complete, which advance first), but the elapsed
        interval may span the end of a flush storm, so integrate piecewise.
        """
        now = self.sim.now
        t = self._v_updated
        if now > t:
            n = len(self._heap)
            if n > 0:
                base = self._rates[n]
                storm_end = self._storm_until
                if t < storm_end:
                    seg_end = min(now, storm_end)
                    self._v += (seg_end - t) * base * self._flush_factor
                    t = seg_end
                if now > t:
                    self._v += (now - t) * base
        self._v_updated = now

    def _reschedule(self) -> None:
        """(Re)schedule the next completion tick.

        The previously scheduled tick — if it has not fired yet — is
        withdrawn from the event queue (tombstoned in place), so
        superseded ticks never dispatch at all.
        """
        sim = self.sim
        old = self._live_tick
        if old is not None and old._state == _TRIGGERED:
            # Still queued and not fired: dead on arrival — tombstone it.
            sim._withdraw(old)
        heap = self._heap
        if not heap:
            self._live_tick = None
            return
        now = sim.now
        if now < self._storm_until:
            rate = self._storm_rates[len(heap)]
        else:
            rate = self._rates[len(heap)]
        if rate <= 0:
            raise RuntimeError(f"device {self.name}: zero rate with work queued")
        target_v = heap[0][0]
        dt = (target_v - self._v) / rate
        if dt < 0.0:
            dt = 0.0
        self._scheduled_target = target_v
        when = now + dt
        tick = self._live_tick = _Tick(self, when)
        if when > now:
            sim._queue.push(when, tick)
        else:
            sim._queue._seq += 1
            sim._now_q.append(tick)

    def _on_tick(self) -> None:
        self._advance()
        # The tick was scheduled to land exactly on the heap-head target;
        # snap V there so float rounding cannot strand the completion.
        if self._v < self._scheduled_target:
            self._v = self._scheduled_target
        sim = self.sim
        now = sim.now
        heap = self._heap
        cutoff = self._v + _EPS
        n_done = 0
        while heap and heap[0][0] <= cutoff:
            _tv, _seq, entry = heappop(heap)
            done = IOCompletion(entry.op, entry.nbytes, now - entry.submit_time)
            meter = self.read_meter if entry.op == "read" else self.write_meter
            meter.total += entry.nbytes
            n_done += 1
            entry._value = done
            sim._queue._seq += 1
            sim._now_q.append(entry)
        self.completed_requests += n_done
        self._reschedule()

    def _note_write(self, nbytes: int) -> None:
        if self.profile.flush_threshold <= 0:
            return
        self._written_since_flush += nbytes
        if self._written_since_flush >= self.profile.flush_threshold:
            self._written_since_flush -= self.profile.flush_threshold
            self._start_storm()

    def _start_storm(self) -> None:
        now = self.sim.now
        was_in_storm = now < self._storm_until
        self._storm_until = max(self._storm_until, now) + self.profile.flush_duration
        if not was_in_storm:
            # Rate just dropped: virtual time must advance at the new rate.
            self._reschedule()
        end = self._storm_until
        if self.telemetry.publishes(FLUSH_SPIKE):
            self.telemetry.publish(FlushSpike(
                t=now, source=self.name, until=end,
                factor=self.profile.flush_factor,
            ))
        self.sim.call_at(end, self._on_storm_boundary)

    def _on_storm_boundary(self) -> None:
        # Rate may have just recovered; re-evaluate.
        self._advance()
        self._reschedule()
