"""Discrete-event simulation clock.

Everything time-dependent in the simulator — datagram delivery, player
ticks, resource-monitor sampling, viewer churn — is driven by one
:class:`EventLoop`. Time is a float in seconds; events at equal times
fire in scheduling order (a monotonically increasing sequence number
breaks ties), which keeps runs deterministic.

The loop is the hottest code in the simulator (million-datagram swarms
fire one event per delivery), so the scheduler is two-tier:

- a **timing wheel** (calendar queue) of fixed-width buckets covering
  the narrow in-flight-datagram delay band — O(1) append on schedule,
  one index sort per bucket at dispatch time — holds the short-delay
  timer class that dominates at swarm depth;
- the classic **binary heap** holds everything out of band: long fault
  timers, repeating :meth:`EventLoop.call_every` handles, and wheel
  overflow.

Dispatch merges the two tiers by ``(when, seq)``, so event order — and
therefore every seed-pinned digest — is bit-identical to a pure-heap
loop (``tests/chaos/test_timing_wheel.py`` proves the equivalence
property). The dispatch path is deliberately flat: ``step``/``run_until``
pop and fire inline rather than through helper calls, and
:attr:`EventLoop.pending` is an O(1) counter maintained by
``schedule``/``cancel``/dispatch instead of a queue scan.

Observability: sinks registered via :meth:`EventLoop.add_sink` are
notified after every fired event (see :mod:`repro.harness.profile`);
:meth:`EventLoop.wheel_stats` exposes the wheel's occupancy and
overflow counters. Sinks are class-wide so a harness can observe every
loop an experiment creates; they must only observe, never schedule.
A single *pre-fire* trace hook (:meth:`EventLoop.set_trace`) is called
with each selected event **before** its callback runs — DetSan
(:mod:`repro.analysis.sanitizer`) uses it so the event whose callback
raises, or diverges between runs, is already in the trace when it does.
"""

from __future__ import annotations

import itertools
from array import array
from heapq import heappop, heappush
from sys import maxsize as _MAX_EVENTS
from typing import Any, Callable, ClassVar

from repro.util.errors import ConfigurationError

_INFINITY = float("inf")

#: Default timing-wheel geometry: 512 buckets of 0.5 ms cover a 256 ms
#: horizon — wide enough for the default latency model's delay band
#: (20 ms same-region / 120 ms cross-region base plus jitter) with slack
#: for the wheel origin trailing ``now``. :class:`~repro.net.network.
#: Network` retunes its loop from the latency model's actual band via
#: :meth:`EventLoop.configure_wheel_for_band`.
DEFAULT_WHEEL_SLOTS = 512
DEFAULT_WHEEL_WIDTH = 0.0005

#: Floor for a derived bucket width — a degenerate band (all-zero
#: latencies) must not produce zero-width buckets.
MIN_WHEEL_WIDTH = 1e-5

#: A ``_hold`` key below every queue entry: no collected entry pending.
_NO_HOLD = (-_INFINITY, 0)


class TimerHandle:
    """Handle returned by :meth:`EventLoop.schedule`; supports cancel()."""

    __slots__ = ("when", "callback", "args", "cancelled", "_loop")

    #: Class flag the dispatch path branches on instead of isinstance().
    _repeating = False

    def __init__(self, when: float, callback: Callable[..., Any], args: tuple) -> None:
        self.when = when
        self.callback = callback
        self.args = args
        self.cancelled = False
        # The loop whose queue currently holds this handle; None once the
        # handle is popped (or never queued). Lets cancel() keep the
        # loop's live-event counter exact without a queue scan.
        self._loop: "EventLoop | None" = None

    def cancel(self) -> None:
        """Mark the event cancelled; the loop skips it when it surfaces."""
        if self.cancelled:
            return
        self.cancelled = True
        loop = self._loop
        if loop is not None:
            loop._live -= 1
            self._loop = None


class RepeatingHandle(TimerHandle):
    """Handle for one :meth:`EventLoop.call_every` chain.

    Unlike a plain :class:`TimerHandle`, this handle *is* the entry in
    the loop's queue: after each tick it re-inserts itself, advancing
    :attr:`when` to the next occurrence. ``cancel()`` therefore stops
    the chain directly, and the loop's ``pending`` count sees exactly
    one entry per repeating timer. Repeating timers are a heap-class
    timer by design — they span arbitrary intervals, so they bypass the
    wheel entirely (see the module docstring).
    """

    __slots__ = ("interval", "until")

    _repeating = True

    def __init__(
        self,
        when: float,
        callback: Callable[..., Any],
        args: tuple,
        interval: float,
        until: float | None,
    ) -> None:
        super().__init__(when, callback, args)
        self.interval = interval
        self.until = until

    def _fire(self, loop: "EventLoop") -> None:
        """Run one tick and reschedule the next occurrence."""
        if self.until is not None and loop.now > self.until:
            return
        self.callback(*self.args)
        if self.cancelled:  # the callback may cancel its own chain
            return
        self.when = loop.now + self.interval
        self._loop = loop
        loop._live += 1
        heappush(loop._heap, (self.when, next(loop._seq), self))


class EventLoop:
    """A two-tier (timing wheel + binary heap) discrete-event scheduler.

    The wheel covers ``[_wheel_tick * width, (_wheel_tick + slots) *
    width)``: an entry whose bucket index (``int(when / width)``) falls
    in that window is appended to its bucket in O(1); everything else —
    including every entry while the wheel is disabled — goes to the
    heap. At dispatch time the next due bucket is *collected*: its
    generic entries (handles, 4-tuples, a send plane's head) go onto the
    heap and its datagram rows become the **row cursor**. Buckets
    partition time, so the global minimum is always the smaller of
    ``heap[0]`` and the cursor's head: every dispatch site chooses
    between exactly those two heads.

    **Batched datagram columns.** Each slot owns three *column rings* —
    ``array('d')`` of whens, ``array('q')`` of seqs, and a flat stride-4
    list of ``(host, port, payload, src)`` — that the network's send
    paths append in-band deliveries into, drawing each seq as they
    append (:meth:`set_datagram_plane`). Collection swaps the slot's
    columns for the spent cursor's, so arrays are reused lap after lap,
    and makes the cursor the row indices stably sorted by ``when`` and
    reversed for ``pop()``: ties keep seq order. No per-row object is
    built, so nothing is left for the garbage collector to walk.
    Dispatch hands each contiguous run of due rows to the installed
    drain in **one callback frame**, still merging per item against the
    heap top.

    **Send plane.** A loop may also drive one precomputed send program
    (:meth:`arm_send_plane`, used by :mod:`repro.net.shard`): a single
    queued ``(when, seq)`` head stands for all of its remaining sends,
    and its frame fires them, interleaved with due delivery rows, in
    the same ``(when, seq)`` order one queued event per send would have.
    """

    #: Slotted for the same reason the per-packet classes are: the
    #: dispatch and schedule paths touch half a dozen loop attributes
    #: per event, and slot access skips the instance-dict indirection.
    __slots__ = (
        "now", "_heap", "_seq", "_events_fired", "_live",
        "_wheel", "_wheel_tick", "_wheel_count",
        "_wheel_width", "_wheel_inv", "_wheel_slots",
        "_bwhen", "_bseq", "_bobjs", "_order", "_rwhen", "_rseq", "_robjs",
        "_hold", "_dg_drain", "_dg_callback", "_plane",
        "wheel_scheduled", "wheel_overflow",
        "wheel_batched", "wheel_batch_drains",
    )

    #: Class-wide observer sinks (see :mod:`repro.harness.profile`). A
    #: tuple so the hot-path emptiness check is a plain truthiness test.
    _sinks: ClassVar[tuple] = ()

    #: Class-wide pre-fire trace hook: ``_trace(loop, entry_or_handle)``
    #: called before each event's callback runs. One hook, not a tuple —
    #: it sits on the hottest line in the simulator, and DetSan is its
    #: only client.
    _trace: ClassVar[Any] = None

    def __init__(
        self,
        wheel_width: float | None = None,
        wheel_slots: int | None = None,
    ) -> None:
        self.now: float = 0.0
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._events_fired = 0
        #: Not-yet-cancelled entries queued (heap + wheel + row cursor) —
        #: the O(1) source of :attr:`pending`, maintained by push/cancel/pop.
        self._live = 0
        # -- timing wheel state (geometry set by configure_wheel) ------
        self._wheel: list[list] = []
        self._wheel_tick = 0  # next bucket index not yet collected
        self._wheel_count = 0  # entries resident in buckets (not cursor)
        self._wheel_width = 0.0
        self._wheel_inv = 0.0
        self._wheel_slots = 0
        # -- batched datagram columns (see the class docstring) --------
        self._bwhen: list = []
        self._bseq: list = []
        self._bobjs: list = []
        # -- row cursor: the collected columns and unfired row indices,
        # ``when``-descending so pop() is the head.
        self._order: list[int] = []
        self._rwhen = array("d")
        self._rseq = array("q")
        self._robjs: list = []
        #: Key just past the collected bucket's last generic entry: the
        #: next bucket is not collected while ``heap[0] < _hold``, so
        #: buckets advance when a whole-bucket cursor would have run dry.
        self._hold: tuple = _NO_HOLD
        #: Installed by :meth:`set_datagram_plane`; ``None`` on loops
        #: with no network attached (pure-timer loops never see rows).
        self._dg_drain: Any = None
        self._dg_callback: Any = None
        #: Installed by :meth:`arm_send_plane`; ``None`` on loops that
        #: run no precomputed send program.
        self._plane: Any = None
        #: Cumulative wheel counters, surfaced by :meth:`wheel_stats`.
        self.wheel_scheduled = 0
        self.wheel_overflow = 0
        self.wheel_batched = 0
        self.wheel_batch_drains = 0
        if wheel_slots is None:
            wheel_slots = DEFAULT_WHEEL_SLOTS
        if wheel_width is None:
            wheel_width = DEFAULT_WHEEL_WIDTH
        self.configure_wheel(wheel_width if wheel_slots else None, wheel_slots)

    # -- instrumentation -------------------------------------------------

    @classmethod
    def add_sink(cls, sink: Any) -> None:
        """Register an observer notified as ``sink.record(loop, handle)``."""
        cls._sinks = cls._sinks + (sink,)  # repro: allow[SHARD001] harness-owned observability, not sim state

    @classmethod
    def remove_sink(cls, sink: Any) -> None:
        """Unregister a sink previously passed to :meth:`add_sink`."""
        cls._sinks = tuple(s for s in cls._sinks if s is not sink)  # repro: allow[SHARD001] harness-owned observability, not sim state

    @classmethod
    def set_trace(cls, hook: Any) -> None:
        """Install the pre-fire trace hook (replacing any previous one)."""
        cls._trace = hook  # repro: allow[SHARD001] harness-owned observability, not sim state

    @classmethod
    def clear_trace(cls) -> None:
        """Remove the pre-fire trace hook."""
        cls._trace = None  # repro: allow[SHARD001] harness-owned observability, not sim state

    def set_datagram_plane(self, drain: Any, callback: Any) -> None:
        """Install the network's batched datagram delivery plane.

        ``drain(deadline, budget) -> fired`` is invoked by the dispatch
        loops whenever the row cursor's head is the queue minimum: it
        must pop and fire consecutive due rows (merging per item against
        the heap top and honouring ``deadline``/``budget``) and return
        how many it fired. ``callback`` is the representative
        per-datagram callable — what a classic entry would have carried
        — used to synthesize legacy-shaped entries for sinks, the trace
        hook, flushes to the heap, and :meth:`_iter_queued`.
        """
        self._dg_drain = drain
        self._dg_callback = callback

    def arm_send_plane(self, when: float, frame: Any) -> None:
        """Queue the head of a precomputed send program at ``when``.

        The head is one bare ``(when, seq)`` entry standing for every
        send the program has left; it counts once in :attr:`pending`
        until the program's last send fires. When the dispatch loops
        select it they call ``frame(when, seq, deadline, budget) ->
        fired``, which must fire at least one send, keep firing due
        sends and batched delivery rows in ``(when, seq)`` order within
        ``deadline`` and ``budget``, and then either re-queue the head
        under the next send's key or, once the program is spent,
        release its ``pending`` count. Each send is one fired event;
        the frame reports it to the trace hook and sinks itself. A loop
        drives at most one plane.
        """
        if self._plane is not None:
            raise ConfigurationError("this loop already drives a send plane")
        if when < self.now:
            raise ConfigurationError(f"cannot arm a send plane at {when} < now {self.now}")
        self._plane = frame
        self._live += 1
        self._enqueue((when, next(self._seq)))

    @property
    def wheel_occupancy(self) -> int:
        """Entries currently wheel-resident: bucket residents plus unfired
        cursor rows (a collected bucket's generic entries are on the heap)."""
        return self._wheel_count + len(self._order)

    def wheel_stats(self) -> dict:
        """The wheel's geometry and counters, for profile sinks/benches."""
        return {
            "slots": self._wheel_slots,
            "bucket_width": self._wheel_width,
            "scheduled": self.wheel_scheduled,
            "overflow": self.wheel_overflow,
            "occupancy": self.wheel_occupancy,
            "batched": self.wheel_batched,
            "batch_drains": self.wheel_batch_drains,
        }

    def _iter_column_rows(self):
        """Yield every queued batched row, cursor first, legacy-shaped."""
        cb = self._dg_callback
        sets = [(self._rwhen, self._rseq, self._robjs, reversed(self._order))]
        sets += [(w, s, o, range(len(w))) for w, s, o in zip(self._bwhen, self._bseq, self._bobjs)]
        for whens, seqs, objs, rows in sets:
            for i in rows:
                yield (whens[i], seqs[i], cb, tuple(objs[4 * i:4 * i + 4]))

    def _iter_queued(self):
        """Yield every queued entry across both tiers (tests/debug only).

        Batched datagram rows — column-resident or in the row cursor —
        and a send plane's head surface in the legacy ``(when, seq,
        callback, args)`` shape so queue scans need only one tuple
        vocabulary.
        """
        plane = self._plane
        for entry in itertools.chain(self._heap, *self._wheel):
            if len(entry) == 2:
                yield (entry[0], entry[1], plane, ())
            else:
                yield entry
        yield from self._iter_column_rows()

    # -- wheel geometry --------------------------------------------------

    def configure_wheel(
        self,
        bucket_width: float | None,
        slots: int = DEFAULT_WHEEL_SLOTS,
    ) -> None:
        """Resize the wheel; ``bucket_width=None`` or ``slots=0`` disables it.

        Safe mid-run: bucket residents and the row cursor are flushed to
        the heap (the cursor too: the new origin is ``now``, so a later
        in-band entry may land before its rows), and dispatch merges the
        tiers by ``(when, seq)``. Counters survive reconfiguration.
        """
        if bucket_width is not None and bucket_width <= 0:
            raise ConfigurationError(f"bucket width must be positive (got {bucket_width})")
        heap = self._heap
        for bucket in self._wheel:
            for entry in bucket:
                heappush(heap, entry)
        # Batched datagram rows flush in the legacy entry shape, so a
        # reconfigured (or disabled) wheel degrades to the classic
        # per-entry heap path with order intact.
        for entry in self._iter_column_rows():
            heappush(heap, entry)
        self._order = []
        self._hold = _NO_HOLD
        if bucket_width is None or slots <= 0:
            self._wheel = []
            self._bwhen = []
            self._bseq = []
            self._bobjs = []
            self._wheel_width = 0.0
            self._wheel_inv = 0.0
            self._wheel_slots = 0
            self._wheel_tick = 0
        else:
            self._wheel = [[] for _ in range(slots)]
            self._bwhen = [array("d") for _ in range(slots)]
            self._bseq = [array("q") for _ in range(slots)]
            self._bobjs = [[] for _ in range(slots)]
            self._wheel_width = bucket_width
            self._wheel_inv = 1.0 / bucket_width
            self._wheel_slots = slots
            self._wheel_tick = int(self.now * self._wheel_inv)
        self._wheel_count = 0

    def configure_wheel_for_band(
        self,
        max_delay: float,
        slots: int = DEFAULT_WHEEL_SLOTS,
    ) -> None:
        """Pick a bucket width so delays up to ``max_delay`` stay in-band.

        The horizon is 2x the band: the wheel origin trails ``now`` by
        up to one collected bucket plus scheduling slack, and anything
        past the horizon (fault impairments, uplink queueing spikes)
        overflows to the heap, which is exactly where rare long timers
        belong.
        """
        if slots <= 0:
            self.configure_wheel(None, 0)
            return
        width = (2.0 * max_delay) / slots
        if width < MIN_WHEEL_WIDTH:
            width = MIN_WHEEL_WIDTH
        if width == self._wheel_width and slots == self._wheel_slots:
            # Same geometry: skip the reconfigure so steady-state
            # auto-retune checks don't flush bucket residents for
            # nothing. (An idle wheel whose origin trails `now` resyncs
            # itself in _overflow.)
            return
        self.configure_wheel(width, slots)

    # -- scheduling ------------------------------------------------------

    def _enqueue(self, entry: tuple) -> None:
        """Route one ``(when, seq, …)`` entry to the wheel or the heap.

        The network's send paths inline the same band test for their
        column appends (a call frame per datagram is measurable at swarm
        scale).
        """
        tick = int(entry[0] * self._wheel_inv)
        if 0 <= tick - self._wheel_tick < self._wheel_slots:
            self._wheel[tick % self._wheel_slots].append(entry)
            self._wheel_count += 1
            self.wheel_scheduled += 1
        else:
            self._overflow(entry, tick)

    def _overflow(self, entry: tuple, tick: int) -> None:
        """Heap fallback for out-of-band entries (resyncs an idle wheel)."""
        if (self._wheel_slots and not self._wheel_count and not self._order
                and not (self._heap and self._heap[0] < self._hold)):
            base = int(self.now * self._wheel_inv)
            if base > self._wheel_tick:
                # The wheel sat idle while heap events advanced the
                # clock; drag the origin forward and re-test the band.
                self._wheel_tick = base
                if 0 <= tick - base < self._wheel_slots:
                    self._wheel[tick % self._wheel_slots].append(entry)
                    self._wheel_count += 1
                    self.wheel_scheduled += 1
                    return
        self.wheel_overflow += 1
        heappush(self._heap, entry)

    def _push(self, handle: TimerHandle) -> None:
        """Queue ``handle`` and account for it in the live counter."""
        handle._loop = self
        self._live += 1
        self._enqueue((handle.when, next(self._seq), handle))

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> TimerHandle:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ConfigurationError(f"cannot schedule in the past (delay={delay})")
        handle = TimerHandle(self.now + delay, callback, args)
        self._push(handle)
        return handle

    def schedule_fast(self, when: float, callback: Callable[..., Any], args: tuple) -> None:
        """Trusted fast path for hot callers: anonymous, not cancellable.

        Skips :meth:`schedule`'s bounds check and the
        :class:`TimerHandle`: the queue entry itself is a ``(when, seq,
        callback, args)`` 4-tuple the dispatch paths special-case by
        length. The caller guarantees ``when >= now`` and gets no handle
        back, so the event cannot be cancelled.
        """
        self._live += 1
        self._enqueue((when, next(self._seq), callback, args))

    def schedule_at(self, when: float, callback: Callable[..., Any], *args: Any) -> TimerHandle:
        """Run ``callback(*args)`` at absolute time ``when``."""
        if when < self.now:
            raise ConfigurationError(f"cannot schedule at {when} < now {self.now}")
        handle = TimerHandle(when, callback, args)
        self._push(handle)
        return handle

    def call_every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        until: float | None = None,
    ) -> RepeatingHandle:
        """Schedule a repeating callback every ``interval`` seconds.

        Returns the :class:`RepeatingHandle` driving the chain: its
        ``when`` always points at the next occurrence, and ``cancel()``
        stops the repetition. A tick scheduled past ``until`` fires
        nothing and ends the chain. Repeating handles live on the heap,
        never the wheel, matching :meth:`RepeatingHandle._fire`'s
        re-insertion.
        """
        if interval <= 0:
            raise ConfigurationError("interval must be positive")
        handle = RepeatingHandle(self.now + interval, callback, args, interval, until)
        handle._loop = self
        self._live += 1
        heappush(self._heap, (handle.when, next(self._seq), handle))
        return handle

    # -- execution -------------------------------------------------------

    # step(), run_until(), run_until_window() and run_all() intentionally
    # duplicate the fire sequence (two-head selection, anonymous-vs-handle
    # branch, live-counter bookkeeping, pre-fire trace hook,
    # repeating-vs-plain branch, sink notification): one event is one
    # pass through this code, and the extra call frames of a shared
    # helper are measurable at swarm scale. Selection: the smaller of
    # heap[0] and the row head by ``(when, seq)`` (seq is unique, so a
    # comparison never reaches a third element); a due row head goes to
    # the drain, which fires the whole consecutive run in one frame.
    # Anonymous events — the ``(when, seq, callback, args)`` 4-tuples
    # pushed by :meth:`schedule_fast` — take the first fire branch: no
    # cancelled check, no handle bookkeeping. Sinks receive the raw
    # 4-tuple for those (see ``repro.harness.profile.callback_of``).
    # A bare ``(when, seq)`` 2-tuple is a send plane's head
    # (:meth:`arm_send_plane`): the loop hands it the deadline and the
    # remaining budget and adds what the frame fired, as it does for
    # the row drain; the head's ``pending`` count is the frame's to
    # release.
    # run_until() and run_all() accumulate the fired count in a local
    # and flush it in a ``finally``, so ``events_fired`` is only
    # guaranteed current *between* drain calls — no in-tree callback
    # reads it mid-drain.

    def _collect(self) -> None:
        """Collect the next nonempty bucket (see the class docstring).

        Only called when the row cursor is empty, no earlier collected
        generic entry is still on the heap, and ``_wheel_count > 0``;
        every resident entry lies within one lap ahead of
        ``_wheel_tick``, so the scan ends within ``slots`` probes.
        """
        wheel = self._wheel
        bwhen = self._bwhen
        n = self._wheel_slots
        tick = self._wheel_tick
        slot = tick % n
        while not wheel[slot] and not bwhen[slot]:
            tick += 1
            slot = tick % n
        self._wheel_tick = tick + 1
        bucket = wheel[slot]
        if bucket:
            wheel[slot] = []
            self._wheel_count -= len(bucket)
            heap = self._heap
            for entry in bucket:
                heappush(heap, entry)
            last = max(bucket)
            self._hold = (last[0], last[1] + 1)
        else:
            self._hold = _NO_HOLD
        whens = bwhen[slot]
        if whens:
            bseq = self._bseq
            bobjs = self._bobjs
            spare_when, spare_seq, spare_objs = self._rwhen, self._rseq, self._robjs
            del spare_when[:], spare_seq[:], spare_objs[:]
            self._rwhen, self._rseq, self._robjs = whens, bseq[slot], bobjs[slot]
            bwhen[slot], bseq[slot], bobjs[slot] = spare_when, spare_seq, spare_objs
            self._wheel_count -= len(whens)
            order = sorted(range(len(whens)), key=whens.__getitem__)
            order.reverse()
            self._order = order

    def step(self) -> bool:
        """Fire the next event. Returns False when the queue is empty."""
        heap = self._heap
        while True:
            order = self._order
            if not order and self._wheel_count and not (heap and heap[0] < self._hold):
                self._collect()
                order = self._order
            if order:
                i = order[-1]
                if heap and heap[0] < (self._rwhen[i], self._rseq[i]):
                    entry = heappop(heap)
                else:
                    # Batched datagram row: the installed drain fires
                    # exactly one (budget=1) and keeps step() semantics.
                    self._dg_drain(_INFINITY, 1)
                    self._events_fired += 1
                    return True
            elif heap:
                entry = heappop(heap)
            else:
                return False
            if len(entry) == 4:
                self._live -= 1
                self.now = entry[0]
                if EventLoop._trace is not None:
                    EventLoop._trace(self, entry)
                entry[2](*entry[3])
                handle: Any = entry
            elif len(entry) == 2:
                # The send plane's head: its frame fires exactly one send.
                self._plane(entry[0], entry[1], _INFINITY, 1)
                self._events_fired += 1
                return True
            else:
                when, _, handle = entry
                if handle.cancelled:
                    continue
                self._live -= 1
                handle._loop = None
                self.now = when
                if EventLoop._trace is not None:
                    EventLoop._trace(self, handle)
                if handle._repeating:
                    handle._fire(self)
                else:
                    handle.callback(*handle.args)
            self._events_fired += 1
            if EventLoop._sinks:
                for sink in EventLoop._sinks:
                    sink.record(self, handle)
            return True

    def run_until(self, deadline: float) -> None:
        """Fire all events scheduled at or before ``deadline``."""
        heap = self._heap
        fired = 0
        try:
            while True:
                # Re-read per iteration: _collect() replaces the cursor,
                # and a callback may nest another drain call.
                order = self._order
                if not order and self._wheel_count and not (heap and heap[0] < self._hold):
                    self._collect()
                    order = self._order
                if order:
                    i = order[-1]
                    if heap and heap[0] < (self._rwhen[i], self._rseq[i]):
                        if heap[0][0] > deadline:
                            break
                        entry = heappop(heap)
                    else:
                        # Batched datagram run: one drain frame fires
                        # every consecutive due row (per-item heap
                        # merge inside); zero fired means the row head
                        # lies beyond the deadline.
                        n = self._dg_drain(deadline, _MAX_EVENTS)
                        if n == 0:
                            break
                        fired += n
                        continue
                elif heap:
                    if heap[0][0] > deadline:
                        break
                    entry = heappop(heap)
                else:
                    break
                if len(entry) == 4:
                    self._live -= 1
                    self.now = entry[0]
                    if EventLoop._trace is not None:
                        EventLoop._trace(self, entry)
                    entry[2](*entry[3])
                    handle: Any = entry
                elif len(entry) == 2:
                    # The send plane's head: one frame fires the due
                    # sends and the delivery rows between them.
                    fired += self._plane(entry[0], entry[1], deadline, _MAX_EVENTS)
                    continue
                else:
                    when, _, handle = entry
                    if handle.cancelled:
                        continue
                    self._live -= 1
                    handle._loop = None
                    self.now = when
                    if EventLoop._trace is not None:
                        EventLoop._trace(self, handle)
                    if handle._repeating:
                        handle._fire(self)
                    else:
                        handle.callback(*handle.args)
                fired += 1
                if EventLoop._sinks:
                    for sink in EventLoop._sinks:
                        sink.record(self, handle)
        finally:
            self._events_fired += fired
        self.now = max(self.now, deadline)

    def run(self, duration: float) -> None:
        """Advance the clock ``duration`` seconds, firing due events."""
        self.run_until(self.now + duration)

    def run_until_window(self, deadline: float, max_events: int | None = None) -> int:
        """Fire events up to ``deadline`` under an exact event budget.

        The conservative-PDES window primitive (see ``docs/SHARDING.md``):
        a shard's coordinator drives the loop one lookahead window at a
        time, and — unlike :meth:`run_until` — needs both the fired
        count back (for ``run_all(max_events=N)`` exactness across
        shards) and a budget that stops dispatch *mid-window* without
        firing a budget+1-th event. When the budget interrupts the
        window, ``now`` is **not** advanced to ``deadline`` — due events
        may remain at or before it, and a later :meth:`inject` of a
        remote arrival inside the window must still be legal. A window
        that completes (``fired < budget``) advances ``now`` to the
        barrier exactly like :meth:`run_until`.
        """
        heap = self._heap
        budget = _MAX_EVENTS if max_events is None else max_events
        if budget <= 0:
            return 0
        fired = 0
        try:
            while True:
                # Re-read per iteration: _collect() replaces the cursor,
                # and a callback may nest another drain call.
                order = self._order
                if not order and self._wheel_count and not (heap and heap[0] < self._hold):
                    self._collect()
                    order = self._order
                if order:
                    i = order[-1]
                    if heap and heap[0] < (self._rwhen[i], self._rseq[i]):
                        if heap[0][0] > deadline:
                            break
                        entry = heappop(heap)
                    else:
                        n = self._dg_drain(deadline, budget - fired)
                        if n == 0:
                            break
                        fired += n
                        if fired >= budget:
                            break
                        continue
                elif heap:
                    if heap[0][0] > deadline:
                        break
                    entry = heappop(heap)
                else:
                    break
                if len(entry) == 4:
                    self._live -= 1
                    self.now = entry[0]
                    if EventLoop._trace is not None:
                        EventLoop._trace(self, entry)
                    entry[2](*entry[3])
                    handle: Any = entry
                elif len(entry) == 2:
                    fired += self._plane(entry[0], entry[1], deadline, budget - fired)
                    if fired >= budget:
                        break
                    continue
                else:
                    when, _, handle = entry
                    if handle.cancelled:
                        continue
                    self._live -= 1
                    handle._loop = None
                    self.now = when
                    if EventLoop._trace is not None:
                        EventLoop._trace(self, handle)
                    if handle._repeating:
                        handle._fire(self)
                    else:
                        handle.callback(*handle.args)
                fired += 1
                if EventLoop._sinks:
                    for sink in EventLoop._sinks:
                        sink.record(self, handle)
                if fired >= budget:
                    break
        finally:
            self._events_fired += fired
        if fired < budget:
            self.now = max(self.now, deadline)
        return fired

    def inject(self, when: float, callback: Callable[..., Any], args: tuple) -> None:
        """Enqueue a remote arrival under the window protocol.

        The cross-shard merge seam: the shard coordinator hands each
        remote datagram to the destination loop through here, and the
        entry joins the queue with a *fresh local* sequence number —
        dispatch therefore orders it by the same ``(when, seq)``
        comparison as every local event (seq re-keying, see
        ``docs/SHARDING.md``). ``when < now`` means a remote event
        arrived inside a window the loop already executed: the
        conservative protocol guarantees this never happens, so it is a
        hard error rather than a silent reordering.
        """
        if when < self.now:
            raise ConfigurationError(
                f"cannot inject at {when} < now {self.now} (window protocol violated)"
            )
        self._live += 1
        self._enqueue((when, next(self._seq), callback, args))

    def run_all(self, max_events: int = 1_000_000) -> None:
        """Drain the queue completely (bounded to catch runaway loops).

        Fires at most ``max_events`` events: the bound is exact — if
        live events remain once it is reached, the loop raises without
        firing a ``max_events + 1``-th event.
        """
        heap = self._heap
        fired = 0
        try:
            while True:
                # Re-read per iteration: _collect() replaces the cursor,
                # and a callback may nest another drain call.
                order = self._order
                if not order and self._wheel_count and not (heap and heap[0] < self._hold):
                    self._collect()
                    order = self._order
                if order:
                    i = order[-1]
                    if heap and heap[0] < (self._rwhen[i], self._rseq[i]):
                        entry = heappop(heap)
                    else:
                        # Batched datagram run: one drain frame, exact
                        # max_events budget (the drain stops mid-run
                        # rather than firing a budget+1-th event).
                        fired += self._dg_drain(_INFINITY, max_events - fired)
                        if fired >= max_events and self._live:
                            raise RuntimeError(
                                f"event loop exceeded {max_events} events; "
                                "likely a livelock"
                            )
                        continue
                elif heap:
                    entry = heappop(heap)
                else:
                    break
                if len(entry) == 4:
                    self._live -= 1
                    self.now = entry[0]
                    if EventLoop._trace is not None:
                        EventLoop._trace(self, entry)
                    entry[2](*entry[3])
                    handle: Any = entry
                elif len(entry) == 2:
                    fired += self._plane(entry[0], entry[1], _INFINITY, max_events - fired)
                    if fired >= max_events and self._live:
                        raise RuntimeError(
                            f"event loop exceeded {max_events} events; likely a livelock"
                        )
                    continue
                else:
                    when, _, handle = entry
                    if handle.cancelled:
                        continue
                    self._live -= 1
                    handle._loop = None
                    self.now = when
                    if EventLoop._trace is not None:
                        EventLoop._trace(self, handle)
                    if handle._repeating:
                        handle._fire(self)
                    else:
                        handle.callback(*handle.args)
                fired += 1
                if EventLoop._sinks:
                    for sink in EventLoop._sinks:
                        sink.record(self, handle)
                if fired >= max_events and self._live:
                    raise RuntimeError(
                        f"event loop exceeded {max_events} events; likely a livelock"
                    )
        finally:
            self._events_fired += fired

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._live

    @property
    def events_fired(self) -> int:
        """Total events this loop has fired since construction."""
        return self._events_fired
