"""Reference scheduler: one binary heap, one queue entry per event.

This is the definition of the order :class:`~repro.net.clock.EventLoop`
must reproduce. Every event is a ``(when, seq, …)`` heap entry, its seq
drawn when it is queued, and events fire in ``(when, seq)`` order. There
is no wheel, no row cursor and no batching.

It exposes the few wheel attributes :class:`~repro.net.network.Network`
reads, set to "wheel disabled" (``_wheel_slots == 0``). A network built
on it therefore queues every datagram as a classic ``(when, seq,
deliver, args)`` entry through :meth:`_overflow`.
"""

import itertools
from heapq import heappop, heappush

from repro.net.clock import TimerHandle

_INF = float("inf")


class ReferenceLoop:
    """A pure-heap event loop with the EventLoop dispatch API."""

    _wheel_inv = 0.0
    _wheel_tick = 0
    _wheel_slots = 0

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._live = 0
        self.events_fired = 0
        self.wheel_scheduled = 0
        self.wheel_overflow = 0

    def set_datagram_plane(self, drain, callback) -> None:
        """No datagram plane: deliveries are ordinary heap entries."""

    def configure_wheel_for_band(self, max_delay: float, slots: int = 0) -> None:
        """No wheel to size."""

    def _overflow(self, entry: tuple, tick: int) -> None:
        heappush(self._heap, entry)

    def schedule_fast(self, when, callback, args) -> None:
        self._live += 1
        heappush(self._heap, (when, next(self._seq), callback, args))

    def schedule_at(self, when, callback, *args) -> TimerHandle:
        handle = TimerHandle(when, callback, args)
        handle._loop = self  # cancel() then keeps _live exact
        self._live += 1
        heappush(self._heap, (when, next(self._seq), handle))
        return handle

    def schedule(self, delay, callback, *args) -> TimerHandle:
        return self.schedule_at(self.now + delay, callback, *args)

    @property
    def pending(self) -> int:
        return self._live

    def _fire_next(self, deadline: float) -> bool:
        """Fire the first live event due by ``deadline``; False if none."""
        heap = self._heap
        while heap and heap[0][0] <= deadline:
            entry = heappop(heap)
            if len(entry) == 3:
                handle = entry[2]
                if handle.cancelled:
                    continue
                handle._loop = None
                callback, args = handle.callback, handle.args
            else:
                callback, args = entry[2], entry[3]
            self._live -= 1
            self.now = entry[0]
            self.events_fired += 1
            callback(*args)
            return True
        return False

    def step(self) -> bool:
        return self._fire_next(_INF)

    def run_until(self, deadline: float) -> None:
        while self._fire_next(deadline):
            pass
        self.now = max(self.now, deadline)

    def run_until_window(self, deadline: float, max_events: int | None = None) -> int:
        budget = _INF if max_events is None else max_events
        fired = 0
        while fired < budget and self._fire_next(deadline):
            fired += 1
        if fired < budget:
            self.now = max(self.now, deadline)
        return fired

    def run_all(self, max_events: int = 1_000_000) -> None:
        fired = 0
        while self._fire_next(_INF):
            fired += 1
            if fired >= max_events and self._live:
                raise RuntimeError(f"event loop exceeded {max_events} events")
