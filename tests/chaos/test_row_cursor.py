"""The row cursor against the reference heap scheduler.

A collected wheel bucket is split in two: its generic entries (timer
handles, classic 4-tuples, a send plane's head) go onto the heap, and
its datagram rows become a cursor of row indices sorted by ``when``
over the bucket's columns. Dispatch must still fire exactly the
``(when, seq)`` order of a pure heap. Every scenario here runs twice,
on :class:`~repro.net.clock.EventLoop` and on
:class:`tests.chaos.heap_reference.ReferenceLoop`, and the delivery
logs, clocks and counters must match entry for entry.

The scenarios pack one bucket with every entry shape at exact-time
ties, run handlers that send, bind, close sockets and nest
``run_until`` mid-drain, reconfigure the wheel between drains, and
drive the loop through ``step``/``run_until``/``run_until_window``
budgets. One test pins the allocation property the cursor exists for.
"""

import gc

import pytest

from repro.net.addresses import Endpoint
from repro.net.clock import EventLoop
from repro.net.network import Network
from repro.util.rand import DeterministicRandom

from tests.chaos.heap_reference import ReferenceLoop

PORT = 5000
#: Same-region base latency with zero jitter: every datagram lands
#: exactly 20 ms after its send, so sends at one instant tie exactly.
LATENCY = 0.02
GRID = 0.0005  # send instants: multiples of this, so arrivals tie often


def arm_sends(loop, times: list[float], fire) -> None:
    """Drive ``fire(i)`` at ``times[i]`` as a send plane or an event chain.

    On an :class:`EventLoop` this is a send plane whose frame fires one
    send and re-queues its ``(when, seq)`` head, drawing the next seq
    after the send. The reference runs the same sends as a chain of
    anonymous events, each scheduling its successor after its send —
    the same seq stream, so the two orders must agree exactly.
    """
    if isinstance(loop, EventLoop):
        nxt = [0]

        def frame(when, seq, deadline, budget):
            loop.now = when
            i = nxt[0]
            nxt[0] = i + 1
            fire(i)
            if nxt[0] == len(times):
                loop._live -= 1
            else:
                loop._enqueue((times[nxt[0]], next(loop._seq)))
            return 1

        loop.arm_send_plane(times[0], frame)
    else:
        def chain(i):
            fire(i)
            if i + 1 < len(times):
                loop.schedule_fast(times[i + 1], chain, (i + 1,))

        loop.schedule_fast(times[0], chain, (0,))


class Scenario:
    """One seeded mixed-shape run on a given loop."""

    def __init__(self, seed, loop, *, hosts: int = 6, sends: int = 120, wheel=(GRID, 64)):
        self.rand = DeterministicRandom(f"row-cursor:{seed}")
        self.loop = loop
        self.net = Network(loop=loop, rand=DeterministicRandom(seed),
                           base_latency=LATENCY, jitter=0.0)
        self.net.auto_retune = False
        if isinstance(loop, EventLoop):
            loop.configure_wheel(*wheel)
        self.hosts = [self.net.add_host(f"h{i}") for i in range(hosts)]
        self.log: list[tuple] = []
        self.next_id = 0
        for host in self.hosts:
            host.bind_udp(PORT, handler=self.on_datagram)
        self.plan_timers(sends)

    # -- traffic ---------------------------------------------------------

    def send(self, src, dst, action: int) -> None:
        ident = self.next_id
        self.next_id += 1
        payload = bytes([action]) + ident.to_bytes(4, "big")
        self.net.send_datagram(src, PORT, Endpoint(dst.ip, PORT), payload)

    def burst(self, label: str) -> None:
        """Send a few datagrams now: they all arrive at one exact instant."""
        self.log.append(("burst", label, self.loop.now))
        for _ in range(self.rand.randint(1, 4)):
            src = self.rand.choice(self.hosts)
            dst = self.rand.choice(self.hosts)
            self.send(src, dst, self.rand.randint(0, 7))

    def plan_timers(self, sends: int) -> None:
        """Sends on a grid, plus timers and classic entries tied to arrivals."""
        loop = self.loop
        rand = self.rand
        times = sorted(rand.randint(0, 40) * GRID for _ in range(sends // 4))
        arm_sends(loop, times, lambda i: self.burst(f"plane{i}"))
        for k in range(sends):
            t = rand.randint(0, 60) * GRID
            kind = rand.randint(0, 3)
            if kind == 0:
                loop.schedule_at(t, self.burst, f"timer{k}")
            elif kind == 1:
                # Exactly at a grid arrival instant: ties with rows.
                loop.schedule_at(t + LATENCY, self.mark, f"tie{k}")
            elif kind == 2:
                loop.schedule_fast(t + LATENCY, self.mark, (f"fast{k}",))
            else:
                handle = loop.schedule_at(t + LATENCY, self.mark, f"cancelled{k}")
                loop.schedule_at(t, handle.cancel)

    def mark(self, label: str) -> None:
        self.log.append(("mark", label, self.loop.now))

    # -- handler actions ---------------------------------------------------

    def on_datagram(self, payload, src, sock) -> None:
        action = payload[0]
        self.log.append(("dgram", int.from_bytes(payload[1:], "big"), sock.host.name,
                         sock.port, self.loop.now))
        host = sock.host
        if action == 1:  # reply: a fresh row 20 ms out
            self.send(host, self.rand.choice(self.hosts), 0)
        elif action == 2:  # bind a fresh socket mid-drain
            host.bind_udp(0, handler=self.on_datagram)
        elif action == 3:  # close some host's main socket: later rows drop
            victim = self.rand.choice(self.hosts).sockets.get(PORT)
            if victim is not None and not victim.closed:
                victim.close()
        elif action == 4:  # rebind a closed main socket
            target = self.rand.choice(self.hosts)
            if PORT not in target.sockets:
                target.bind_udp(PORT, handler=self.on_datagram)
        elif action == 5:  # nest a drain that may collect later buckets
            self.loop.run_until(self.loop.now + 3 * GRID)
        elif action == 6:  # an event at this very instant, behind the rows
            self.loop.schedule_fast(self.loop.now, self.mark, ("now",))

    def outcome(self) -> dict:
        net = self.net
        return {
            "log": self.log,
            "now": self.loop.now,
            "pending": self.loop.pending,
            "events": self.loop.events_fired,
            "delivered": net.datagrams_delivered,
            "dropped": net.datagrams_dropped,
            "by_reason": dict(net.drops_by_reason),
            "in_flight": net.datagrams_in_flight,
        }


def both(seed, drive, **kwargs) -> tuple[dict, dict]:
    """Run ``drive(scenario)`` on the production loop and the reference."""
    results = []
    for loop in (EventLoop(), ReferenceLoop()):
        scenario = Scenario(seed, loop, **kwargs)
        drive(scenario)
        results.append(scenario.outcome())
    return results[0], results[1]


SEEDS = list(range(12))


class TestAgainstReferenceHeap:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_buckets_fire_in_reference_order(self, seed):
        ours, ref = both(seed, lambda s: s.loop.run_all())
        assert ours == ref
        assert ours["pending"] == 0
        assert any(entry[0] == "dgram" for entry in ours["log"])

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_one_wide_bucket_holds_every_shape(self, seed):
        """A single 1 s bucket: timers, 4-tuples, the plane head and rows."""
        ours, ref = both(seed, lambda s: s.loop.run_all(), wheel=(1.0, 4))
        assert ours == ref

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_configure_wheel_between_drains(self, seed):
        geometries = [(GRID / 3, 512), (0.004, 16), (None, 0), (GRID, 64), (0.002, 8)]

        def drive(s):
            for k, geometry in enumerate(geometries):
                s.loop.run_until((k + 1) * 0.006)
                if isinstance(s.loop, EventLoop):
                    s.loop.configure_wheel(*geometry)
            s.loop.run_all()

        ours, ref = both(seed, drive)
        assert ours == ref

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_step_run_until_and_window_budgets(self, seed):
        def drive(s):
            rand = DeterministicRandom(f"budgets:{seed}")
            t = 0.0
            while s.loop.pending:
                op = rand.randint(0, 2)
                if op == 0:
                    for _ in range(rand.randint(1, 5)):
                        s.loop.step()
                elif op == 1:
                    t = max(t, s.loop.now) + rand.randint(0, 6) * GRID / 2
                    s.loop.run_until(t)
                else:
                    t = max(t, s.loop.now) + rand.randint(0, 6) * GRID / 2
                    fired = s.loop.run_until_window(t, rand.randint(1, 7))
                    s.log.append(("window", fired))
                s.log.append(("call", op, s.loop.now, s.loop.pending))

        ours, ref = both(seed, drive)
        assert ours == ref

    def test_reconfigure_from_a_timer_keeps_cursor_rows_in_order(self):
        """A retune mid-bucket must not strand the collected rows.

        The timer at 15 ms shares a 10 ms bucket with a row due at
        18 ms. It switches to 1 ms buckets and schedules an event at
        16 ms, which lands in the new wheel ahead of the row.
        """
        outcomes = []
        for loop in (EventLoop(), ReferenceLoop()):
            net = Network(loop=loop, rand=DeterministicRandom(1),
                          base_latency=0.018, jitter=0.0)
            net.auto_retune = False
            if isinstance(loop, EventLoop):
                loop.configure_wheel(0.01, 8)
            a = net.add_host("a")
            b = net.add_host("b")
            got = []
            b.bind_udp(PORT, handler=lambda p, src, s: got.append(p))

            def retune(loop=loop, got=got):
                got.append("retune")
                if isinstance(loop, EventLoop):
                    loop.configure_wheel(0.001, 512)
                loop.schedule_fast(0.016, got.append, ("at 16 ms",))

            loop.schedule_at(0.015, retune)
            net.send_datagram(a, PORT, Endpoint(b.ip, PORT), b"row at 18 ms")
            loop.schedule_at(0.017, got.append, "timer at 17 ms")
            loop.run_all()
            outcomes.append(got)
        assert outcomes[0] == outcomes[1] == [
            "retune", "at 16 ms", "timer at 17 ms", b"row at 18 ms"]


class TestCursorShape:
    def bucket_of_rows(self, rows: int):
        net = Network(rand=DeterministicRandom("cursor-shape"), jitter=0.0)
        net.auto_retune = False
        a = net.add_host("a")
        b = net.add_host("b")
        b.bind_udp(PORT, inbox_limit=8)
        dst = Endpoint(b.ip, PORT)
        for _ in range(rows):
            net.send_datagram(a, PORT, dst, b"x")
        return net

    def test_collect_allocates_no_per_row_objects(self):
        """Collecting a 10k-row bucket moves the gen-0 count by O(1).

        Every GC-tracked allocation bumps ``gc.get_count()[0]``; a
        cursor of per-row tuples would add one per row.
        """
        net = self.bucket_of_rows(10_000)
        loop = net.loop
        assert loop.wheel_occupancy == 10_000
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = gc.get_count()[0]
            loop._collect()
            grown = gc.get_count()[0] - before
        finally:
            if enabled:
                gc.enable()
        assert loop.wheel_occupancy == 10_000  # now all cursor rows
        assert grown < 50
        loop.run_all()
        assert net.datagrams_delivered == 10_000

    def test_columns_are_recycled_lap_after_lap(self):
        net = self.bucket_of_rows(3)
        loop = net.loop
        loop.run_all()
        spent = (loop._rwhen, loop._rseq, loop._robjs)
        a, b = net.hosts.values()
        net.send_datagram(a, PORT, Endpoint(b.ip, PORT), b"y")
        loop.run_all()
        # The next collection handed the spent cursor's arrays to a slot.
        assert any(col is spent[0] for col in loop._bwhen)
        assert any(col is spent[1] for col in loop._bseq)
        assert any(col is spent[2] for col in loop._bobjs)
        assert net.datagrams_delivered == 4

    def test_queue_scan_sees_cursor_rows_in_dispatch_order(self):
        net = self.bucket_of_rows(5)
        loop = net.loop
        loop.schedule(5.0, lambda: None)
        loop.step()  # collects the bucket, fires its first row
        rows = [e for e in loop._iter_queued() if e[2] == net._deliver_cb]
        assert len(rows) == 4 == loop.wheel_occupancy
        assert [e[:2] for e in rows] == sorted(e[:2] for e in rows)
        assert loop.pending == 5

    def test_next_bucket_waits_for_the_collected_timers(self):
        """Buckets advance only once the collected bucket is fully dispatched.

        Collection moves a bucket's timers to the heap; the next bucket
        is not collected until they have fired, so an entry scheduled
        into the current bucket span meanwhile still counts as in-band.
        """
        loop = EventLoop(wheel_width=0.01, wheel_slots=8)
        fired = []
        for when in (0.015, 0.016, 0.025):
            loop.schedule_at(when, fired.append, when)
        loop.step()
        loop.step()
        assert fired == [0.015, 0.016]
        assert loop.wheel_occupancy == 1  # the 25 ms bucket is still resident
        loop.schedule_at(0.021, fired.append, 0.021)
        assert (loop.wheel_scheduled, loop.wheel_overflow) == (4, 0)
        loop.run_all()
        assert fired == [0.015, 0.016, 0.021, 0.025]
