"""The delivery contract: a datagram goes to the handler *or* the inbox.

A socket with a handler keeps nothing in its inbox, at every site that
delivers — :meth:`UdpSocket.deliver`, the heap path
(``Network._deliver``) and the batched drain (``Network._drain_cursor``)
— while ``bytes_received`` counts every delivery. A socket without a
handler keeps its datagrams in a flat ``[payload, src, ...]`` ring that
``inbox`` reads back as ``(payload, src)`` pairs; filling it allocates
nothing the garbage collector tracks.
"""

import gc

import pytest

from repro.net.addresses import Endpoint
from repro.net.network import Network
from repro.util.rand import DeterministicRandom

PORT = 5000
SRC = Endpoint("5.0.0.99", 1)


def two_hosts():
    net = Network(rand=DeterministicRandom("delivery-contract"), jitter=0.0)
    net.auto_retune = False
    a = net.add_host("a")
    b = net.add_host("b")
    return net, a, b


class TestHandlerOrInbox:
    def test_socket_deliver(self):
        net, _, b = two_hosts()
        got = []
        sock = b.bind_udp(PORT, handler=lambda p, src, s: got.append((p, src)))
        sock.deliver(b"abc", SRC)
        assert got == [(b"abc", SRC)]
        assert sock.inbox == []
        assert sock.bytes_received == 3

    @pytest.mark.parametrize("route", ["unbatched", "out-of-band"])
    def test_heap_path(self, route):
        net, a, b = two_hosts()
        if route == "unbatched":
            net.batch_delivery = False
        else:
            # A 1 B/s uplink queues the datagram for 100 s: far beyond
            # the wheel's span, so it overflows to the heap.
            a.uplink_bytes_per_sec = 1.0
        got = []
        sock = b.bind_udp(PORT, handler=lambda p, src, s: got.append(p))
        net.send_datagram(a, PORT, Endpoint(b.ip, PORT), b"x" * 100)
        net.loop.run_all()
        assert net.loop.wheel_batch_drains == 0
        if route == "out-of-band":
            assert net.loop.wheel_overflow == 1
        assert got == [b"x" * 100]
        assert sock.inbox == []
        assert sock.bytes_received == 100
        assert net.datagrams_delivered == 1

    def test_batched_drain(self):
        net, a, b = two_hosts()
        got = []
        sock = b.bind_udp(PORT, handler=lambda p, src, s: got.append(p))
        for i in range(5):
            net.send_datagram(a, PORT, Endpoint(b.ip, PORT), bytes([i]) * 10)
        net.loop.run_all()
        assert net.loop.wheel_batch_drains >= 1
        assert got == [bytes([i]) * 10 for i in range(5)]
        assert sock.inbox == []
        assert sock.bytes_received == 50
        assert net.datagrams_delivered == 5

    def test_socket_without_handler_keeps_the_datagram(self):
        net, a, b = two_hosts()
        sock = b.bind_udp(PORT)
        net.send_datagram(a, PORT, Endpoint(b.ip, PORT), b"kept")
        net.loop.run_all()
        wire_src = a._wire_endpoints[PORT]
        assert sock.inbox == [(b"kept", wire_src)]
        assert sock.inbox[0][1] is wire_src  # the shared wire endpoint, not a copy
        assert sock.bytes_received == 4


class TestInboxView:
    def test_pairs_oldest_first(self):
        net, _, b = two_hosts()
        sock = b.bind_udp(PORT)
        other = Endpoint("5.0.0.98", 2)
        sock.deliver(b"1", SRC)
        sock.deliver(b"2", other)
        sock.deliver(b"3", SRC)
        assert sock.inbox == [(b"1", SRC), (b"2", other), (b"3", SRC)]

    def test_returns_a_copy(self):
        net, _, b = two_hosts()
        sock = b.bind_udp(PORT)
        sock.deliver(b"1", SRC)
        view = sock.inbox
        view.append((b"forged", SRC))
        view.clear()
        assert sock.inbox == [(b"1", SRC)]

    def test_is_read_only(self):
        net, _, b = two_hosts()
        sock = b.bind_udp(PORT)
        with pytest.raises(AttributeError):
            sock.inbox = []


class TestUntrackedRing:
    def test_drain_into_inboxes_allocates_no_per_datagram_objects(self):
        """10k deliveries into handler-less sockets move the gen-0 count by O(1).

        Every GC-tracked allocation that survives bumps
        ``gc.get_count()[0]``; an inbox of ``(payload, src)`` tuples
        would add one per datagram.
        """
        net = Network(rand=DeterministicRandom("untracked-ring"), jitter=0.0)
        net.auto_retune = False
        senders = [net.add_host(f"s{i}") for i in range(4)]
        sockets = [net.add_host(f"r{i}").bind_udp(PORT, inbox_limit=None)
                   for i in range(10)]
        for k in range(10_000):
            dst = sockets[k % len(sockets)]
            net.send_datagram(senders[k % len(senders)], PORT,
                              Endpoint(dst.host.ip, PORT), b"payload")
        loop = net.loop
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = gc.get_count()[0]
            loop.run_all()
            grown = gc.get_count()[0] - before
        finally:
            if enabled:
                gc.enable()
        assert net.datagrams_delivered == 10_000
        assert loop.wheel_batch_drains >= 1
        assert sum(len(sock.inbox) for sock in sockets) == 10_000
        assert grown < 50
