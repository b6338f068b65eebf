"""Tests for the datagram network: routing, NAT, capture, loss."""

import pytest

from repro.net import Endpoint, EventLoop, NatType, Network, TrafficCapture
from repro.util.errors import AddressInUseError, ConfigurationError
from repro.util.rand import DeterministicRandom


def make_network(**kwargs) -> Network:
    return Network(EventLoop(), rand=DeterministicRandom(1), **kwargs)


class TestTopology:
    def test_public_ip_autoassignment(self):
        net = make_network()
        a = net.add_host("a")
        b = net.add_host("b")
        assert a.ip != b.ip
        assert a.public_ip == a.ip

    def test_nated_host_gets_private_ip(self):
        net = make_network()
        nat = net.add_nat(NatType.FULL_CONE)
        host = net.add_host("h", nat=nat)
        assert host.ip.startswith("192.168.")
        assert host.public_ip == nat.external_ip

    def test_explicit_ip_conflict_rejected(self):
        net = make_network()
        net.add_host("a", ip="9.9.9.9")
        with pytest.raises(ConfigurationError):
            net.add_host("b", ip="9.9.9.9")

    def test_nated_host_rejects_explicit_ip(self):
        net = make_network()
        nat = net.add_nat()
        with pytest.raises(ConfigurationError):
            net.add_host("h", ip="1.2.3.4", nat=nat)


class TestSockets:
    def test_bind_duplicate_port_rejected(self):
        net = make_network()
        host = net.add_host("h")
        host.bind_udp(1000)
        with pytest.raises(AddressInUseError):
            host.bind_udp(1000)

    def test_ephemeral_ports_unique(self):
        net = make_network()
        host = net.add_host("h")
        s1, s2 = host.bind_udp(), host.bind_udp()
        assert s1.port != s2.port

    def test_close_releases_port(self):
        net = make_network()
        host = net.add_host("h")
        sock = host.bind_udp(1000)
        sock.close()
        host.bind_udp(1000)  # no error

    def test_stale_close_leaves_a_newer_socket_bound(self):
        net = make_network()
        a = net.add_host("a")
        host = net.add_host("h")
        s1 = host.bind_udp(1000)
        s1.close()
        s2 = host.bind_udp(1000)
        s1.close()  # idempotent: the port is s2's now
        assert s1.closed and not s2.closed
        assert host.sockets[1000] is s2
        net.send_datagram(a, 1, Endpoint(host.ip, 1000), b"hi")
        net.loop.run_all()
        assert net.drops_by_reason == {}
        assert [p for p, _ in s2.inbox] == [b"hi"]


class TestDelivery:
    def test_public_to_public(self):
        net = make_network()
        a = net.add_host("a")
        b = net.add_host("b")
        received = []
        b.bind_udp(2000, lambda data, src, sock: received.append((data, src)))
        sa = a.bind_udp(1000)
        sa.send(Endpoint(b.ip, 2000), b"hi")
        net.loop.run(1.0)
        assert received == [(b"hi", Endpoint(a.ip, 1000))]

    def test_nat_translates_source(self):
        net = make_network()
        nat = net.add_nat(NatType.FULL_CONE)
        a = net.add_host("a", nat=nat)
        b = net.add_host("b")
        received = []
        b.bind_udp(2000, lambda data, src, sock: received.append(src))
        a.bind_udp(1000).send(Endpoint(b.ip, 2000), b"x")
        net.loop.run(1.0)
        assert received[0].ip == nat.external_ip
        assert received[0].ip != a.ip

    def test_reply_through_nat(self):
        net = make_network()
        nat = net.add_nat(NatType.PORT_RESTRICTED_CONE)
        a = net.add_host("a", nat=nat)
        b = net.add_host("b")
        a_received = []
        a.bind_udp(1000, lambda data, src, sock: a_received.append(data))
        b.bind_udp(2000, lambda data, src, sock: sock.send(src, b"reply"))
        a.sockets[1000].send(Endpoint(b.ip, 2000), b"ping")
        net.loop.run(1.0)
        assert a_received == [b"reply"]

    def test_unsolicited_inbound_filtered_by_nat(self):
        net = make_network()
        nat = net.add_nat(NatType.PORT_RESTRICTED_CONE)
        a = net.add_host("a", nat=nat)
        b = net.add_host("b")
        received = []
        a.bind_udp(1000, lambda data, src, sock: received.append(data))
        b.bind_udp(2000).send(Endpoint(nat.external_ip, 40000), b"attack")
        net.loop.run(1.0)
        assert received == []

    def test_unroutable_destination_blackholed(self):
        net = make_network()
        a = net.add_host("a")
        a.bind_udp(1000).send(Endpoint("203.0.113.7", 9), b"x")
        net.loop.run(1.0)
        assert net.datagrams_dropped == 1

    def test_unbound_port_drops(self):
        net = make_network()
        a = net.add_host("a")
        b = net.add_host("b")
        a.bind_udp(1000).send(Endpoint(b.ip, 7777), b"x")
        net.loop.run(1.0)
        assert net.datagrams_dropped == 1


class TestCaptureAndLoss:
    def test_capture_sees_wire_addresses(self):
        net = make_network()
        cap = net.add_capture(TrafficCapture("all"))
        nat = net.add_nat(NatType.FULL_CONE)
        a = net.add_host("a", nat=nat)
        b = net.add_host("b")
        b.bind_udp(2000, lambda *args: None)
        a.bind_udp(1000).send(Endpoint(b.ip, 2000), b"data")
        net.loop.run(1.0)
        assert len(cap) == 1
        assert cap.packets[0].src.ip == nat.external_ip

    def test_scoped_capture_filters(self):
        net = make_network()
        a = net.add_host("a")
        b = net.add_host("b")
        c = net.add_host("c")
        cap = net.add_capture(TrafficCapture("only-c", interface_ips=[c.ip]))
        b.bind_udp(2000, lambda *args: None)
        c.bind_udp(2000, lambda *args: None)
        a.bind_udp(1000).send(Endpoint(b.ip, 2000), b"not captured")
        a.sockets[1000].send(Endpoint(c.ip, 2000), b"captured")
        net.loop.run(1.0)
        assert len(cap) == 1
        assert cap.packets[0].payload == b"captured"

    def test_loss_rate_drops_packets(self):
        net = make_network(loss_rate=1.0)
        a = net.add_host("a")
        b = net.add_host("b")
        received = []
        b.bind_udp(2000, lambda data, src, sock: received.append(data))
        a.bind_udp(1000).send(Endpoint(b.ip, 2000), b"x")
        net.loop.run(1.0)
        assert received == []
        assert net.datagrams_dropped == 1

    def test_cross_region_latency_larger(self):
        loop = EventLoop()
        net = Network(loop, rand=DeterministicRandom(1), jitter=0.0)
        a = net.add_host("a", region="us")
        b = net.add_host("b", region="cn")
        c = net.add_host("c", region="us")
        times = {}
        b.bind_udp(2000, lambda data, src, sock: times.__setitem__("cross", loop.now))
        c.bind_udp(2000, lambda data, src, sock: times.__setitem__("same", loop.now))
        start = loop.now
        a.bind_udp(1000).send(Endpoint(b.ip, 2000), b"x")
        a.sockets[1000].send(Endpoint(c.ip, 2000), b"x")
        loop.run(1.0)
        assert times["cross"] - start > times["same"] - start


class TestUplinkCapacity:
    def test_unlimited_by_default(self):
        net = make_network()
        host = net.add_host("h")
        assert host.uplink_bytes_per_sec is None
        assert net._uplink_queue_delay(host, 10**9) == 0.0

    def test_serialization_delay(self):
        net = Network(EventLoop(), rand=DeterministicRandom(1), jitter=0.0)
        sender = net.add_host("s", uplink_bytes_per_sec=1000.0)
        receiver = net.add_host("r")
        times = []
        receiver.bind_udp(2000, lambda data, src, sock: times.append(net.loop.now))
        sock = sender.bind_udp(1000)
        sock.send(Endpoint(receiver.ip, 2000), b"x" * 1000)  # 1 second on the wire
        net.loop.run(10.0)
        assert times and times[0] >= 1.0

    def test_concurrent_sends_queue(self):
        net = Network(EventLoop(), rand=DeterministicRandom(1), jitter=0.0)
        sender = net.add_host("s", uplink_bytes_per_sec=1000.0)
        receiver = net.add_host("r")
        times = []
        receiver.bind_udp(2000, lambda data, src, sock: times.append(net.loop.now))
        sock = sender.bind_udp(1000)
        for _ in range(3):
            sock.send(Endpoint(receiver.ip, 2000), b"x" * 1000)
        net.loop.run(20.0)
        assert len(times) == 3
        # back-to-back 1-second serializations: ~1s, ~2s, ~3s
        assert times[1] - times[0] >= 0.9
        assert times[2] - times[1] >= 0.9

    def test_receiver_uplink_irrelevant(self):
        net = Network(EventLoop(), rand=DeterministicRandom(1), jitter=0.0)
        sender = net.add_host("s")
        receiver = net.add_host("r", uplink_bytes_per_sec=1.0)  # tiny uplink
        times = []
        receiver.bind_udp(2000, lambda data, src, sock: times.append(net.loop.now))
        sender.bind_udp(1000).send(Endpoint(receiver.ip, 2000), b"x" * 10000)
        net.loop.run(5.0)
        assert times and times[0] < 1.0  # downloads unaffected


class TestCaptureDroppedFlag:
    """Regression: a capture must show the datagram's *final* outcome.

    Route-failed packets (unroutable / nat_filtered / no_host) used to be
    recorded with ``dropped=False``, so a wire trace disagreed with
    ``drops_by_reason``. Only in-flight drops — decided after the packet
    was already on the wire, like an unbound destination port — may
    legitimately stay ``dropped=False``.
    """

    def _tap(self, net):
        return net.add_capture(TrafficCapture("tap"))

    def test_unroutable_marked_dropped(self):
        net = make_network()
        a = net.add_host("a")
        cap = self._tap(net)
        a.bind_udp(1000).send(Endpoint("203.0.113.7", 9999), b"x")
        net.loop.run_all()
        assert net.drops_by_reason == {"unroutable": 1}
        assert [p.dropped for p in cap.packets] == [True]

    def test_nat_filtered_marked_dropped(self):
        net = make_network()
        a = net.add_host("a")
        nat = net.add_nat(NatType.PORT_RESTRICTED_CONE)
        net.add_host("h", nat=nat).bind_udp(2000)
        cap = self._tap(net)
        # Unsolicited inbound to the NAT's external side: filtered.
        a.bind_udp(1000).send(Endpoint(nat.external_ip, 4000), b"x")
        net.loop.run_all()
        assert net.drops_by_reason == {"nat_filtered": 1}
        assert [p.dropped for p in cap.packets] == [True]

    def test_loss_marked_dropped(self):
        net = make_network(loss_rate=1.0)
        a = net.add_host("a")
        b = net.add_host("b")
        b.bind_udp(2000)
        cap = self._tap(net)
        a.bind_udp(1000).send(Endpoint(b.ip, 2000), b"x")
        net.loop.run_all()
        assert net.drops_by_reason == {"loss": 1}
        assert [p.dropped for p in cap.packets] == [True]

    def test_delivered_marked_not_dropped(self):
        net = make_network()
        a = net.add_host("a")
        b = net.add_host("b")
        b.bind_udp(2000)
        cap = self._tap(net)
        a.bind_udp(1000).send(Endpoint(b.ip, 2000), b"x")
        net.loop.run_all()
        assert net.datagrams_delivered == 1
        assert [p.dropped for p in cap.packets] == [False]

    def test_in_flight_drop_stays_not_dropped(self):
        """No socket on the destination port: the packet really was on
        the wire when captured, so the capture says dropped=False and the
        drop is visible only in drops_by_reason."""
        net = make_network()
        a = net.add_host("a")
        b = net.add_host("b")  # no socket bound
        cap = self._tap(net)
        a.bind_udp(1000).send(Endpoint(b.ip, 4000), b"x")
        net.loop.run_all()
        assert net.drops_by_reason == {"no_socket": 1}
        assert [p.dropped for p in cap.packets] == [False]

    def test_capture_agrees_with_drop_accounting(self):
        """Across a mixed workload, pre-flight drops in the capture equal
        the pre-flight entries of drops_by_reason."""
        net = make_network(loss_rate=0.5)
        hosts = [net.add_host(f"h{i}") for i in range(4)]
        for host in hosts:
            host.bind_udp(2000)
        cap = self._tap(net)
        for i, src in enumerate(hosts):
            for j, dst in enumerate(hosts):
                if i != j:
                    src.sockets[2000].send(Endpoint(dst.ip, 2000), b"x")
            src.sockets[2000].send(Endpoint("203.0.113.9", 1), b"x")
        net.loop.run_all()
        preflight = sum(
            count for reason, count in net.drops_by_reason.items()
            if reason in {"unroutable", "nat_filtered", "no_host", "loss"}
        )
        assert sum(1 for p in cap.packets if p.dropped) == preflight
        assert preflight >= 4  # at least the four unroutable sends


class TestInboxBounds:
    def test_inbox_is_bounded_by_default(self):
        from repro.net.network import DEFAULT_INBOX_LIMIT

        net = make_network()
        a = net.add_host("a")
        b = net.add_host("b")
        sock = b.bind_udp(2000)
        assert sock.inbox_limit == DEFAULT_INBOX_LIMIT
        src = a.bind_udp(1000)
        for i in range(3 * 16):
            src.send(Endpoint(b.ip, 2000), b"x")
        net.loop.run_all()
        assert len(sock.inbox) <= DEFAULT_INBOX_LIMIT

    def test_eviction_keeps_newest(self):
        net = make_network()
        host = net.add_host("h")
        sock = host.bind_udp(2000, inbox_limit=8)
        src = Endpoint("5.0.0.99", 1)
        for i in range(9):
            sock.deliver(b"%d" % i, src)
        # One batched eviction at 9 > 8: the oldest go, newest half stay.
        kept = [payload for payload, _ in sock.inbox]
        assert kept == [b"5", b"6", b"7", b"8"]
        assert sock.bytes_received == 9  # accounting unaffected by eviction

    def test_inbox_limit_none_is_unbounded(self):
        net = make_network()
        host = net.add_host("h")
        sock = host.bind_udp(2000, inbox_limit=None)
        src = Endpoint("5.0.0.99", 1)
        for i in range(10_000):
            sock.deliver(b"x", src)
        assert len(sock.inbox) == 10_000
