"""Capture routing by IP, and snaplen truncation.

``Network`` hands each datagram only to the captures scoped to its wire
src or dst IP (plus the unscoped ones) through an IP → captures index,
so the per-datagram capture cost does not grow with the number of
registered captures. A capture with a ``snaplen`` keeps at most that
many payload bytes per packet, while ``size`` and ``total_bytes()``
report the wire length.
"""

import pytest

import repro.net.network as network_module
from repro.net.addresses import Endpoint
from repro.net.capture import CapturedPacket, TrafficCapture
from repro.net.clock import EventLoop
from repro.net.network import Network
from repro.util.rand import DeterministicRandom

PORT = 700


def make_net(seed: int = 7) -> Network:
    return Network(EventLoop(), rand=DeterministicRandom(seed))


def make_hosts(net: Network, count: int):
    hosts = [net.add_host(f"h{i}") for i in range(count)]
    for h in hosts:
        h.bind_udp(PORT)
    return hosts


def pump(net: Network, hosts, count: int, payload: bytes = b"x" * 20) -> list[tuple[str, str]]:
    """``count`` seeded sends between the hosts; returns each (src, dst) IP pair."""
    rand = DeterministicRandom(f"capture-index:{count}")
    sockets = [h.sockets[PORT] for h in hosts]
    sent = []
    for i in range(count):
        src = sockets[i % len(sockets)]
        dst = sockets[rand.randint(0, len(sockets) - 1)]
        src.send(dst.endpoint, payload)
        sent.append((src.endpoint.ip, dst.endpoint.ip))
    net.loop.run_all()
    return sent


def count_records(monkeypatch, capture: TrafficCapture) -> list[int]:
    """Count every record call the capture gets, by either entry point."""
    calls = [0]
    real_record, real_private = capture.record, capture._record

    def record(packet):
        calls[0] += 1
        real_record(packet)

    def private(packet):
        calls[0] += 1
        real_private(packet)

    monkeypatch.setattr(capture, "record", record)
    monkeypatch.setattr(capture, "_record", private)
    return calls


class TestIpIndex:
    def test_each_datagram_reaches_only_its_scoped_captures(self, monkeypatch):
        net = make_net()
        hosts = make_hosts(net, 50)
        captures = [
            net.add_capture(TrafficCapture(f"cap{i}", interface_ips=[h.ip]))
            for i, h in enumerate(hosts)
        ]
        calls = [count_records(monkeypatch, cap) for cap in captures]
        sent = pump(net, hosts, 1000)
        by_ip = {h.ip: i for i, h in enumerate(hosts)}
        expected = [0] * len(hosts)
        for src, dst in sent:
            for ip in {src, dst}:
                expected[by_ip[ip]] += 1
        # Each capture is handed exactly the datagrams with its IP at one
        # end: 1000 sends cost at most 2000 record calls, not 50,000.
        assert [c[0] for c in calls] == expected
        assert sum(expected) <= 2 * len(sent)
        for host, cap in zip(hosts, captures):
            assert len(cap) == expected[by_ip[host.ip]]
            for packet in cap.packets:
                assert host.ip in (packet.src.ip, packet.dst.ip)

    def test_capture_scoped_to_both_ends_records_once(self):
        net = make_net()
        hosts = make_hosts(net, 2)
        cap = net.add_capture(TrafficCapture("both", interface_ips=[h.ip for h in hosts]))
        sent = pump(net, hosts, 40)
        assert len(cap) == len(sent) == 40

    def test_unscoped_and_scoped_captures_together(self):
        net = make_net()
        hosts = make_hosts(net, 3)
        everything = net.add_capture(TrafficCapture("all"))
        only_first = net.add_capture(TrafficCapture("h0", interface_ips=[hosts[0].ip]))
        sent = pump(net, hosts, 90)
        assert len(everything) == 90
        assert len(only_first) == sum(hosts[0].ip in pair for pair in sent)

    def test_stopped_scoped_capture_gets_no_record_calls(self, monkeypatch):
        net = make_net()
        hosts = make_hosts(net, 2)
        live = net.add_capture(TrafficCapture("live", interface_ips=[hosts[0].ip]))
        stopped = net.add_capture(TrafficCapture("stopped", interface_ips=[hosts[0].ip]))
        stopped.stop()
        calls = count_records(monkeypatch, stopped)
        sent = pump(net, hosts, 50)
        assert calls[0] == 0
        assert len(live) == sum(hosts[0].ip in pair for pair in sent) > 0
        assert net.captures == [live]

    def test_no_packet_built_once_no_capture_is_left(self, monkeypatch):
        built = [0]

        def counting(*args, **kwargs):
            built[0] += 1
            return CapturedPacket(*args, **kwargs)

        monkeypatch.setattr(network_module, "CapturedPacket", counting)
        net = make_net()
        hosts = make_hosts(net, 2)
        scoped = net.add_capture(TrafficCapture("scoped", interface_ips=[hosts[1].ip]))
        unscoped = net.add_capture(TrafficCapture("unscoped"))
        pump(net, hosts, 10)
        assert built[0] == 10
        scoped.stop()
        unscoped.stop()
        assert net.captures == [] and net._captures_by_ip == {} and net._unscoped_captures == []
        pump(net, hosts, 100)
        assert built[0] == 10

    def test_no_packet_built_for_out_of_scope_traffic(self, monkeypatch):
        built = [0]

        def counting(*args, **kwargs):
            built[0] += 1
            return CapturedPacket(*args, **kwargs)

        monkeypatch.setattr(network_module, "CapturedPacket", counting)
        net = make_net()
        hosts = make_hosts(net, 3)
        outsider = net.add_host("outsider")
        cap = net.add_capture(TrafficCapture("outsider", interface_ips=[outsider.ip]))
        pump(net, hosts, 60)
        assert built[0] == 0 and len(cap) == 0


class TestSnaplen:
    def test_payload_cut_to_snaplen_with_wire_length_kept(self):
        net = make_net()
        hosts = make_hosts(net, 2)
        cap = net.add_capture(TrafficCapture("s", snaplen=16))
        full = net.add_capture(TrafficCapture("full"))
        pump(net, hosts, 30, payload=bytes(range(100)))
        assert len(cap) == len(full) == 30
        for short, whole in zip(cap.packets, full.packets):
            assert short.payload == whole.payload[:16]
            assert short.length == short.size == whole.size == 100
            assert short.truncated and not whole.truncated
        assert cap.total_bytes() == full.total_bytes() == 30 * 100

    def test_short_packets_are_kept_whole(self):
        net = make_net()
        hosts = make_hosts(net, 2)
        cap = net.add_capture(TrafficCapture("s", snaplen=64))
        pump(net, hosts, 10, payload=b"abc")
        assert all(p.payload == b"abc" and not p.truncated for p in cap.packets)
        assert cap.total_bytes() == 30

    def test_direct_record_truncates_too(self):
        cap = TrafficCapture("s", snaplen=4)
        packet = CapturedPacket(0.0, Endpoint("1.1.1.1", 1), Endpoint("2.2.2.2", 2), b"0123456789")
        cap.record(packet)
        assert cap.packets[0].payload == b"0123"
        assert cap.packets[0].size == 10

    def test_negative_snaplen_rejected(self):
        with pytest.raises(ValueError):
            TrafficCapture("bad", snaplen=-1)
