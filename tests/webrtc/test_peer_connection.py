"""Integration tests: full PeerConnection lifecycle over the simulated net."""

import pytest

from repro.net import EventLoop, NatType, Network, TrafficCapture
from repro.util.rand import DeterministicRandom
from repro.webrtc import PeerConnection, RtcConfig, StunServer, TurnServer
from repro.webrtc.ice import CandidateType


class Scenario:
    def __init__(self, nat_a=NatType.PORT_RESTRICTED_CONE, nat_b=NatType.FULL_CONE,
                 loss=0.0, relay_only=False, with_turn=False):
        self.loop = EventLoop()
        self.net = Network(self.loop, rand=DeterministicRandom(42), loss_rate=loss)
        self.capture = self.net.add_capture(TrafficCapture("all"))
        self.stun = StunServer(self.net.add_host("stun", region="us"))
        self.turn = TurnServer(self.net.add_host("turn", region="us")) if (with_turn or relay_only) else None
        host_a = self.net.add_host("alice", nat=self.net.add_nat(nat_a), region="us")
        host_b = self.net.add_host("bob", nat=self.net.add_nat(nat_b), region="us")
        self.host_a, self.host_b = host_a, host_b
        config = RtcConfig(
            stun_servers=[self.stun.endpoint],
            turn_server=self.turn.endpoint if self.turn else None,
            relay_only=relay_only,
        )
        rand = DeterministicRandom(7)
        self.pa = PeerConnection(host_a, self.loop, rand, config, name="alice")
        self.pb = PeerConnection(host_b, self.loop, rand, config, name="bob")
        self.got_a, self.got_b = [], []
        self.pa.on_message = lambda ch, d: self.got_a.append((ch, d))
        self.pb.on_message = lambda ch, d: self.got_b.append((ch, d))

    def connect(self, timeout=10.0):
        self.pa.create_offer(
            lambda offer: self.pb.accept_offer(offer, lambda ans: self.pa.set_answer(ans))
        )
        self.loop.run(timeout)
        return self.pa.connected and self.pb.connected


class TestConnection:
    def test_basic_connect(self):
        s = Scenario()
        assert s.connect()

    def test_message_exchange(self):
        s = Scenario()
        assert s.connect()
        s.pa.send(1, b"from-a")
        s.pb.send(2, b"from-b")
        s.loop.run(5.0)
        assert s.got_b == [(1, b"from-a")]
        assert s.got_a == [(2, b"from-b")]

    def test_large_segment_transfer(self):
        s = Scenario()
        assert s.connect()
        segment = bytes(range(256)) * 4096  # 1 MiB
        s.pa.send(1, segment)
        s.loop.run(30.0)
        assert s.got_b == [(1, segment)]

    def test_connect_under_loss(self):
        s = Scenario(loss=0.05)
        assert s.connect(timeout=20.0)
        s.pa.send(1, b"x" * 100_000)
        s.loop.run(60.0)
        assert s.got_b and s.got_b[0][1] == b"x" * 100_000

    def test_queued_send_before_connected(self):
        s = Scenario()
        s.pa.create_offer(
            lambda offer: s.pb.accept_offer(offer, lambda ans: s.pa.set_answer(ans))
        )
        s.pa.send(1, b"early")  # queued during establishment
        s.loop.run(10.0)
        assert s.got_b == [(1, b"early")]

    def test_symmetric_pair_fails_direct(self):
        s = Scenario(nat_a=NatType.SYMMETRIC, nat_b=NatType.SYMMETRIC)
        assert not s.connect()

    def test_symmetric_pair_connects_via_relay(self):
        s = Scenario(nat_a=NatType.SYMMETRIC, nat_b=NatType.SYMMETRIC, relay_only=True)
        assert s.connect()

    def test_srflx_candidate_carries_nat_ip(self):
        s = Scenario()
        assert s.connect()
        srflx = [c for c in s.pa.ice.local_candidates if c.cand_type is CandidateType.SRFLX]
        assert srflx and srflx[0].endpoint.ip == s.host_a.nat.external_ip


class TestIpExposure:
    """The §IV-D leak semantics: direct mode exposes IPs, relay mode hides them."""

    def test_direct_mode_leaks_peer_ip(self):
        s = Scenario()
        assert s.connect()
        observed = {e.ip for _, e in s.pb.ice.observed_remotes}
        assert s.host_a.nat.external_ip in observed

    def test_relay_mode_hides_peer_ip(self):
        s = Scenario(relay_only=True)
        assert s.connect()
        s.pa.send(1, b"data through relay")
        s.loop.run(5.0)
        observed = {e.ip for _, e in s.pb.ice.observed_remotes}
        assert s.host_a.nat.external_ip not in observed
        assert observed <= {s.turn.host.public_ip}

    def test_relay_mode_candidates_contain_no_real_ips(self):
        s = Scenario(relay_only=True)
        assert s.connect()
        for candidate in s.pa.ice.local_candidates:
            assert candidate.endpoint.ip == s.turn.host.public_ip

    def test_relay_carries_data(self):
        s = Scenario(relay_only=True)
        assert s.connect()
        s.pa.send(1, b"z" * 50_000)
        s.loop.run(10.0)
        assert s.got_b == [(1, b"z" * 50_000)]
        assert s.turn.relayed_bytes > 50_000


class TestFailureModes:
    def test_closed_connection_rejects_send(self):
        s = Scenario()
        assert s.connect()
        s.pa.close()
        with pytest.raises(Exception):
            s.pa.send(1, b"nope")

    def test_second_close_leaves_a_rebound_port_alone(self):
        s = Scenario()
        port = s.pa.socket.port
        s.pa.close()
        newer = s.host_a.bind_udp(port)
        s.pa.close()
        assert s.host_a.sockets[port] is newer

    def test_tampered_signaling_fingerprint_blocks_connection(self):
        """A MITM swapping the DTLS fingerprint must be detected."""
        s = Scenario()
        errors = []
        s.pa.on_error = errors.append

        def on_offer(offer):
            def on_answer(answer):
                answer.fingerprint = answer.fingerprint.replace(
                    answer.fingerprint[8:10], "00"
                )
                s.pa.set_answer(answer)

            s.pb.accept_offer(offer, on_answer)

        s.pa.create_offer(on_offer)
        s.loop.run(15.0)
        assert not s.pa.connected
        assert errors
