"""Tests for the STUN/DTLS traffic classifier."""

from repro.detection.traffic import classify_capture
from repro.environment import Environment
from repro.net.capture import CapturedPacket, TrafficCapture
from repro.net.addresses import Endpoint
from repro.webrtc.stun import (
    AttributeType,
    StunClass,
    StunMessage,
    StunMethod,
    encode_stun,
    is_stun_datagram,
)

A = Endpoint("1.1.1.1", 100)
B = Endpoint("2.2.2.2", 200)
STUN_SERVER = Endpoint("9.9.9.9", 3478)


def binding_request(with_username=True):
    msg = StunMessage(StunMethod.BINDING, StunClass.REQUEST, b"\x01" * 12)
    if with_username:
        msg.add(AttributeType.USERNAME, b"remote:local")
    return encode_stun(msg)


def dtls_record():
    import struct
    return struct.pack("!BHHQH", 22, 0xFEFD, 0, 0, 4) + b"test"


def capture_of(*packets):
    cap = TrafficCapture("t")
    for i, (src, dst, payload) in enumerate(packets):
        cap.record(CapturedPacket(float(i), src, dst, payload))
    return cap


class TestClassifier:
    def test_stun_then_dtls_confirms(self):
        cap = capture_of((A, B, binding_request()), (A, B, dtls_record()))
        report = classify_capture(cap)
        assert report.pdn_confirmed
        assert report.confirmed_pairs == {frozenset({"1.1.1.1", "2.2.2.2"})}
        assert report.observed_peer_ips == {"1.1.1.1", "2.2.2.2"}

    def test_stun_alone_not_confirmed(self):
        report = classify_capture(capture_of((A, B, binding_request())))
        assert not report.pdn_confirmed
        assert report.candidate_pairs

    def test_dtls_alone_not_confirmed(self):
        report = classify_capture(capture_of((A, B, dtls_record())))
        assert not report.pdn_confirmed

    def test_server_binding_requests_ignored(self):
        """Plain bindings to a STUN server carry no ICE username."""
        cap = capture_of(
            (A, STUN_SERVER, binding_request(with_username=False)),
            (A, STUN_SERVER, dtls_record()),
        )
        report = classify_capture(cap)
        assert not report.pdn_confirmed

    def test_infrastructure_filter(self):
        cap = capture_of((A, STUN_SERVER, binding_request()), (A, STUN_SERVER, dtls_record()))
        report = classify_capture(cap, infrastructure_ips={"9.9.9.9"})
        assert not report.pdn_confirmed

    def test_dropped_packets_ignored(self):
        cap = TrafficCapture("t")
        cap.record(CapturedPacket(0.0, A, B, binding_request(), dropped=True))
        cap.record(CapturedPacket(1.0, A, B, dtls_record(), dropped=True))
        assert not classify_capture(cap).pdn_confirmed

    def test_garbage_tolerated(self):
        cap = capture_of((A, B, b"\x00\x01 garbage not stun"), (A, B, b"random"))
        report = classify_capture(cap)
        assert not report.pdn_confirmed

    def test_turn_activity_detected(self):
        allocate = encode_stun(StunMessage(StunMethod.ALLOCATE, StunClass.REQUEST, b"\x02" * 12))
        send_ind = encode_stun(StunMessage(StunMethod.SEND, StunClass.INDICATION, b"\x03" * 12))
        report = classify_capture(capture_of((A, STUN_SERVER, allocate), (A, STUN_SERVER, send_ind)))
        assert report.turn_activity
        assert not report.pdn_confirmed


class TestEndToEndCapture:
    def test_real_webrtc_connection_classified(self):
        """Full pipeline: a real PeerConnection handshake gets classified."""
        from repro.net.capture import TrafficCapture as TC
        from repro.webrtc import PeerConnection, RtcConfig, StunServer

        env = Environment(seed=61)
        cap = env.network.add_capture(TC("all"))
        host_a = env.add_viewer_host("a", "US")
        host_b = env.add_viewer_host("b", "US")
        config = env.rtc_config()
        pa = PeerConnection(host_a, env.loop, env.rand, config, "a")
        pb = PeerConnection(host_b, env.loop, env.rand, config, "b")
        pa.create_offer(lambda o: pb.accept_offer(o, lambda ans: pa.set_answer(ans)))
        env.run(10.0)
        assert pa.connected
        report = classify_capture(cap, infrastructure_ips={env.stun.host.public_ip})
        assert report.pdn_confirmed
        assert frozenset({host_a.public_ip, host_b.public_ip}) in report.confirmed_pairs


class TestSnaplenCapture:
    """The analyzer's snaplen captures classify exactly like full ones."""

    def run_pair(self, seed: int, relay_only: bool):
        from repro.core.analyzer import ANALYZER_SNAPLEN, PdnAnalyzer
        from repro.core.testbed import build_test_bed
        from repro.pdn.provider import PEER5

        env = Environment(seed=seed)
        bed = build_test_bed(env, PEER5, video_segments=6, segment_seconds=2.0,
                             segment_bytes=40_000)
        analyzer = PdnAnalyzer(env)
        peer_a = analyzer.create_peer(name="a", relay_only=relay_only)
        peer_b = analyzer.create_peer(name="b", relay_only=relay_only)
        full = env.network.add_capture(
            TrafficCapture("full", interface_ips=[peer_a.browser.host.public_ip])
        )
        peer_a.watch_test_stream(bed)
        analyzer.run(5.0)
        peer_b.watch_test_stream(bed)
        analyzer.run(30.0)
        snap = peer_a.capture
        assert snap.snaplen == ANALYZER_SNAPLEN
        assert len(snap) == len(full) and snap.total_bytes() == full.total_bytes()
        assert any(p.truncated for p in snap.packets)
        infra = {env.stun.host.public_ip}
        if relay_only:
            infra.add(env.turn.host.public_ip)
        return classify_capture(snap, infra), classify_capture(full, infra), snap

    def test_direct_pair_report_unchanged(self):
        snap_report, full_report, _ = self.run_pair(seed=81, relay_only=False)
        assert snap_report.to_dict() == full_report.to_dict()
        assert snap_report.pdn_confirmed

    def test_relay_only_pair_report_unchanged(self):
        snap_report, full_report, snap = self.run_pair(seed=82, relay_only=True)
        assert snap_report.to_dict() == full_report.to_dict()
        assert snap_report.turn_activity
        # TURN indications carrying DTLS records were cut short by the
        # snaplen and still counted from their STUN header.
        assert any(p.truncated and is_stun_datagram(p.payload) for p in snap.packets)
