"""PDN traffic classification (the dynamic detector's Wireshark stage).

§III-C: "PDN utilizes the plain-text STUN protocol to exchange IP
information between peers ... As WebRTC enforces a DTLS handshake
between peers, we then checked all the DTLS connections that typically
follow the STUN binding requests. If a DTLS connection is observed
between known candidate peer pairs, we consider the respective website
or app a confirmed PDN customer."

This module runs that exact decision procedure over a
:class:`~repro.net.capture.TrafficCapture`. It reads whole STUN messages
and the 13-byte DTLS record header only, so a snaplen capture that keeps
every STUN message whole gives the same report as a full one; a STUN
message the snaplen cut short (a TURN indication carrying a DTLS record)
is classified from its 20-byte header.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addresses import Endpoint
from repro.net.capture import TrafficCapture
from repro.util.errors import StunDecodeError
from repro.webrtc.dtls import is_dtls_datagram
from repro.webrtc.stun import (
    StunClass,
    StunMethod,
    decode_stun,
    decode_stun_header,
    is_stun_datagram,
)


@dataclass
class StunObservation:
    """One parsed STUN binding request seen on the wire."""

    at: float
    src: Endpoint
    dst: Endpoint
    username: str | None


@dataclass
class PdnTrafficReport:
    """What the classifier found in a capture."""

    stun_requests: list[StunObservation] = field(default_factory=list)
    candidate_pairs: set[frozenset] = field(default_factory=set)  # {ip_a, ip_b}
    dtls_pairs: set[frozenset] = field(default_factory=set)
    observed_peer_ips: set[str] = field(default_factory=set)
    turn_allocations: int = 0
    turn_indications: int = 0

    @property
    def turn_activity(self) -> bool:
        """TURN allocations plus relayed data: the xhamsterlive/stripchat
        pattern — WebRTC used, but peer traffic hidden behind relays."""
        return self.turn_allocations > 0 and self.turn_indications > 0

    @property
    def confirmed_pairs(self) -> set[frozenset]:
        """Peer pairs with both STUN checks and a following DTLS flow."""
        return self.candidate_pairs & self.dtls_pairs

    @property
    def pdn_confirmed(self) -> bool:
        """Pdn confirmed."""
        return bool(self.confirmed_pairs)

    def to_dict(self) -> dict:
        """Canonical JSON form: pair sets as sorted lists of sorted pairs."""
        return {
            "stun_requests": len(self.stun_requests),
            "candidate_pairs": sorted(sorted(pair) for pair in self.candidate_pairs),
            "dtls_pairs": sorted(sorted(pair) for pair in self.dtls_pairs),
            "observed_peer_ips": sorted(self.observed_peer_ips),
            "turn_allocations": self.turn_allocations,
            "turn_indications": self.turn_indications,
        }


def classify_capture(
    capture: TrafficCapture,
    infrastructure_ips: set[str] | None = None,
) -> PdnTrafficReport:
    """Parse a capture into a PDN traffic report.

    ``infrastructure_ips`` (STUN/TURN servers) are excluded from peer-pair
    analysis — binding requests to a public STUN server are not
    peer-to-peer activity.
    """
    infra = infrastructure_ips or set()
    report = PdnTrafficReport()
    for packet in capture.packets:
        if packet.dropped:
            continue
        pair = frozenset({packet.src.ip, packet.dst.ip})
        if is_stun_datagram(packet.payload):
            try:
                if packet.truncated:
                    # Its attributes are cut off; USERNAME is unknown.
                    method, msg_class = decode_stun_header(packet.payload, packet.length)
                    username = None
                else:
                    message = decode_stun(packet.payload)
                    method, msg_class = message.method, message.msg_class
                    username = message.username()
            except StunDecodeError:
                continue
            # TURN activity is counted regardless of infrastructure
            # filtering: a relayed deployment shows nothing *but* this.
            if method is StunMethod.ALLOCATE:
                report.turn_allocations += 1
            elif method in (StunMethod.SEND, StunMethod.DATA):
                report.turn_indications += 1
            if packet.src.ip in infra or packet.dst.ip in infra:
                continue
            if method is StunMethod.BINDING and msg_class is StunClass.REQUEST:
                report.stun_requests.append(
                    StunObservation(packet.time, packet.src, packet.dst, username)
                )
                # Connectivity checks carry an ICE USERNAME; pure
                # server-binding requests do not involve a peer pair.
                if username is not None and len(pair) == 2:
                    report.candidate_pairs.add(pair)
                    report.observed_peer_ips.update(pair)
        elif is_dtls_datagram(packet.payload):
            if packet.src.ip in infra or packet.dst.ip in infra:
                continue
            if len(pair) == 2:
                report.dtls_pairs.add(pair)
    return report
