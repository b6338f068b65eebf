"""tcpdump-style traffic capture.

The PDN analyzer starts a capture on each peer container's virtual
interface (the paper dumps ``docker0``); the dynamic detector then
parses the captured datagrams for STUN binding requests followed by
DTLS handshakes between candidate peer pairs (§III-C).

What a capture sees: a scoped capture (``interface_ips``) is handed
only the datagrams whose wire source or destination IP is one of its
interface IPs — :class:`~repro.net.network.Network` routes them through
an IP → captures index, so the per-datagram cost does not grow with the
number of captures registered. An unscoped capture sees every datagram.

What a capture keeps, two bounds:

* ``snaplen`` (tcpdump ``-s``): each :class:`CapturedPacket` keeps at
  most the first ``snaplen`` payload bytes plus the wire ``length``.
  The analyzer's peer captures set it just large enough for whole STUN
  messages and DTLS record headers, which is all the classifier reads;
  ``None`` keeps every byte.
* ``max_packets``: a ring bound mirroring ``inbox_limit`` on
  :class:`~repro.net.network.UdpSocket` — once over the cap, the oldest
  half is evicted in one batched ``del`` (amortised O(1)) and counted in
  :attr:`TrafficCapture.dropped_records`.

:meth:`TrafficCapture.total_bytes` is a streaming counter of wire bytes
over every recorded packet, truncated and evicted ones included, so it
stays O(1) at swarm scale and matches what a real tcpdump byte counter
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.net.addresses import Endpoint


@dataclass(frozen=True, slots=True)
class CapturedPacket:
    """One on-the-wire datagram as seen by the capture point.

    Slotted: captures at swarm scale hold millions of these, and the
    network allocates one per datagram whenever a capture wants it.
    ``payload`` is what the capture kept (at most its snaplen);
    ``length`` is the datagram's size on the wire and defaults to
    ``len(payload)``.
    """

    time: float
    src: Endpoint
    dst: Endpoint
    payload: bytes
    dropped: bool = False  # True if the network dropped it (loss, faults, or routing)
    length: int = -1

    def __post_init__(self) -> None:
        if self.length < 0:
            object.__setattr__(self, "length", len(self.payload))

    @property
    def size(self) -> int:
        """Wire size in bytes, however much of the payload was kept."""
        return self.length

    @property
    def truncated(self) -> bool:
        """True if the snaplen cut this packet's payload short."""
        return len(self.payload) < self.length


class TrafficCapture:
    """A packet log with simple filtering and optional bounds.

    A capture may be *scoped* to a set of host IPs (a container's
    interface) via ``interface_ips``; unscoped captures see everything
    (the network-wide tap used in controlled experiments). The scope is
    read when the capture is registered with a network. ``snaplen``
    caps the payload bytes kept per packet; ``max_packets`` bounds
    :attr:`packets` as a ring buffer. ``None`` (the default for both)
    keeps every byte of every packet.
    """

    def __init__(
        self,
        name: str = "capture",
        interface_ips: Iterable[str] | None = None,
        max_packets: int | None = None,
        snaplen: int | None = None,
    ) -> None:
        if snaplen is not None and snaplen < 0:
            raise ValueError(f"snaplen must be >= 0, got {snaplen}")
        self.name = name
        self.interface_ips: frozenset[str] | None = (
            frozenset(interface_ips) if interface_ips is not None else None
        )
        self.packets: list[CapturedPacket] = []
        self.max_packets = max_packets
        self.snaplen = snaplen
        #: Packets evicted by the ring bound (never silently lost).
        self.dropped_records = 0
        self._running = True
        self._total_bytes = 0
        # Networks this capture is registered with (via
        # Network.add_capture); stop() deregisters from each so the
        # data plane stops routing datagrams here.
        self._taps: list = []

    def wants(self, packet: CapturedPacket) -> bool:
        """True if this capture is running and the packet is in its scope."""
        if not self._running:
            return False
        if self.interface_ips is None:
            return True
        return packet.src.ip in self.interface_ips or packet.dst.ip in self.interface_ips

    def record(self, packet: CapturedPacket) -> None:
        """Record one packet if :meth:`wants` it."""
        if self.wants(packet):
            self._record(packet)

    def _record(self, packet: CapturedPacket) -> None:
        """Record a packet already known to be in scope.

        The network calls this directly: its IP index has already done
        the scope check. Truncates to the snaplen and evicts the oldest
        half past the ring cap.
        """
        self._total_bytes += packet.length
        snaplen = self.snaplen
        if snaplen is not None and len(packet.payload) > snaplen:
            packet = CapturedPacket(packet.time, packet.src, packet.dst,
                                    packet.payload[:snaplen], packet.dropped, packet.length)
        packets = self.packets
        packets.append(packet)
        limit = self.max_packets
        if limit is not None and len(packets) > limit:
            evicted = len(packets) - limit // 2
            self.dropped_records += evicted
            del packets[:evicted]

    def stop(self) -> None:
        """Stop recording and detach from every registered network.

        Deregistering matters for throughput, not just semantics: the
        network then neither routes datagrams here nor, once no capture
        is left, builds a :class:`CapturedPacket` at all. Idempotent.
        """
        self._running = False
        for network in self._taps:
            network.remove_capture(self)
        self._taps.clear()

    # -- queries ---------------------------------------------------------

    def filter(self, predicate: Callable[[CapturedPacket], bool]) -> list[CapturedPacket]:
        """Filter."""
        return [p for p in self.packets if predicate(p)]

    def between(self, a: Endpoint | str, b: Endpoint | str) -> list[CapturedPacket]:
        """Packets in either direction between two endpoints (or bare IPs)."""

        def matches(ep: Endpoint, spec: Endpoint | str) -> bool:
            """Matches."""
            if isinstance(spec, str):
                return ep.ip == spec
            return ep == spec

        return [
            p
            for p in self.packets
            if (matches(p.src, a) and matches(p.dst, b))
            or (matches(p.src, b) and matches(p.dst, a))
        ]

    def total_bytes(self) -> int:
        """Wire bytes recorded over the capture's lifetime (O(1)).

        A streaming counter of :attr:`CapturedPacket.length`, so
        truncated and ring-evicted packets count in full. With the
        default unbounded mode this equals ``sum(p.size for p in
        self.packets)`` exactly.
        """
        return self._total_bytes

    def __len__(self) -> int:
        return len(self.packets)
