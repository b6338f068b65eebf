"""The simulation environment: one object bundling shared infrastructure.

Everything an experiment needs to stand up — event loop, network, URL
space, geolocation database, STUN/TURN infrastructure, and geo-aware
host allocation — lives here, so examples and benchmarks read as "build
an environment, add parties, run".
"""

from __future__ import annotations

import gc

from repro.net.clock import EventLoop
from repro.net.nat import NatType
from repro.net.network import Host, Network
from repro.privacy.geo import GeoDatabase
from repro.streaming.http import HttpClient, UrlSpace
from repro.util.ids import CountingIdFactory
from repro.util.rand import DeterministicRandom
from repro.webrtc.peer_connection import RtcConfig
from repro.webrtc.stun import StunServer
from repro.webrtc.turn import TurnServer


class Environment:
    """Shared infrastructure for one simulation run."""

    def __init__(self, seed: int | str = 0, loss_rate: float = 0.0) -> None:
        self.rand = DeterministicRandom(seed)
        self.loop = EventLoop()
        self.network = Network(self.loop, rand=self.rand, loss_rate=loss_rate)
        self.urlspace = UrlSpace()
        self.geo = GeoDatabase()
        self.ids = CountingIdFactory()
        self.stun = StunServer(self.network.add_host("stun.infra", region="US"))
        self._turn: TurnServer | None = None

    @property
    def turn(self) -> TurnServer:
        """A TURN relay, created on first use (the §V-C mitigation)."""
        if self._turn is None:
            self._turn = TurnServer(self.network.add_host("turn.infra", region="US"))
        return self._turn

    def rtc_config(self, relay_only: bool = False) -> RtcConfig:
        """Rtc config."""
        return RtcConfig(
            stun_servers=[self.stun.endpoint],
            turn_server=self.turn.endpoint if relay_only else None,
            relay_only=relay_only,
        )

    def add_viewer_host(
        self,
        name: str | None = None,
        country: str = "US",
        nat_type: NatType = NatType.FULL_CONE,
        uplink_bytes_per_sec: float | None = None,
        external_ip: str | None = None,
    ) -> Host:
        """A NATed host whose public address geolocates to ``country``.

        ``external_ip`` overrides the geolocated draw — scenario
        populations use it to park CGNAT viewers in the RFC 6598 shared
        space; the caller must supply an address not already in use.
        """
        name = name or self.ids.next("viewer")
        if external_ip is None:
            external_ip = self.geo.random_ip(self.rand.fork(f"ip:{name}"), country)
            attempts = 0
            while external_ip in self.network.hosts or self.network.is_routable(external_ip):
                external_ip = self.geo.random_ip(self.rand.fork(f"ip:{name}:{attempts}"), country)
                attempts += 1
        nat = self.network.add_nat(nat_type, external_ip=external_ip)
        return self.network.add_host(
            name, nat=nat, region=country, uplink_bytes_per_sec=uplink_bytes_per_sec
        )

    def add_server_host(self, name: str, country: str = "US") -> Host:
        """Add server host."""
        return self.network.add_host(name, region=country)

    def http_client(self, host: Host, proxy=None) -> HttpClient:
        """Http client."""
        return HttpClient(self.urlspace, client_ip=host.public_ip, proxy=proxy)

    def inject_faults(self, plan=None):
        """Attach a :class:`~repro.net.faults.FaultInjector`, arming ``plan``.

        Idempotent on the injector: repeated calls reuse the one attached
        to the network, so several plans can be armed on one environment.
        """
        from repro.net.faults import FaultInjector

        injector = self.network.faults
        if injector is None:
            injector = FaultInjector(self.network, urlspace=self.urlspace)
        if plan is not None:
            injector.arm(plan)
        return injector

    def run(self, seconds: float) -> None:
        """Advance the simulated clock by ``seconds``."""
        self.loop.run(seconds)


def collect_finished_environments() -> None:
    """Free the environments an experiment has finished with.

    An :class:`Environment` is a reference cycle (loop <-> handles <->
    peers <-> video), so refcounting never frees one, and the cyclic
    collector may not run before the next allocates. An experiment that
    builds environments one after another calls this, with no reference
    to the finished one left, before it builds the next: otherwise the
    dead graph (source video, CDN cache, peers' segment stores) sits
    under the next one's peak RSS.
    """
    gc.collect()
