"""Table VI: overhead of peer-assisted integrity (IM) checking.

Three control groups, as in §V-B's evaluation: 6 peers each (3 senders,
3 receivers), each receiver streaming 10-second segments for the
experiment duration:

1. plain CDN streaming (no PDN) — the normalisation baseline;
2. PDN delivery, no IM checking;
3. PDN delivery with IM calculation (senders) and verification
   (receivers).

Reported: relative CPU and memory (receivers' means, normalised to
group 1) and the mean segment delivery latency (:math:`T_{recv} -
T_{send}`). Paper: CPU 1 / 1.11 / 1.14, memory 1 / 1.21 / 1.24, latency
67 ms / 140 ms for 3 MB segments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analyzer import PdnAnalyzer
from repro.core.testbed import build_test_bed
from repro.defenses.integrity import ClientIntegrity, IntegrityCoordinator
from repro.environment import Environment, collect_finished_environments
from repro.harness.registry import experiment
from repro.harness.result import ResultBase
from repro.pdn.provider import PEER5
from repro.util.tables import render_table
from repro.web.page import WebPage, Website

#: The control groups in order: (label, PDN delivery, IM checking).
GROUPS = [("no PDN", False, False), ("PDN", True, False), ("PDN+IM", True, True)]

PAPER_ROWS = [
    ("no PDN, no IM", 1.00, 1.00, None),
    ("PDN, no IM", 1.11, 1.21, 67.0),
    ("PDN + IM checking", 1.14, 1.24, 140.0),
]


@dataclass
class GroupMeasurement:
    """One control group's mean CPU/memory, delivery latency, and stalls."""
    label: str
    cpu: float
    memory: float
    latency_ms: float | None
    stalls: int


@dataclass
class ImCheckingResult(ResultBase):
    """Table VI: the three control groups' measurements."""
    groups: list[GroupMeasurement]

    def normalised_rows(self) -> list[list]:
        """Rows normalised to the no-PDN group, with the paper column."""
        base_cpu = self.groups[0].cpu or 1.0
        base_mem = self.groups[0].memory or 1.0
        rows = []
        for group, (label, p_cpu, p_mem, p_lat) in zip(self.groups, PAPER_ROWS):
            rows.append(
                [
                    label,
                    f"{group.cpu / base_cpu:.2f}",
                    f"{group.memory / base_mem:.2f}",
                    "-" if group.latency_ms is None else f"{group.latency_ms:.0f}ms",
                    f"{p_cpu:.2f} | {p_mem:.2f} | " + ("-" if p_lat is None else f"{p_lat:.0f}ms"),
                ]
            )
        return rows

    def render(self) -> str:
        """Render the result as the paper-style text block."""
        return render_table(
            ["group", "CPU", "memory", "latency", "paper (cpu|mem|latency)"],
            self.normalised_rows(),
            title="Table VI: Evaluation for IM checking",
        )

    def latency_delta_ms(self) -> float | None:
        """IM checking's added delivery latency (group 3 minus group 2)."""
        with_im = self.groups[2].latency_ms
        without = self.groups[1].latency_ms
        if with_im is None or without is None:
            return None
        return with_im - without


@experiment(
    "im-checking",
    help="Table VI: IM-checking overhead",
    paper_ref="Table VI",
    order=110,
    defaults={"duration": 200.0},
    full_params={"duration": 600.0},
    quick_params={"duration": 40.0},
)
def run(
    seed: int = 66,
    segment_bytes: int = 3_000_000,
    segment_seconds: float = 10.0,
    duration: float = 600.0,
    senders: int = 3,
    receivers: int = 3,
    quorum: int = 2,
) -> ImCheckingResult:
    """Run the three control groups and report Table VI."""
    groups = []
    for offset, (label, pdn, im_checking) in enumerate(GROUPS, start=1):
        if groups:
            # Frees the finished group's Environment: its ~57 MiB source
            # video, CDN cache and six peers' segment stores, which would
            # otherwise sit under this group's peak.
            collect_finished_environments()
        groups.append(_run_group(seed + offset, label, pdn, im_checking, segment_bytes,
                                 segment_seconds, duration, senders, receivers, quorum))
    return ImCheckingResult(groups)


def _run_group(
    seed: int,
    label: str,
    pdn: bool,
    im_checking: bool,
    segment_bytes: int,
    segment_seconds: float,
    duration: float,
    senders: int,
    receivers: int,
    quorum: int,
) -> GroupMeasurement:
    env = Environment(seed=seed)
    # The paper's peers sit on residential links; ~30 ms one-way puts the
    # no-IM delivery latency near their 67 ms measurement.
    env.network.base_latency = 0.03
    num_segments = max(3, int(duration / segment_seconds))
    bed = build_test_bed(
        env,
        PEER5,
        video_segments=num_segments,
        segment_seconds=segment_seconds,
        segment_bytes=segment_bytes,
    )
    integrity = None
    if im_checking:
        coordinator = IntegrityCoordinator(
            env.loop, env.rand.fork("im"), bed.provider, env.urlspace, quorum=quorum
        ).install()
        integrity = ClientIntegrity(env.loop, coordinator)

    # A plain CDN-only mirror of the page for the no-PDN group.
    baseline = Website(f"plain.{bed.site.domain}", category="video")
    baseline.add_page(WebPage("/", "plain", has_video=True, video_url=bed.video_url))
    env.urlspace.register(baseline.domain, baseline)

    analyzer = PdnAnalyzer(env)
    url = f"https://{bed.site.domain}/" if pdn else f"https://{baseline.domain}/"

    sender_peers = []
    if pdn:
        for i in range(senders):
            peer = analyzer.create_peer(name=f"sender-{i}", integrity=integrity)
            peer.open(url)
            sender_peers.append(peer)
        analyzer.run(2 * segment_seconds)  # senders get ahead of receivers

    receiver_peers = []
    windows = []
    for i in range(receivers):
        peer = analyzer.create_peer(name=f"receiver-{i}", integrity=integrity)
        start = env.loop.now
        peer.open(url)
        windows.append((start, start + duration))
        receiver_peers.append(peer)
    analyzer.run(duration + 4 * segment_seconds)

    cpus, mems, latencies, stalls = [], [], [], 0
    for peer, (t0, t1) in zip(receiver_peers, windows):
        cpus.append(peer.monitor.cpu.mean_between(t0, t1))
        mems.append(peer.monitor.memory.mean_between(t0, t1))
        if peer.session is not None and peer.session.sdk is not None:
            latencies.extend(peer.session.sdk.stats.p2p_latencies)
        if peer.session is not None and peer.session.player is not None:
            stalls += peer.session.player.stats.stalls
    analyzer.teardown()

    latency_ms = (sum(latencies) / len(latencies) * 1000.0) if latencies else None
    return GroupMeasurement(
        label=label,
        cpu=sum(cpus) / len(cpus),
        memory=sum(mems) / len(mems),
        latency_ms=latency_ms,
        stalls=stalls,
    )
