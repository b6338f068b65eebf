"""Sharded multi-process swarm simulation: conservative PDES by region.

The single-process core tops out around 120–140k events/sec at 100k
hosts (``docs/PERFORMANCE.md``), so the only way up is out. This module
partitions an indexed swarm across worker processes **by region** and
runs the shards in parallel under a conservative parallel-discrete-event
time-window protocol:

* every cross-shard datagram is cross-region (regions map to shards as
  ``shard_of(i) = (i % R) % K``), so its delivery delay is at least the
  **lookahead** ``L = max(0.001, cross_region_latency - jitter)``;
* each shard therefore runs its :class:`~repro.net.clock.EventLoop`
  freely up to the next window barrier ``W_k = W_{k-1} + L`` — nothing
  another shard does during the window can schedule an event inside it;
* at the barrier, shards exchange their egress columns (parallel
  ``when``/``dst``/``src`` arrays, no per-datagram objects on the
  wire) over pipes, and each shard merges remote arrivals through the
  existing ``(when, seq)`` timing-wheel/heap order with fresh local
  sequence numbers (:meth:`~repro.net.network.ShardNetwork.inject_batches`).

Each shard's sends come from a precomputed, columnar traffic program
drained by a **send plane** (:meth:`ShardWorker._pump`): one queued
head entry stands for every remaining send, and one frame fires sends
and the delivery rows between them in ``(when, seq)`` order — the head's
``seq`` is drawn right after the previous send, where a per-send event
would have been scheduled, so dispatch order, event counts and dispatch
traces are exactly those of one queued event per send, without the
queue entry, heap sift and dispatch pass each of those cost.

Worker-count invariance (the digest oracle) rests on three rules, all
enforced here and spelled out in ``docs/SHARDING.md``:

1. **Randomness is precomputed per region.** A region's traffic program
   (send times, destinations, latency and fault-loss uniforms) is drawn
   from ``DeterministicRandom(seed).fork(f"traffic:{r}")`` before the
   clock starts, so the draws a send consumes never depend on which
   process executes it.
2. **Every shard applies the whole fault plan.** Each worker builds the
   identical :class:`~repro.net.faults.FaultPlan` from the same seeded
   planner and applies every event — remote hosts resolve to
   :class:`~repro.net.network.RemoteHostRef` stubs — so
   ``host_is_down``/``conditions_for`` answers match at any K.
3. **The digest is composed of K-invariant quantities only**: global
   datagram totals, drops by reason, per-region delivery aggregates and
   a commutative per-host checksum. Window counts, worker counts, wheel
   counters and per-shard event counts are diagnostics, never digest
   inputs.

``run_workload`` is the entry point; it picks the multi-process
coordinator, or an in-process round-robin ("inline") coordinator when
the run needs a single address space — one worker, an exact
``max_events`` budget, or an armed dispatch-trace hook (``verify
--sanitize`` must see every shard's events in one
:class:`~repro.analysis.sanitizer.DispatchTrace`). A worker process
that fails or dies surfaces as
:class:`~repro.util.errors.ShardWorkerError`, naming its shard and
barrier.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import traceback
from array import array
from dataclasses import dataclass, field

from repro.net.clock import EventLoop
from repro.net.faults import FaultInjector, FaultPlan, RandomFaultPlanner, load_plan
from repro.net.network import Host, RemoteHostRef, ShardNetwork
from repro.scenarios.arrivals import FlashCrowdArrivals
from repro.util.errors import ConfigurationError, ShardWorkerError
from repro.util.perf import peak_rss_kb
from repro.util.rand import DeterministicRandom

#: Fault plans draw target hosts from a bounded hostname prefix, so a
#: million-viewer swarm does not materialise a million-string host list
#: per worker (and plans stay comparable across swarm sizes ≥ the cap).
FAULT_PLAN_HOSTS = 1024

#: Default region ring. Four regions is the paper's coarse geography
#: and lets ``--shard-workers`` scale to 4 (K may not exceed R).
DEFAULT_REGIONS = ("us", "eu", "asia", "sa")

_CHECKSUM_MASK = 0xFFFFFFFFFFFFFFFF

ARRIVAL_MODES = ("uniform", "flash-crowd")


@dataclass(frozen=True)
class SwarmWorkload:
    """A fully seeded indexed-swarm description (the digest's identity).

    Everything that affects simulation *outcome* lives here; worker
    count deliberately does not, so ``to_dict()`` — and therefore the
    run digest — is identical at any ``--shard-workers``.
    """

    viewers: int = 5_000
    datagrams: int = 25_000
    seed: int = 2024
    regions: tuple[str, ...] = DEFAULT_REGIONS
    locality: float = 0.95
    payload_bytes: int = 200
    arrivals: str = "uniform"
    faults: str = "calm"
    horizon: float = 60.0
    base_latency: float = 0.02
    cross_region_latency: float = 0.12
    jitter: float = 0.004
    port: int = 4000
    ip_base: str = "5.0.0.1"

    def __post_init__(self) -> None:
        if self.viewers < 1:
            raise ConfigurationError("a swarm needs at least one viewer")
        if self.datagrams < 0:
            raise ConfigurationError("datagrams must be non-negative")
        if not self.regions:
            raise ConfigurationError("a swarm needs at least one region")
        if not 0.0 <= self.locality <= 1.0:
            raise ConfigurationError("locality must be within [0, 1]")
        if self.arrivals not in ARRIVAL_MODES:
            known = ", ".join(ARRIVAL_MODES)
            raise ConfigurationError(
                f"unknown arrival mode {self.arrivals!r} (known: {known})")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.base_latency <= 0 or self.jitter < 0:
            raise ConfigurationError("latency knobs out of range")
        if self.cross_region_latency < self.base_latency:
            raise ConfigurationError(
                "cross-region latency must be at least the same-region base")

    @property
    def lookahead(self) -> float:
        """The conservative window width: the cross-region delay floor.

        Cross-region one-way delay is ``cross + uniform(-j, j)`` clamped
        above 1 ms, so it can never undercut ``max(0.001, cross - j)``
        — the same float expression, evaluated once here. Fault
        impairments only *add* delay, so the floor survives chaos.
        """
        return max(0.001, self.cross_region_latency - self.jitter)

    def to_dict(self) -> dict:
        """Serialise to plain JSON types (the digest form)."""
        return {
            "viewers": self.viewers,
            "datagrams": self.datagrams,
            "seed": self.seed,
            "regions": list(self.regions),
            "locality": self.locality,
            "payload_bytes": self.payload_bytes,
            "arrivals": self.arrivals,
            "faults": self.faults,
            "horizon": self.horizon,
            "base_latency": self.base_latency,
            "cross_region_latency": self.cross_region_latency,
            "jitter": self.jitter,
            "port": self.port,
            "ip_base": self.ip_base,
        }


def shard_of(idx: int, num_regions: int, num_shards: int) -> int:
    """The shard owning viewer ``idx`` under the region ring mapping."""
    return (idx % num_regions) % num_shards


class _TrafficProgram:
    """One shard's precomputed send schedule, columnar."""

    __slots__ = ("when", "src", "dst", "u_latency", "u_fault")

    def __init__(self) -> None:
        self.when = array("d")
        self.src = array("q")
        self.dst = array("q")
        self.u_latency = array("d")
        self.u_fault = array("d")

    def __len__(self) -> int:
        return len(self.when)


def _region_member_count(viewers: int, num_regions: int, region_index: int) -> int:
    """How many viewer indices below ``viewers`` land in this region."""
    if viewers <= region_index:
        return 0
    return (viewers - region_index + num_regions - 1) // num_regions


def _region_program(workload: SwarmWorkload, region_index: int) -> _TrafficProgram:
    """Materialise one region's sends from its own forked stream.

    Per-region streams are the worker-count-invariance seam: region
    ``r``'s draws depend only on ``(seed, r)``, never on which shard
    executes them or what other regions drew. Draw order per send is
    fixed — arrival time (uniform mode), locality trial, destination,
    latency uniform, fault-loss uniform — and flash-crowd mode adds one
    trailing perturbation draw per send (see below).
    """
    rand = DeterministicRandom(workload.seed).fork(f"traffic:{region_index}")
    num_regions = len(workload.regions)
    viewers = workload.viewers
    members = _region_member_count(viewers, num_regions, region_index)
    program = _TrafficProgram()
    if members == 0 or workload.datagrams == 0:
        return program
    base_share = workload.datagrams // viewers
    remainder = workload.datagrams % viewers
    total = sum(
        base_share + (1 if region_index + j * num_regions < remainder else 0)
        for j in range(members)
    )
    if total == 0:
        return program
    window = workload.horizon * 0.8

    flash_times: list[float] | None = None
    if workload.arrivals == "flash-crowd":
        spike = total // 2
        baseline = max(1.0, (total - spike) / (window / 60.0))
        process = FlashCrowdArrivals(
            base_rate_per_min=baseline,
            spike_at_sec=window * 0.25,
            spike_arrivals=spike,
            spike_width_sec=max(window * 0.1, 0.001),
        )
        flash_times = process.times(rand, window)
        if not flash_times:  # degenerate tiny windows: keep one send time
            flash_times = [window * 0.5]

    when = program.when
    src_col = program.src
    dst_col = program.dst
    u_lat = program.u_latency
    u_fault = program.u_fault
    uniform = rand.uniform
    draw = rand.random
    randint = rand.randint
    locality = workload.locality
    sent = 0
    for j in range(members):
        src = region_index + j * num_regions
        count = base_share + (1 if src < remainder else 0)
        for _ in range(count):
            if flash_times is None:
                t = uniform(0.0, window)
            else:
                # Flash-crowd times are rounded to 1 ms by the arrival
                # process, which can collide exactly with 3-decimal
                # fault-plan instants and make (when, seq) tie order
                # depend on K. A sub-microsecond deterministic
                # perturbation keeps the crowd shape and restores
                # measure-zero tie probability.
                t = flash_times[sent % len(flash_times)] + draw() * 1e-6
            u_loc = draw()
            if u_loc < locality:
                dst = region_index + randint(0, members - 1) * num_regions
            else:
                dst = randint(0, viewers - 1)
            when.append(t)
            src_col.append(src)
            dst_col.append(dst)
            u_lat.append(draw())
            u_fault.append(draw())
            sent += 1
    return program


def _shard_program(workload: SwarmWorkload, shard_id: int, num_shards: int) -> _TrafficProgram:
    """Concatenate the owned regions' programs and sort by send time.

    Owned regions concatenate in ascending region order at every K, so
    the stable time sort leaves equal-time sends in the same relative
    order a single shard owning all regions would produce — the send
    plane then executes sends in an order independent of K. Each column
    is gathered through the sort order in one ``array`` construction.
    """
    merged = _TrafficProgram()
    for region_index in range(len(workload.regions)):
        if region_index % num_shards != shard_id:
            continue
        part = _region_program(workload, region_index)
        merged.when.extend(part.when)
        merged.src.extend(part.src)
        merged.dst.extend(part.dst)
        merged.u_latency.extend(part.u_latency)
        merged.u_fault.extend(part.u_fault)
    if not merged.when:
        return merged
    order = sorted(range(len(merged.when)), key=merged.when.__getitem__)
    out = _TrafficProgram()
    for name in _TrafficProgram.__slots__:
        col = getattr(merged, name)
        setattr(out, name, array(col.typecode, map(col.__getitem__, order)))
    return out


def build_fault_plan(workload: SwarmWorkload) -> FaultPlan:
    """The workload's fault plan — identical on every shard.

    Presets draw from ``fork("fault-plan")`` of the workload seed over
    the bounded ``v0..v{N-1}`` hostname prefix; a ``.json`` spec loads
    the explicit plan. Either way the result depends only on the
    workload, so every worker arms the same events at the same times.
    """
    hostnames = [f"v{i}" for i in range(min(workload.viewers, FAULT_PLAN_HOSTS))]
    planner = RandomFaultPlanner(DeterministicRandom(workload.seed).fork("fault-plan"))
    return load_plan(
        workload.faults,
        planner=planner,
        hosts=hostnames,
        horizon=workload.horizon,
        regions=workload.regions,
        hostnames=(),
    )


class ShardFaultInjector(FaultInjector):
    """A :class:`FaultInjector` that resolves hosts across shard lines.

    The base ``_host`` scans ``network.hosts`` — which on a shard holds
    only the local slice, so a crash of a remote viewer would be
    silently skipped and ``host_is_down`` answers would depend on K.
    Indexed viewer names (``v{i}``) resolve through the shard's
    directory instead: local indices to their real :class:`Host`,
    remote ones to a :class:`RemoteHostRef` the fault state machine can
    mark down, heal and query exactly like a local host.
    """

    def _host(self, name: str) -> "Host | RemoteHostRef | None":
        network = self.network
        if isinstance(network, ShardNetwork) and name.startswith("v"):
            try:
                idx = int(name[1:])
            except ValueError:
                idx = -1
            if idx >= 0:
                return network.host_ref(idx)
        return super()._host(name)


class ShardWorker:
    """One shard: its network slice, send plane and fault injector."""

    def __init__(self, workload: SwarmWorkload, shard_id: int, num_shards: int) -> None:
        self.workload = workload
        self.shard_id = shard_id
        rand = DeterministicRandom(workload.seed)
        self.net = ShardNetwork(
            shard_id,
            num_shards,
            workload.regions,
            ip_base=workload.ip_base,
            port=workload.port,
            payload=b"\x00" * workload.payload_bytes,
            rand=rand,
            base_latency=workload.base_latency,
            cross_region_latency=workload.cross_region_latency,
            jitter=workload.jitter,
        )
        self.loop = self.net.loop
        num_regions = len(workload.regions)
        for idx in range(workload.viewers):
            if (idx % num_regions) % num_shards == shard_id:
                host = self.net.add_indexed_host(idx)
                # The swarm counts bytes_received; a shallow inbox ring
                # keeps million-viewer RSS bounded.
                host.bind_udp(workload.port, inbox_limit=8)
        self.faults: ShardFaultInjector | None = None
        plan = build_fault_plan(workload)
        if len(plan):
            # Armed before the send plane, so fault events' sequence
            # numbers precede the first send's — at an exact time tie the
            # fault applies first, at any worker count.
            self.faults = ShardFaultInjector(self.net, rand.fork("shard-faults"))
            self.faults.arm(plan)
        self.program = _shard_program(workload, shard_id, num_shards)
        self._cursor = 0
        self.peak_occupancy = 0
        self._start_program()

    def _start_program(self) -> None:
        """Queue the send plane's head at the program's first send."""
        if len(self.program):
            self.loop.arm_send_plane(self.program.when[0], self._pump)

    def _pump(self, when: float, seq: int, deadline: float, budget: int) -> int:
        """The send plane's frame: fire due sends in ``(when, seq)`` order.

        Called by the dispatch loops when the head ``(when, seq)`` — the
        next send's key — is the queue's minimum and due. Each send is
        one ``send_indexed`` call and one fired event, reported to the
        trace hook and sinks as ``(when, seq, self._pump, ())`` — the
        shape and callsite of the one-event-per-send pump this frame
        replaces. After each send the next send's ``seq`` is drawn where
        that pump scheduled its successor; delivery rows keyed before it
        run through the network's drain (told to stop at the send), and
        a preceding heap entry, a row past ``deadline`` or a spent
        ``budget`` ends the frame and re-queues the head. The head stays
        one ``pending`` event until the program's last send fires.
        """
        loop = self.loop
        heap = loop._heap
        program = self.program
        whens = program.when
        srcs = program.src
        dsts = program.dst
        u_latency = program.u_latency
        u_fault = program.u_fault
        end = len(whens)
        send = self.net.send_indexed
        drain = self.net._drain_cursor
        i = self._cursor
        fired = 0
        try:
            while True:
                loop.now = when
                entry = None
                trace = EventLoop._trace
                if trace is not None:
                    entry = (when, seq, self._pump, ())
                    trace(loop, entry)
                send(srcs[i], dsts[i], u_latency[i], u_fault[i])
                i += 1
                fired += 1
                sinks = EventLoop._sinks
                if sinks:
                    if entry is None:
                        entry = (when, seq, self._pump, ())
                    for sink in sinks:
                        sink.record(loop, entry)
                if i == end:
                    loop._live -= 1  # the head retires with the last send
                    return fired
                when = whens[i]
                seq = next(loop._seq)
                # Fire the delivery rows queued ahead of the next send.
                while True:
                    if fired >= budget or when > deadline:
                        loop._enqueue((when, seq))
                        return fired
                    order = loop._order
                    if not order and loop._wheel_count and not (heap and heap[0] < loop._hold):
                        loop._collect()
                        order = loop._order
                    if order:
                        r = order[-1]
                        row_when = loop._rwhen[r]
                        if row_when <= when:
                            row_seq = loop._rseq[r]
                            if row_when < when or row_seq < seq:
                                if not heap or heap[0] > (row_when, row_seq):
                                    fired += drain(deadline, budget - fired, when, seq)
                                    continue
                                loop._enqueue((when, seq))
                                return fired
                    if heap:
                        top = heap[0]
                        if top[0] <= when and (top[0] < when or top[1] < seq):
                            loop._enqueue((when, seq))
                            return fired
                    break
        finally:
            self._cursor = i

    def run_window(self, barrier: float, max_events: int | None = None) -> int:
        """Advance this shard to ``barrier``; returns events fired."""
        occupancy = self.loop.wheel_occupancy
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        return self.loop.run_until_window(barrier, max_events)

    def stats(self) -> dict:
        """This shard's digest-facing aggregates (all K-invariant).

        The per-host checksum folds ``(idx, bytes_received)`` pairs
        through a commutative 64-bit mix, so hosts may be summed in any
        order — and cross-shard same-instant delivery ordering (the one
        place sharding may legally reorder equal-time events) cannot
        perturb it.
        """
        net = self.net
        port = self.workload.port
        per_region: dict[str, list[int]] = {}
        checksum = 0
        for idx, host in net._local_index.items():
            sock = host.sockets.get(port)
            received = sock.bytes_received if sock is not None else 0
            cell = per_region.get(host.region)
            if cell is None:
                cell = per_region[host.region] = [0, 0]
            cell[0] += 1
            cell[1] += received
            checksum = (
                checksum
                + ((idx + 0x9E3779B9) * 0xBF58476D1CE4E5B9
                   + received * 0x94D049BB133111EB)
            ) & _CHECKSUM_MASK
        return {
            "sent": net.datagrams_sent,
            "delivered": net.datagrams_delivered,
            "dropped": net.datagrams_dropped,
            "in_flight": net.datagrams_in_flight,
            "drops_by_reason": dict(net.drops_by_reason),
            "per_region": {
                region: {"hosts": cell[0], "bytes_received": cell[1]}
                for region, cell in per_region.items()
            },
            "host_checksum": checksum,
        }

    def final_report(self) -> dict:
        """Stats plus per-shard diagnostics (K-dependent, digest-exempt)."""
        occupancy = self.loop.wheel_occupancy
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        wheel = self.loop.wheel_stats()
        # Occupancy is a gauge; report the barrier-sampled peak, not the
        # (empty) end-of-run value.
        wheel["occupancy"] = self.peak_occupancy
        return {
            "shard": self.shard_id,
            "hosts": len(self.net._local_index),
            "stats": self.stats(),
            "egress_sent": self.net.egress_sent,
            "remote_injected": self.net.remote_injected,
            "events_fired": self.loop.events_fired,
            "fault_events_applied": self.faults.events_applied if self.faults else 0,
            "wheel": wheel,
            "peak_rss_kb": peak_rss_kb(),
        }


@dataclass
class ShardRunReport:
    """The merged outcome of a sharded swarm run."""

    workload: dict
    workers: int
    mode: str
    windows: int
    digest: str
    totals: dict
    drops_by_reason: dict
    per_region: dict
    host_checksum: int
    events_fired: int
    per_shard: list = field(default_factory=list)

    @property
    def conservation_ok(self) -> bool:
        """``sent == delivered + dropped + in_flight`` after the merge."""
        totals = self.totals
        return totals["sent"] == (
            totals["delivered"] + totals["dropped"] + totals["in_flight"]
        )

    def wheel_summary(self) -> dict:
        """Aggregate wheel counters across shards (sum; max occupancy)."""
        agg = {"scheduled": 0, "overflow": 0, "batched": 0,
               "batch_drains": 0, "max_occupancy": 0}
        for report in self.per_shard:
            wheel = report["wheel"]
            agg["scheduled"] += wheel["scheduled"]
            agg["overflow"] += wheel["overflow"]
            agg["batched"] += wheel["batched"]
            agg["batch_drains"] += wheel["batch_drains"]
            if wheel["occupancy"] > agg["max_occupancy"]:
                agg["max_occupancy"] = wheel["occupancy"]
        return agg


def _window_cap(workload: SwarmWorkload) -> int:
    """Anti-livelock bound on barrier rounds.

    Sends stop by ``0.8 * horizon``; deliveries, crash rejoins and
    impairment heals all land within a few horizon multiples, so a
    coordinator still moving data past ``8 * horizon + 240`` simulated
    seconds is looping, not finishing.
    """
    return int((workload.horizon * 8.0 + 240.0) / workload.lookahead) + 16


def _work_left(shards: list[ShardWorker], inbox: list[list]) -> bool:
    """Any queued event, undelivered batch or unflushed egress row."""
    if any(shard.loop.pending for shard in shards):
        return True
    if any(inbox):
        return True
    return any(cols[0] for shard in shards for cols in shard.net._egress)


def _merge_reports(
    workload: SwarmWorkload,
    workers: int,
    mode: str,
    windows: int,
    reports: list[dict],
) -> ShardRunReport:
    """Fold per-shard reports into the global, K-invariant digest."""
    totals = {"sent": 0, "delivered": 0, "dropped": 0, "in_flight": 0}
    drops: dict[str, int] = {}
    per_region: dict[str, dict[str, int]] = {}
    checksum = 0
    events_fired = 0
    for report in reports:
        stats = report["stats"]
        for key in totals:
            totals[key] += stats[key]
        for reason, count in stats["drops_by_reason"].items():
            drops[reason] = drops.get(reason, 0) + count
        for region, cell in stats["per_region"].items():
            target = per_region.setdefault(region, {"hosts": 0, "bytes_received": 0})
            target["hosts"] += cell["hosts"]
            target["bytes_received"] += cell["bytes_received"]
        checksum = (checksum + stats["host_checksum"]) & _CHECKSUM_MASK
        events_fired += report["events_fired"]
    payload = {
        "workload": workload.to_dict(),
        "totals": totals,
        "drops_by_reason": dict(sorted(drops.items())),
        "per_region": {region: per_region[region] for region in sorted(per_region)},
        "host_checksum": checksum,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return ShardRunReport(
        workload=workload.to_dict(),
        workers=workers,
        mode=mode,
        windows=windows,
        digest=digest,
        totals=totals,
        drops_by_reason=payload["drops_by_reason"],
        per_region=payload["per_region"],
        host_checksum=checksum,
        events_fired=events_fired,
        per_shard=reports,
    )


def _publish_wheel_stats(reports: list[dict]) -> None:
    """Feed worker wheel snapshots to any absorbing profile sinks.

    Only the multi-process coordinator calls this: inline shards live in
    the observing process, where class-wide sinks already record every
    fired event directly, and absorbing the same counters again would
    double-count.
    """
    sinks = EventLoop._sinks
    if not sinks:
        return
    for report in reports:
        key = f"shard:{report['shard']}"
        for sink in sinks:
            absorb = getattr(sink, "absorb_remote", None)
            if absorb is not None:
                absorb(key, report["wheel"])


def _run_inline(
    workload: SwarmWorkload, workers: int, max_events: int | None
) -> ShardRunReport:
    """Round-robin the shards in-process, one barrier window at a time.

    Bit-identical to the multi-process coordinator (same barriers, same
    batch exchange order), which is what lets DetSan's dispatch trace
    and ``run_all(max_events=N)`` exactness cover sharded runs without
    crossing a process boundary. The ``max_events`` budget is handed
    down window by window; exhausting it with work still queued raises
    the same livelock error :meth:`EventLoop.run_all` would.
    """
    shards = [ShardWorker(workload, shard, workers) for shard in range(workers)]
    lookahead = workload.lookahead
    window_cap = _window_cap(workload)
    inbox: list[list] = [[] for _ in range(workers)]
    remaining = max_events
    windows = 0
    barrier = 0.0
    while True:
        windows += 1
        if windows > window_cap:
            raise RuntimeError(
                f"shard coordinator exceeded {window_cap} windows; likely a livelock"
            )
        # Cumulative, not windows * lookahead: each barrier must equal
        # the previous barrier plus exactly the lookahead float, so a
        # remote arrival at `send + L` can never round below it.
        barrier += lookahead
        for shard in shards:
            batches = inbox[shard.shard_id]
            if batches:
                inbox[shard.shard_id] = []
                shard.net.inject_batches(batches)
            if remaining is None:
                shard.run_window(barrier)
            else:
                remaining -= shard.run_window(barrier, remaining)
                if remaining <= 0 and _work_left(shards, inbox):
                    raise RuntimeError(
                        f"event loop exceeded {max_events} events; likely a livelock"
                    )
        moved = False
        for shard in shards:
            for dst, cols in shard.net.flush_egress().items():
                inbox[dst].append(cols)
                moved = True
        if not moved and not any(shard.loop.pending for shard in shards):
            break
    reports = [shard.final_report() for shard in shards]
    return _merge_reports(workload, workers, "inline", windows, reports)


def _shard_worker_main(
    conn, workload: SwarmWorkload, shard_id: int, workers: int, inherited: tuple = ()
) -> None:
    """Child-process loop: build the shard, then serve barrier commands.

    ``inherited`` are the coordinator's pipe ends the fork copied into
    this child (its own and those of the shards forked earlier); the
    child closes them at once, so each worker sees EOF as soon as the
    coordinator closes its end.

    Any exception — while building the shard, running a window or
    writing the final report — goes back to the coordinator as
    ``("error", shard_id, barrier, traceback)`` (``barrier`` is
    ``None`` before the first window) instead of killing the child
    with nothing but a closed pipe to show for it.
    """
    for other in inherited:
        other.close()
    barrier = None
    try:
        # A worker builds hundreds of thousands of objects that live as
        # long as it does, then only churns short-lived delivery rows.
        # Collecting while building frees nothing, and every later full
        # collection would walk all of it again: build with the
        # collector off, then freeze what was built (and the heap the
        # fork inherited) out of its reach.
        gc.disable()
        worker = ShardWorker(workload, shard_id, workers)
        gc.freeze()
        gc.enable()
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            op = message[0]
            if op == "run":
                _, barrier, batches = message
                if batches:
                    worker.net.inject_batches(batches)
                worker.run_window(barrier)
                conn.send(("window", worker.net.flush_egress(), worker.loop.pending))
            elif op == "finish":
                conn.send(("report", worker.final_report()))
            else:  # "exit"
                break
    except Exception:
        try:
            conn.send(("error", shard_id, barrier, traceback.format_exc()))
        except OSError:  # pragma: no cover - the coordinator is gone too
            pass
    finally:
        conn.close()


def _reply(conn, proc, shard: int, barrier: float | None) -> tuple:
    """Shard ``shard``'s next reply, or :class:`ShardWorkerError`.

    An ``"error"`` reply raises with the worker's exception type,
    message and traceback; a pipe that closes without a reply means the
    child died hard, and the error says how it exited.
    """
    try:
        reply = conn.recv()
    except (EOFError, OSError):
        proc.join(timeout=5)
        raise ShardWorkerError(
            shard, barrier,
            f"worker process died without reporting (exit code {proc.exitcode})",
        ) from None
    if reply[0] == "error":
        _, shard_id, at, worker_traceback = reply
        lines = worker_traceback.strip().splitlines()
        raise ShardWorkerError(shard_id, at, lines[-1], worker_traceback)
    return reply


def _command(conn, proc, shard: int, barrier: float | None, message: tuple) -> None:
    """Send ``message`` to a worker; a closed pipe surfaces its failure."""
    try:
        conn.send(message)
    except OSError:
        _reply(conn, proc, shard, barrier)
        raise ShardWorkerError(shard, barrier, "worker closed its pipe") from None


def _run_processes(workload: SwarmWorkload, workers: int) -> ShardRunReport:
    """Drive one worker process per shard through the window protocol.

    A worker that fails or dies raises :class:`ShardWorkerError` naming
    its shard and barrier; the ``finally`` closes every pipe, so the
    sibling workers see EOF, exit and are joined before it propagates.
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        context = multiprocessing.get_context("spawn")
    conns = []
    procs = []
    reports: list[dict] = []
    try:
        for shard in range(workers):
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_shard_worker_main,
                args=(child_conn, workload, shard, workers, (*conns, parent_conn)),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        lookahead = workload.lookahead
        window_cap = _window_cap(workload)
        inbox: list[list] = [[] for _ in range(workers)]
        windows = 0
        barrier = 0.0
        while True:
            windows += 1
            if windows > window_cap:
                raise RuntimeError(
                    f"shard coordinator exceeded {window_cap} windows; likely a livelock"
                )
            barrier += lookahead  # cumulative: see _run_inline
            for shard, conn in enumerate(conns):
                _command(conn, procs[shard], shard, barrier, ("run", barrier, inbox[shard]))
                inbox[shard] = []
            moved = False
            total_pending = 0
            for shard, conn in enumerate(conns):
                _, egress, pending = _reply(conn, procs[shard], shard, barrier)
                total_pending += pending
                # dict preserves insertion order and workers flush
                # shards ascending, so each inbox accumulates batches in
                # source-shard order — the order inject_batches' stable
                # sort preserves for equal delivery times.
                for dst, cols in egress.items():
                    inbox[dst].append(cols)
                    moved = True
            if not moved and total_pending == 0:
                break
        for shard, conn in enumerate(conns):
            _command(conn, procs[shard], shard, barrier, ("finish",))
        for shard, conn in enumerate(conns):
            reports.append(_reply(conn, procs[shard], shard, barrier)[1])
        for conn in conns:
            conn.send(("exit",))
    finally:
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
    _publish_wheel_stats(reports)
    return _merge_reports(workload, workers, "process", windows, reports)


def run_workload(
    workload: SwarmWorkload,
    workers: int = 1,
    *,
    max_events: int | None = None,
    inline: bool | None = None,
) -> ShardRunReport:
    """Run ``workload`` across ``workers`` shards; digest is K-invariant.

    ``workers`` clamps to ``[1, len(regions)]`` (a shard with no region
    would idle forever). ``inline=None`` auto-selects: multi-process
    when parallelism can pay, in-process round-robin when the run needs
    one address space — a single worker, an exact ``max_events`` budget,
    an armed dispatch-trace hook (``verify --sanitize``), or
    ``REPRO_SHARD_INLINE=1`` (CI determinism jobs exercise the protocol
    without fork overhead).
    """
    workers = max(1, min(workers, len(workload.regions)))
    if inline is None:
        inline = (
            workers == 1
            or max_events is not None
            or EventLoop._trace is not None
            or os.environ.get("REPRO_SHARD_INLINE", "") == "1"  # repro: allow[DET001] coordinator mode switch, not sim state
        )
    if not inline and max_events is not None:
        raise ConfigurationError(
            "max_events needs the inline coordinator (one address space)"
        )
    if inline:
        return _run_inline(workload, workers, max_events)
    return _run_processes(workload, workers)
