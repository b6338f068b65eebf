"""One measured unit in a fresh interpreter: an experiment or a swarm run.

``run.py`` starts this file once per unit, so every unit's RSS is its
own high-water mark and its set-up includes interpreter start-up::

    python3 perfbench/worker.py '<json job>'

The job names the ``kind`` (``experiment``, ``swarm`` or ``swarm-shard``),
its inputs, the parent's ``perf_counter`` reading when it launched the
process (``spawned``; CLOCK_MONOTONIC is shared by all processes), and
``trace_dir`` when the unit runs traced. The last stdout line is the
unit's result as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from array import array
from contextlib import nullcontext

from layers import ROOT_SPAN, install_census, install_layers
from tracer import Tracer

REGIONS = ("us", "eu", "asia", "sa")
PORT = 4000
PAYLOAD = b"\x00" * 200


def _cpu() -> float:
    """User+sys seconds of this process and every child it waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib() -> float:
    """High-water RSS of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _tracer(job: dict, run_id: str) -> Tracer | None:
    if job.get("trace_dir") is None:
        return None
    tracer = Tracer(run_id, job["trace_dir"]).install()
    install_layers(tracer)
    return tracer


def run_experiment(job: dict) -> dict:
    """One registered experiment through ``harness.runner.execute_spec``."""
    from repro.harness import registry
    from repro.harness.runner import execute_spec

    registry.load_all()
    name = job["name"]
    params = registry.get(name).resolve_params()
    traced = _tracer(job, name)
    tracer = traced or Tracer(name).install()
    if traced is None:  # untraced: count datagrams per network, nothing per call
        install_census(tracer)
    setup = time.perf_counter() - job["spawned"]
    cpu0 = _cpu()
    t0 = time.perf_counter()
    with traced.span(ROOT_SPAN) if traced else nullcontext():
        outcome = execute_spec(name, job["seed"], params)
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    rss = _peak_rss_mib()
    tracer.flush()
    census = tracer.census
    tracer.uninstall()
    record = outcome.record
    return {
        "setup_s": setup, "wall_s": wall, "cpu_s": cpu, "rss_mib": rss,
        "status": record.status, "error": (record.error or "").strip().splitlines()[-1:],
        "digest": record.result_digest,
        # datagrams that reached an outcome: delivered or dropped
        "dgrams": census.get("net.delivered", 0) + census.get("net.dropped", 0),
    }


def _digest(fields: dict) -> str:
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_swarm(job: dict) -> dict:
    """100k public viewers, 1M datagrams through ``send_datagram``, unsharded.

    The ``bench_core_hotpath.bench_swarm`` shape, with a seeded network
    and traffic: hosts and the whole traffic pattern are built before
    the timer starts, then every datagram is sent in one pass and
    ``EventLoop.run_all`` drains them.
    """
    from repro.net.network import Network
    from repro.util.rand import DeterministicRandom

    seed, viewers, datagrams = job["seed"], job["viewers"], job["datagrams"]
    tracer = _tracer(job, "swarm")
    net = Network(rand=DeterministicRandom(f"perfbench-swarm:{seed}"))
    sockets = []
    for i in range(viewers):
        host = net.add_host(f"v{i}", region=REGIONS[i % len(REGIONS)])
        sockets.append(host.bind_udp(PORT))
    rand = DeterministicRandom(f"perfbench-traffic:{seed}")
    endpoints = [sock.endpoint for sock in sockets]
    senders = [sockets[k % viewers] for k in range(datagrams)]
    dests = [endpoints[rand.randint(0, viewers - 1)] for _ in range(datagrams)]
    setup = time.perf_counter() - job["spawned"]
    cpu0 = _cpu()
    t0 = time.perf_counter()
    with tracer.span(ROOT_SPAN) if tracer else nullcontext():
        for sock, dst in zip(senders, dests):
            sock.send(dst, PAYLOAD)
        net.loop.run_all(max_events=datagrams + 1)
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    # Bytes each host received, in host order: a datagram delivered to
    # the wrong host changes it.
    per_host = array("Q", (sock.bytes_received for sock in sockets)).tobytes()
    totals = {"sent": net.datagrams_sent, "delivered": net.datagrams_delivered,
              "dropped": net.datagrams_dropped, "in_flight": net.datagrams_in_flight}
    digest = _digest({**totals, "drops_by_reason": net.drops_by_reason,
                      "events_fired": net.loop.events_fired,
                      "per_host": hashlib.sha256(per_host).hexdigest()})
    rss = _peak_rss_mib()
    if tracer is not None:
        tracer.flush()
        tracer.uninstall()
    return {"setup_s": setup, "wall_s": wall, "cpu_s": cpu, "rss_mib": rss,
            "totals": totals, "dgrams": totals["delivered"] + totals["dropped"],
            "digest": digest}


def run_swarm_shard(job: dict) -> dict:
    """The same 100k/1M shape as a ``SwarmWorkload`` over worker processes.

    Host construction and traffic materialisation happen inside the
    shard workers, so they are part of ``wall_s`` here.
    """
    from repro.net.shard import SwarmWorkload, run_workload

    workload = SwarmWorkload(viewers=job["viewers"], datagrams=job["datagrams"],
                             seed=job["seed"])
    tracer = _tracer(job, "swarm-shard")
    setup = time.perf_counter() - job["spawned"]
    cpu0 = _cpu()
    t0 = time.perf_counter()
    with tracer.span(ROOT_SPAN) if tracer else nullcontext():
        report = run_workload(workload, job["workers"], inline=job.get("inline"))
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    rss = _peak_rss_mib()
    if tracer is not None:
        tracer.flush()
        tracer.uninstall()
    totals = {key: report.totals[key] for key in ("sent", "delivered", "dropped", "in_flight")}
    return {
        "setup_s": setup, "wall_s": wall, "cpu_s": cpu, "rss_mib": rss,
        "totals": totals, "dgrams": totals["delivered"] + totals["dropped"],
        "digest": report.digest, "workers": report.workers,
        "mode": report.mode, "conservation_ok": report.conservation_ok,
        "events_fired": report.events_fired,
        "cross_dgrams": sum(shard["egress_sent"] for shard in report.per_shard),
    }


KINDS = {"experiment": run_experiment, "swarm": run_swarm, "swarm-shard": run_swarm_shard}


def main(argv: list[str]) -> None:
    job = json.loads(argv[1])
    result = KINDS[job["kind"]](job)
    print(json.dumps(result), flush=True)
    # Skip tearing down a swarm's heap object by object: the unit is
    # measured and its children are joined, so only exit time is saved.
    os._exit(0)


if __name__ == "__main__":
    main(sys.argv)
