"""The send plane against its oracle, and loud shard-worker failures.

A shard drains its precomputed traffic program as a columnar send
plane: one queued head stands for every remaining send, and one frame
fires sends and delivery rows in ``(when, seq)`` order. The oracle is
the one-event-per-send pump chain it replaced (``pump_oracle``): every
dispatch trace, event count and digest must match it exactly.
"""

import multiprocessing
import os
from array import array

import pytest

from repro.analysis.sanitizer import DispatchTrace
from repro.harness.profile import TraceSink
from repro.net import shard
from repro.net.clock import EventLoop
from repro.net.shard import ShardWorker, SwarmWorkload, run_workload
from repro.util.errors import ConfigurationError, ShardWorkerError

from .pump_oracle import PumpChainWorker

SMALL = dict(viewers=400, datagrams=2_000, seed=2024)

WORKLOADS = {
    "calm": dict(SMALL),
    "chaos-mix": dict(SMALL, faults="chaos-mix"),
    "flash-crowd": dict(SMALL, arrivals="flash-crowd"),
}


def traced_run(workload: SwarmWorkload, workers: int):
    """Run inline with a TraceSink and a DispatchTrace attached."""
    sink = TraceSink(limit=10_000_000)
    trace = DispatchTrace()
    EventLoop.add_sink(sink)
    EventLoop.set_trace(trace)
    try:
        report = run_workload(workload, workers, inline=True)
    finally:
        EventLoop.clear_trace()
        EventLoop.remove_sink(sink)
    assert not sink.dropped
    return report, sink.events, trace.snapshot()


class TestPumpChainOracle:
    """The plane fires what the pump chain fired, in the same order."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_identical_dispatch(self, monkeypatch, name, workers):
        workload = SwarmWorkload(**WORKLOADS[name])
        plane, plane_events, plane_trace = traced_run(workload, workers)
        monkeypatch.setattr(shard, "ShardWorker", PumpChainWorker)
        chain, chain_events, chain_trace = traced_run(workload, workers)
        assert plane.digest == chain.digest
        assert plane.events_fired == chain.events_fired
        assert plane.totals == chain.totals
        assert plane_events == chain_events
        assert plane_trace.count == chain_trace.count == plane.events_fired
        assert plane_trace.fingerprint == chain_trace.fingerprint
        sends = [event for event in plane_events if event[1].endswith("ShardWorker._pump")]
        assert len(sends) == workload.datagrams

    def test_sends_are_not_queue_entries(self):
        # The chain queued every send; the plane re-queues its head only
        # when something else must fire first.
        worker = ShardWorker(SwarmWorkload(**SMALL), 0, 1)
        worker.run_window(1e9)
        wheel = worker.loop.wheel_stats()
        assert worker.net.datagrams_sent == SMALL["datagrams"]
        assert wheel["scheduled"] + wheel["overflow"] < SMALL["datagrams"] * 1.5

    def test_step_fires_one_send_at_a_time(self):
        plane = ShardWorker(SwarmWorkload(**SMALL), 0, 1)
        chain = PumpChainWorker(SwarmWorkload(**SMALL), 0, 1)
        for _ in range(300):
            assert plane.loop.step() and chain.loop.step()
            assert plane.loop.now == chain.loop.now
            assert plane.net.datagrams_sent == chain.net.datagrams_sent
            assert plane.loop.pending == chain.loop.pending
        assert plane.loop.events_fired == chain.loop.events_fired == 300

    def test_head_surfaces_in_queue_scans(self):
        worker = ShardWorker(SwarmWorkload(**SMALL), 0, 1)
        queued = list(worker.loop._iter_queued())
        assert len(queued) == worker.loop.pending == 1
        when, _, callback, args = queued[0]
        assert when == worker.program.when[0]
        assert callback == worker._pump and args == ()

    def test_one_plane_per_loop(self):
        worker = ShardWorker(SwarmWorkload(**SMALL), 0, 1)
        with pytest.raises(ConfigurationError, match="already drives a send plane"):
            worker.loop.arm_send_plane(1.0, worker._pump)


def worker_with_program(cls, rows, shards=1):
    """A shard of an 8-viewer swarm whose program is exactly ``rows``."""
    worker = cls(SwarmWorkload(viewers=8, datagrams=0, seed=2024), 0, shards)
    program = worker.program
    for when, src, dst in rows:
        program.when.append(when)
        program.src.append(src)
        program.dst.append(dst)
        program.u_latency.append(0.5)
        program.u_fault.append(0.5)
    worker._start_program()
    return worker


def windows(worker, barriers, inject=None):
    """Run ``worker`` window by window; its trace as ``(now, site)``."""
    sink = TraceSink()
    EventLoop.add_sink(sink)
    try:
        for barrier in barriers:
            if inject is not None:
                inject(worker, barrier)
            worker.run_window(barrier)
    finally:
        EventLoop.remove_sink(sink)
    return [(when, site.rsplit(".", 1)[-1]) for when, site in sink.events]


class TestExactTies:
    """Where a send ties another event, its seq decides — as in the chain."""

    def test_delivery_row_before_a_send_at_its_arrival(self):
        # Viewers 0 and 4 share a region; at u_latency 0.5 the delay is
        # the base latency, so send 1's delivery lands exactly on send 2.
        tie = 0.05 + 0.02
        rows = [(0.05, 0, 4), (tie, 4, 0)]
        traces = [windows(worker_with_program(cls, rows), [1.0])
                  for cls in (ShardWorker, PumpChainWorker)]
        assert traces[0] == traces[1]
        assert traces[0][1:3] == [(tie, "_deliver"), (tie, "_pump")]

    def test_send_before_a_remote_row_injected_at_its_time(self):
        # The second send's head is re-queued across a barrier; a remote
        # row injected later at the same instant draws a later seq.
        tie = 0.3

        def inject(worker, barrier):
            if barrier > 0.2 and not worker.net.remote_injected:
                cols = (array("d", [tie]), array("q", [0]), array("q", [1]))
                worker.net.inject_batches([cols])

        rows = [(0.05, 0, 4), (tie, 2, 6)]
        barriers = [0.116, 0.232, 0.348, 0.464]
        traces = [windows(worker_with_program(cls, rows, shards=2), barriers, inject)
                  for cls in (ShardWorker, PumpChainWorker)]
        assert traces[0] == traces[1]
        at_tie = [site for when, site in traces[0] if when == tie]
        assert at_tie == ["_pump", "_deliver"]


class TestSparseProgram:
    """Sends many lookahead windows apart keep the coordinators going."""

    SPARSE = dict(viewers=4, datagrams=3, seed=2024)

    @pytest.mark.parametrize("inline", [True, False])
    def test_completes_with_every_send(self, inline):
        workload = SwarmWorkload(**self.SPARSE)
        report = run_workload(workload, 2, inline=inline)
        assert report.totals["sent"] == 3
        assert report.conservation_ok
        assert report.windows > 10  # the sends really are windows apart

    def test_matches_the_chain(self, monkeypatch):
        workload = SwarmWorkload(**self.SPARSE)
        plane = run_workload(workload, 2, inline=True)
        monkeypatch.setattr(shard, "ShardWorker", PumpChainWorker)
        chain = run_workload(workload, 2, inline=True)
        assert (plane.digest, plane.events_fired, plane.windows) == (
            chain.digest, chain.events_fired, chain.windows)


class TestShardWorkerFailure:
    """A failing worker raises ShardWorkerError; siblings are reaped."""

    @pytest.fixture
    def fail_shard_one(self, monkeypatch):
        original = ShardWorker.run_window

        def install(action):
            def run_window(self, barrier, max_events=None):
                if self.shard_id == 1 and barrier > 0.3:
                    action()
                return original(self, barrier, max_events)
            # Forked workers inherit the patched class.
            monkeypatch.setattr(ShardWorker, "run_window", run_window)
        return install

    def _raise_memory_error(self):
        raise MemoryError("shard ran out of memory")

    def test_worker_exception_is_reported(self, fail_shard_one):
        fail_shard_one(self._raise_memory_error)
        with pytest.raises(ShardWorkerError) as caught:
            run_workload(SwarmWorkload(**SMALL), 2, inline=False)
        error = caught.value
        assert error.shard == 1
        assert error.barrier is not None and error.barrier > 0.3
        assert "MemoryError" in str(error) and "shard 1" in str(error)
        assert "at barrier" in str(error)
        assert "shard ran out of memory" in error.worker_traceback
        assert multiprocessing.active_children() == []

    def test_worker_death_is_reported(self, fail_shard_one):
        fail_shard_one(lambda: os._exit(3))
        with pytest.raises(ShardWorkerError) as caught:
            run_workload(SwarmWorkload(**SMALL), 4, inline=False)
        error = caught.value
        assert error.shard == 1
        assert "exit code 3" in str(error)
        assert multiprocessing.active_children() == []

    def test_build_failure_is_reported(self, monkeypatch):
        original = ShardWorker.__init__

        def init(self, workload, shard_id, num_shards):
            if shard_id == 0:
                raise ValueError("cannot build shard")
            original(self, workload, shard_id, num_shards)
        monkeypatch.setattr(ShardWorker, "__init__", init)
        with pytest.raises(ShardWorkerError, match="shard 0 failed while building: ValueError"):
            run_workload(SwarmWorkload(**SMALL), 2, inline=False)
        assert multiprocessing.active_children() == []
