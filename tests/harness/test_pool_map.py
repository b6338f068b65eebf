"""``pool_map`` names the item whose worker failed.

A worker that raises, or dies without replying (``os._exit``, the OOM
killer), must surface as a :class:`PoolWorkerError` naming that item —
the experiment for ``repro all --jobs``, the corpus shard for the
streaming detection scan — and never as a bare broken-pool error or a
hang. Workers are forked, so a monkeypatched module function reaches
them.
"""

import multiprocessing
import os

import pytest

from repro.detection import streaming
from repro.harness import runner
from repro.harness.runner import Runner, RunRequest, pool_map
from repro.util.errors import PoolWorkerError
from repro.web.corpus import CorpusConfig

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="monkeypatched workers need the fork start method",
)


def _square_or_die(x):
    if x == 3:
        os._exit(3)
    if x == 5:
        raise ValueError("five is right out")
    return x * x


class TestPoolMap:
    def test_results_keep_input_order(self):
        assert pool_map(_square_or_die, [0, 1, 2, 4, 6], jobs=2) == [0, 1, 4, 16, 36]

    def test_dead_worker_names_its_item_and_exit_code(self):
        with pytest.raises(PoolWorkerError) as err:
            pool_map(_square_or_die, [0, 1, 2, 3, 4], jobs=2, name=lambda x: f"item {x}")
        assert err.value.item == "item 3"
        assert "exit code 3" in err.value.cause
        assert multiprocessing.active_children() == []

    def test_worker_exception_names_its_item_and_type(self):
        with pytest.raises(PoolWorkerError) as err:
            pool_map(_square_or_die, [5, 0], jobs=2, name=lambda x: f"item {x}")
        assert err.value.item == "item 5"
        assert err.value.cause == "ValueError: five is right out"
        assert "_square_or_die" in err.value.worker_traceback
        assert multiprocessing.active_children() == []


class TestCallers:
    def test_runner_names_the_experiment(self, monkeypatch):
        real = runner._execute_request

        def crash_one(args):
            if args[0] == "consent":
                os._exit(3)
            return real(args)

        monkeypatch.setattr(runner, "_execute_request", crash_one)
        requests = [RunRequest(name, 2024, {}) for name in ("token-defense", "consent")]
        with pytest.raises(PoolWorkerError) as err:
            Runner(jobs=2).run(requests)
        assert err.value.item == "experiment 'consent'"
        assert "exit code 3" in str(err.value)

    def test_streaming_scan_names_the_shard(self, monkeypatch):
        real = streaming.scan_shard

        def crash_shard_two(task):
            if task[2] == 2:
                os._exit(3)
            return real(task)

        monkeypatch.setattr(streaming, "scan_shard", crash_shard_two)
        small = CorpusConfig(noise_video_sites=4, noise_nonvideo_sites=2, noise_apps=2)
        pipeline = streaming.StreamingDetectionPipeline(
            seed=2024, config=small, shards=4, scan_jobs=2, watch_seconds=30.0)
        with pytest.raises(PoolWorkerError) as err:
            pipeline.run()
        assert err.value.item == "corpus shard 2"
        assert "exit code 3" in err.value.cause
