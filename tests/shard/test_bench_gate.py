"""The core bench's ``--check`` gate compares sharded runs like with like."""

import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "bench_core_hotpath.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_core_hotpath", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sharded(rate, workers, cpus=None):
    entry = {"events_per_sec": rate,
             "workers": {str(k): {"events_per_sec": rate} for k in workers}}
    if cpus is not None:
        entry["cpus"] = cpus
    return entry


def report(cpus, **scenarios):
    return {"cpus": cpus, "scenarios": scenarios}


class TestLikeWithLike:
    def test_same_rung_and_cpus_is_gated(self, bench):
        base = report(2, swarm_1m=sharded(100_000, (2,), cpus=2))
        slow = report(2, swarm_1m=sharded(50_000, (2,), cpus=2))
        failures, skips = bench.compare(slow, base)
        assert skips == {}
        assert len(failures) == 1 and failures[0].startswith("swarm_1m:")
        assert bench.compare(base, base) == ([], {})

    def test_other_final_rung_is_skipped_not_passed(self, bench):
        base = report(1, swarm_1m=sharded(13_500, (1, 4)))
        run = report(2, swarm_1m=sharded(5_000, (2,)))
        failures, skips = bench.compare(run, base)
        assert failures == []
        assert "workers=4, cpus=1" in skips["swarm_1m"]

    def test_other_cpu_count_is_skipped(self, bench):
        base = report(1, swarm_1k_shard=sharded(160_000, (1, 2), cpus=1))
        run = report(4, swarm_1k_shard=sharded(1_000, (2,), cpus=4))
        failures, skips = bench.compare(run, base)
        assert failures == []
        assert "workers=2, cpus=1" in skips["swarm_1k_shard"]

    def test_scenario_cpus_override_the_report(self, bench):
        # A rung merged into an older baseline carries its own cpus.
        base = report(1, swarm_1m=sharded(100_000, (2,), cpus=2))
        run = report(2, swarm_1m=sharded(99_000, (2,)))
        assert bench.compare(run, base) == ([], {})

    def test_unsharded_scenarios_gate_as_before(self, bench):
        base = report(1, swarm_100k={"events_per_sec": 120_000})
        run = report(2, swarm_100k={"events_per_sec": 60_000})
        failures, skips = bench.compare(run, base)
        assert skips == {} and len(failures) == 1
