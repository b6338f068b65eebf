"""The repository's benchmark: the paper's experiments and the datagram swarm.

    python3 perfbench/run.py --workload paper|swarm|swarm-shard \\
        [--seed N] [--seconds S] [--trace 0|1]

Every measured unit (one experiment, one swarm run) runs in a fresh
interpreter (``worker.py``), so memory is that unit's own high-water
mark. ``--trace 0`` repeats rounds until ``--seconds`` of timed work
accrued (and at least :data:`MIN_ROUNDS`) and prints the end-to-end
metrics, medians over rounds. ``--trace 1`` runs one untraced and one
traced round and prints the per-layer metrics; the spans land in
``.perfbench/trace/<workload>/``. Outputs are checked against
``references.json``; every mismatch is printed by name and counted.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
README.md in this directory defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from layers import EXPERIMENTS, PER_LAYER, ROOT_SPAN, layer_metrics, merge_summaries
from tracer import read_summaries

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"

WORKLOADS = ("paper", "swarm", "swarm-shard")
DEFAULT_SEED = 2024
#: Seeds whose outputs references.json pins: the default and a held-out
#: one. Any other --seed runs one of them (seed mod 2), so every run's
#: output is checked against a reference.
INPUT_SEEDS = (2024, 7)
VIEWERS = 100_000
DATAGRAMS = 1_000_000
#: Fewest rounds per untraced run: a median of three for each swarm,
#: whose rounds vary most. A paper round already sums fifteen processes
#: over ~15 s, and its repeats agree to ~5%.
MIN_ROUNDS = {"paper": 1, "swarm": 3, "swarm-shard": 3}
UNIT_TIMEOUT_S = 90
#: Least share of the measuring processes' timed work that layer spans
#: must cover in a traced round (each workload covers ~0.9).
MIN_COVERAGE = 0.5

#: end-to-end metric -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "dgram_per_s": "dgram/s",
}
UNITS = {**END_TO_END, **dict(PER_LAYER)}


def input_seed(seed: int) -> int:
    """The pinned experiment/swarm seed that workload seed ``seed`` runs."""
    return seed if seed in INPUT_SEEDS else INPUT_SEEDS[seed % len(INPUT_SEEDS)]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def spawn(job: dict[str, Any]) -> dict[str, Any]:
    """Run one unit in a fresh interpreter; its result, or ``{"failed": why}``.

    The unit sees no REPRO_* knob and a fixed hash seed.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    job = dict(job, spawned=time.perf_counter())
    # Its own session, so a timeout kills the unit's shard workers too.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"failed": f"timed out after {UNIT_TIMEOUT_S} s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (stderr.strip().splitlines() or ["no output"])[-1]
        return {"failed": f"exit {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


# -- rounds ----------------------------------------------------------------------


def paper_round(seed: int, names: list[str], trace_dir: Path | None) -> dict:
    """Every experiment once, one fresh interpreter each, one after another."""
    units = {}
    for name in names:
        units[name] = spawn({"kind": "experiment", "name": name, "seed": seed,
                             "trace_dir": str(trace_dir) if trace_dir else None})
    return _fold(units)


def swarm_round(workload: str, seed: int, trace_dir: Path | None, **job: Any) -> dict:
    """One swarm run: unsharded, or sharded over ``nproc`` worker processes."""
    job = {"kind": workload, "seed": seed, "viewers": VIEWERS, "datagrams": DATAGRAMS,
           "workers": nproc(), "trace_dir": str(trace_dir) if trace_dir else None, **job}
    return _fold({workload: spawn(job)})


def _fold(units: dict[str, dict]) -> dict:
    """Sum a round's units, keyed by run id (experiment or workload name)."""
    ok = [u for u in units.values() if "failed" not in u]
    return {
        "units": units,
        "setups": [u["setup_s"] for u in ok],
        "wall_s": sum(u["wall_s"] for u in ok),
        "cpu_s": sum(u["cpu_s"] for u in ok),
        "peak_rss_mib": max((u["rss_mib"] for u in ok), default=0.0),
        "dgrams": sum(u["dgrams"] for u in ok),
    }


def run_round(workload: str, seed: int, names: list[str], trace_dir: Path | None = None) -> dict:
    if workload == "paper":
        return paper_round(seed, names, trace_dir)
    return swarm_round(workload, seed, trace_dir)


# -- checks ----------------------------------------------------------------------


class Checker:
    """Compares outputs with their references, counting what it attempted.

    A ``paper`` operation is one experiment; a swarm operation is one
    datagram, and a run whose digest or conservation check fails fails
    all of its datagrams.
    """

    def __init__(self, expected: Any, workload: str) -> None:
        self.expected = expected
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.mismatches.append(what)
        print(f"MISMATCH {self.workload}: {what}", flush=True)

    def round(self, done: dict) -> None:
        for name, unit in done["units"].items():
            if self.workload == "paper":
                self.experiment(name, unit)
            else:
                self.swarm(DATAGRAMS, unit)

    def experiment(self, name: str, unit: dict) -> None:
        self.attempted += 1
        expected = (self.expected or {}).get(name)
        if "failed" in unit:
            self.fail(f"{name}: {unit['failed']}")
        elif unit["status"] != "ok":
            self.fail(f"{name}: status {unit['status']}: {' '.join(unit['error'])}")
        elif expected is None:
            self.fail(f"{name}: no reference digest")
        elif unit["digest"] != expected:
            self.fail(f"{name}: digest {unit['digest'][:16]} != reference {expected[:16]}")

    def swarm(self, datagrams: int, unit: dict) -> None:
        self.attempted += datagrams
        if "failed" in unit:
            self.fail(f"run: {unit['failed']}", datagrams)
            return
        totals = unit["totals"]
        conserved = totals["sent"] == totals["delivered"] + totals["dropped"] + totals["in_flight"]
        if not conserved or unit.get("conservation_ok") is False:
            self.fail(f"conservation broken: {totals}", datagrams)
        elif unit["digest"] != self.expected:
            self.fail(f"digest {unit['digest'][:16]} != reference {str(self.expected)[:16]}",
                      datagrams)
        elif totals["delivered"] != datagrams:
            self.fail(f"{datagrams - totals['delivered']} datagrams not delivered",
                      datagrams - totals["delivered"])


# -- metrics ---------------------------------------------------------------------


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    """Medians over rounds; set-up is the median over every unit."""
    rounds = [r for r in rounds if r["wall_s"] > 0]
    if not rounds:
        return {}
    return {
        "setup_s": statistics.median(s for r in rounds for s in r["setups"]),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
        "dgram_per_s": statistics.median(r["dgrams"] / r["wall_s"] for r in rounds),
    }


def check_trace(check: Checker, summaries: list[dict], units: dict[str, dict]) -> float:
    """Fail a traced round whose spans do not account for its timed work.

    Every span must have ended after it started. Each measuring process
    must hold one root span around its unit's timed work, and the layer
    spans must cover at least :data:`MIN_COVERAGE` of those root spans.
    Returns the share they cover.
    """
    for summary in summaries:
        if summary["unclosed"]:
            check.fail(f"trace {summary['run_id']}.{summary['pid']}: "
                       f"{summary['unclosed']} spans never closed")
    owners = {s["run_id"]: s for s in summaries if s["owner"]}
    roots = unattributed = 0.0
    for run_id, unit in units.items():
        if "failed" in unit:
            continue
        root = owners.get(run_id, {"spans": {}})["spans"].get(ROOT_SPAN)
        if root is None or root["count"] != 1 or root["incl_s"] < 0.9 * unit["wall_s"]:
            check.fail(f"trace {run_id}: no root span around the timed work")
            continue
        roots += root["incl_s"]
        unattributed += root["self_s"]
    covered = 1 - unattributed / roots if roots else 0.0
    if covered < MIN_COVERAGE:
        check.fail(f"layer spans cover {covered:.1%} of the timed work, "
                   f"under {MIN_COVERAGE:.0%}")
    return covered


def traced_metrics(workload: str, seed: int, names: list[str], check: Checker) -> dict:
    """One untraced and one traced round, folded into per-layer metrics."""
    plain = run_round(workload, seed, names)
    check.round(plain)
    trace_dir = OUT / "trace" / workload
    shutil.rmtree(trace_dir, ignore_errors=True)
    traced = run_round(workload, seed, names, trace_dir)
    check.round(traced)
    if not plain["wall_s"] or not traced["wall_s"]:
        return {}
    summaries = read_summaries(trace_dir)
    extra = {"bench.trace_overhead_ratio": traced["wall_s"] / plain["wall_s"]}
    for name, unit in traced["units"].items():
        if name in EXPERIMENTS and "failed" not in unit:
            extra[f"harness.exp.{name}.wall_s"] = unit["wall_s"]
            extra[f"harness.exp.{name}.rss_mib"] = unit["rss_mib"]
    run = traced["units"].get(workload, {})
    if "cross_dgrams" in run:
        extra["net.shard.cross_dgrams"] = run["cross_dgrams"]
        extra["net.shard.events_per_dgram"] = run["events_fired"] / run["totals"]["sent"]
    covered = check_trace(check, summaries, traced["units"])
    print(f"traced wall {traced['wall_s']:.3f} s; layer spans cover {covered:.1%} of the "
          f"measuring processes' timed work; "
          f"{sum(not s['owner'] for s in summaries)} forked worker processes traced too")
    return layer_metrics(merge_summaries(summaries), extra)


def record(workload: str, names: list[str]) -> int:
    """Write the references of ``workload`` at every pinned seed."""
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    entry = references.setdefault(workload, {})
    for seed in INPUT_SEEDS:
        if workload == "paper":
            units = paper_round(seed, names, None)["units"]
            bad = [n for n, u in units.items() if "failed" in u or u["status"] != "ok"]
            if bad:
                print(f"cannot record: {', '.join(bad)} failed at seed {seed}", file=sys.stderr)
                return 1
            entry[str(seed)] = {name: unit["digest"] for name, unit in units.items()}
            continue
        runs = [swarm_round(workload, seed, None)["units"][workload]]
        if workload == "swarm-shard":  # K-invariance: a K=1 inline run must agree
            runs.append(swarm_round(workload, seed, None, workers=1,
                                    inline=True)["units"][workload])
        digests = {unit.get("digest") for unit in runs}
        if len(digests) != 1 or None in digests:
            print(f"cannot record: runs disagree at seed {seed}: {runs}", file=sys.stderr)
            return 1
        entry[str(seed)] = digests.pop()
    REFERENCES.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    print(f"recorded {workload} references for seeds {INPUT_SEEDS}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed work to accrue before the last round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this workload's references.json entries instead")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    names: list[str] = []
    if args.workload == "paper":
        sys.path.insert(0, str(SRC))
        from repro.harness import registry

        names = registry.names()
    if args.record:
        return record(args.workload, names)

    seed = input_seed(args.seed)
    references = json.loads(REFERENCES.read_text())
    check = Checker(references.get(args.workload, {}).get(str(seed)), args.workload)
    env = {"seed": args.seed, "input_seed": seed, "trace": args.trace, "nproc": nproc(),
           "workers": nproc() if args.workload == "swarm-shard" else 1,
           "python": platform.python_version(), "commit": git_commit()}
    print(f"perfbench workload={args.workload} "
          + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)

    if args.trace:
        metrics = traced_metrics(args.workload, seed, names, check)
    else:
        rounds: list[dict] = []
        timed = 0.0
        while len(rounds) < MIN_ROUNDS[args.workload] or timed < args.seconds:
            rounds.append(run_round(args.workload, seed, names))
            check.round(rounds[-1])
            if not rounds[-1]["wall_s"]:
                break
            timed += rounds[-1]["wall_s"]
        metrics = end_to_end(rounds)
        env["round_walls_s"] = [r["wall_s"] for r in rounds]
        print(f"rounds={len(rounds)} walls_s={' '.join(f'{w:.3f}' for w in env['round_walls_s'])}")
    error_rate = check.failed / check.attempted if check.attempted else 1.0
    print(f"error_rate: {error_rate} ratio ({check.failed} of {check.attempted} operations failed)")
    for name, value in metrics.items():
        print(f"{name}: {value} {UNITS[name]}")

    result = {
        "correct": check.failed == 0 and bool(metrics),
        "attempted": max(1, check.attempted),
        "failed": check.failed if metrics else max(1, check.failed),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(
        {**result, **env, "error_rate": error_rate, "mismatches": check.mismatches},
        indent=2))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
