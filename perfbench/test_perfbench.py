"""Tests for the benchmark's own code: span arithmetic, patching, checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import _MISSING, Tracer, load_spans, read_summaries, self_times  # noqa: E402


def test_self_time_over_nested_span_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9];  c [11, 12]
    names = array("i", [0, 1, 2, 3, 4])
    starts = array("d", [0.0, 1.0, 2.0, 5.0, 11.0])
    ends = array("d", [10.0, 4.0, 3.0, 9.0, 12.0])
    parents = array("i", [-1, 0, 1, 0, -1])
    folded = self_times(names, starts, ends, parents)
    per_name = folded["per_name"]
    assert per_name[0] == [1, 10.0, 3.0]
    assert per_name[1] == [1, 3.0, 2.0]
    assert per_name[2] == [1, 1.0, 1.0]
    assert per_name[3] == [1, 4.0, 4.0]
    assert folded["roots_s"] == 11.0
    assert sum(cell[2] for cell in per_name.values()) == folded["roots_s"]


class _Toy:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i

    @property
    def prop(self):
        return self.inner(7)


def _toy_work():
    return _Toy().outer(3)


def test_wrapped_calls_nest_and_fold(tmp_path):
    tracer = Tracer("toy", tmp_path).install()
    tracer.wrap_method(_Toy, "outer", "toy.outer")
    tracer.wrap_method(_Toy, "inner", "toy.inner")
    tracer.wrap_method(_Toy, "prop", "toy.prop")
    try:
        with tracer.span("root"):
            assert _Toy().outer(3) == 3
            assert _Toy().prop == 7
    finally:
        tracer.uninstall()
    spans = tracer.collect()["spans"]
    assert spans["toy.outer"]["count"] == 1
    assert spans["toy.inner"]["count"] == 4
    assert spans["toy.prop"]["count"] == 1
    total_self = sum(cell["self_s"] for cell in spans.values())
    assert total_self == pytest.approx(spans["root"]["incl_s"], rel=1e-9, abs=1e-12)
    tracer.flush()
    rows = load_spans(next(tmp_path.glob("*.spans")))
    assert [r[0] for r in rows].count("toy.inner") == 4
    assert all(r[4] == "toy" for r in rows)


def test_install_layers_restores_every_wrapped_function(tmp_path):
    from repro.harness import registry
    from repro.net.network import Network
    from repro.webrtc import peer_connection, stun

    registry.load_all()
    original_decode = stun.decode_stun
    tracer = Tracer("restore", tmp_path).install()
    layers.install_layers(tracer)
    # a name imported elsewhere with `from ... import` is wrapped there too
    assert peer_connection.decode_stun is stun.decode_stun is not original_decode
    patches = list(tracer._patches)
    assert len(patches) > 40
    for owner, attr, original in patches:
        assert owner.__dict__.get(attr, _MISSING) is not original
    tracer.uninstall()
    for owner, attr, original in patches:
        assert owner.__dict__.get(attr, _MISSING) is original, f"{owner}.{attr}"
    assert "__del__" not in Network.__dict__
    assert peer_connection.decode_stun is stun.decode_stun is original_decode
    assert not hasattr(stun.encode_stun, "__wrapped__")


def test_tracing_leaves_results_unchanged(tmp_path):
    from repro.harness.runner import execute_spec

    plain = execute_spec("chaos", 2024).record.result_digest
    tracer = Tracer("chaos", tmp_path).install()
    layers.install_layers(tracer)
    try:
        traced = execute_spec("chaos", 2024).record.result_digest
    finally:
        tracer.uninstall()
    assert traced == plain
    summary = tracer.collect()
    assert summary["spans"]["net.network.send"]["count"] > 0
    assert summary["census"]["net.delivered"] > 0


def test_spans_from_forked_children_reach_the_report(tmp_path):
    tracer = Tracer("forky", tmp_path).install()
    tracer.wrap_method(_Toy, "outer", "toy.outer")
    try:
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_toy_work) for _ in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
    finally:
        tracer.uninstall()
    tracer.flush()
    summaries = read_summaries(tmp_path)
    children = [s for s in summaries if not s["owner"]]
    assert len(summaries) == 3 and len(children) == 2
    assert all(s["spans"]["toy.outer"]["count"] == 1 for s in children)
    assert "toy.outer" not in next(s for s in summaries if s["owner"])["spans"]


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    from repro.detection import stages
    from repro.harness import registry

    assert tuple(registry.names()) == layers.EXPERIMENTS
    assert all(getattr(stages, cls).name == name for cls, name in layers.STAGES)


def _run_paper(monkeypatch, capsys, experiments, references=None):
    """``run.main`` on a paper workload cut down to ``experiments``."""
    from repro.harness import registry

    monkeypatch.setattr(registry, "names", lambda: list(experiments))
    if references is not None:
        monkeypatch.setattr(run, "REFERENCES", references)
    code = run.main(["--workload", "paper", "--seconds", "0"])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def test_tampered_reference_is_a_counted_failure(tmp_path, monkeypatch, capsys):
    references = json.loads(run.REFERENCES.read_text())
    references["paper"]["2024"]["token-defense"] = "0" * 64
    tampered = tmp_path / "references.json"
    tampered.write_text(json.dumps(references))
    code, result, out = _run_paper(monkeypatch, capsys, ["token-defense", "ecdn"], tampered)
    assert code != 0
    assert result["correct"] is False
    assert result["attempted"] == 2 and result["failed"] == 1
    mismatches = [line for line in out.splitlines() if line.startswith("MISMATCH")]
    assert len(mismatches) == 1
    assert mismatches[0].startswith("MISMATCH paper: token-defense: digest")


def test_untampered_references_pass(monkeypatch, capsys):
    code, result, out = _run_paper(monkeypatch, capsys, ["token-defense", "ecdn"])
    assert code == 0, out
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_swarm_digest_depends_on_which_host_received_what():
    import worker

    def swarm(seed):
        return worker.run_swarm({"seed": seed, "viewers": 40, "datagrams": 400,
                                 "spawned": time.perf_counter()})

    first, again, other = swarm(2024), swarm(2024), swarm(7)
    assert first["totals"] == other["totals"] == dict(
        sent=400, delivered=400, dropped=0, in_flight=0)
    assert first["digest"] == again["digest"] != other["digest"]


def _summary(run_id, owner=True, root=(10.0, 1.0), unclosed=0):
    spans = {} if root is None else {
        layers.ROOT_SPAN: {"count": 1, "incl_s": root[0], "self_s": root[1]}}
    return {"run_id": run_id, "pid": 1, "owner": owner, "spans": spans,
            "roots_s": root[0] if root else 0.0, "unclosed": unclosed}


def test_trace_check_fails_on_open_spans_missing_roots_and_low_coverage():
    units = {"a": {"wall_s": 10.0}, "b": {"wall_s": 10.0}}

    def failures(summaries):
        check = run.Checker(None, "paper")
        run.check_trace(check, summaries, units)
        return check.mismatches

    assert failures([_summary("a"), _summary("b"), _summary("a", owner=False)]) == []
    assert "never closed" in failures([_summary("a"), _summary("b"),
                                       _summary("a", owner=False, unclosed=2)])[0]
    assert "b: no root span" in failures([_summary("a"), _summary("b", root=None)])[0]
    assert "b: no root span" in failures([_summary("a"), _summary("b", root=(2.0, 0.1))])[0]
    assert "cover 30.0%" in failures([_summary("a", root=(10.0, 7.0)),
                                      _summary("b", root=(10.0, 7.0))])[0]


def test_an_unclosed_span_is_counted(tmp_path):
    tracer = Tracer("open", tmp_path).install()
    with tracer.span("closed"):
        pass
    tracer._open(tracer.name_id("left-open"))
    assert tracer.collect()["unclosed"] == 1


def test_swarm_check_counts_every_datagram_of_a_bad_run():
    check = run.Checker("a" * 64, "swarm")
    good = {"digest": "a" * 64, "totals": {"sent": 10, "delivered": 10, "dropped": 0,
                                           "in_flight": 0}}
    check.swarm(10, good)
    assert check.failed == 0
    check.swarm(10, dict(good, digest="b" * 64))
    check.swarm(10, dict(good, totals={"sent": 10, "delivered": 8, "dropped": 1,
                                       "in_flight": 0}))
    assert (check.attempted, check.failed) == (30, 20)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    # the benchmark's files alone, without the program beside them
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "swarm", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
