"""Tests of the benchmark itself: the answer oracle, the tracer's roll-up and
every workload at a tiny size.  Run with `python -m pytest bench`."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import tracer
import zdgdim.cli
import zdgdim.metric
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

SDIM_OK = """\
sdim of blow-up of 2^3 (|V|=12)
method   | value | witness
formula  | 8     | -
gsr      | 8     | cover size 8
brute    | 8     | set size 8
"""


def _verify_report(suite, extra=()):
    failures = [{"case": case, "expected": expected, "got": got}
                for s, case, expected, got in
                oracle.KNOWN_VERIFY_FAILURES + extra if s == suite]
    return json.dumps([{"suite": suite, "cases": 3, "failures": failures}])


def test_sdim_oracle_accepts_the_formula_value():
    assert oracle.check_sdim(0, SDIM_OK, n=3, zstar=12) is None


@pytest.mark.parametrize("stdout, rc", [
    (SDIM_OK.replace("gsr      | 8", "gsr      | 9"), 0),
    (SDIM_OK.replace("formula  | 8", "formula  | 7"), 0),
    (SDIM_OK.replace("|V|=12", "|V|=13"), 0),
    (SDIM_OK, 2),
])
def test_sdim_oracle_rejects_wrong_answers(stdout, rc):
    assert oracle.check_sdim(rc, stdout, n=3, zstar=12) is not None


def test_adapter_oracle():
    out = ("comaximal graph of 2,3,5: 21 vertices, 80 edges\n"
           "sdim via gsr: 17\nclosed form: 17 (agrees)\n"
           "matches blow-up zero-divisor graph: True\n")
    assert oracle.check_adapter(0, out, gsr=17) is None
    assert oracle.check_adapter(0, out, gsr=18) is not None
    assert oracle.check_adapter(
        0, out.replace(": True", ": False"), gsr=17) is not None


def test_verify_oracle_allows_only_the_known_failures():
    assert oracle.check_verify(0, _verify_report("gallai"), "gallai") is None
    assert oracle.check_verify(1, _verify_report("examples"),
                               "examples") is None
    unexpected = ("gallai", "random-3/G: alpha+beta=|V|", "14", "13")
    assert oracle.check_verify(1, _verify_report("gallai", (unexpected,)),
                               "gallai") is not None
    hidden = json.dumps([{"suite": "examples", "cases": 3, "failures": []}])
    assert oracle.check_verify(0, hidden, "examples") is not None
    assert oracle.check_verify(0, _verify_report("examples"),
                               "examples") is not None
    assert oracle.check_verify(0, _verify_report("gallai"),
                               "quotient") is not None


def test_rollup_partitions_self_time_and_drops_probes():
    t = tracer.Tracer()
    clock = tracer.time.perf_counter
    probes = []

    def busy(seconds):
        start = clock()
        while clock() - start < seconds:
            pass
        return start, clock()

    def inner():
        busy(0.002)
        probes.append(busy(0.001))

    wrapped_inner = t.wrap("metric.all_pairs_distances", inner)
    outer = t.wrap("cli.main", lambda: [wrapped_inner() for _ in range(3)])
    outer()
    roll = t.rollup(probes)
    assert roll["spans"] == 4
    assert roll["counts"]["metric.apsp_calls"] == 3
    assert sum(roll["times"].values()) == pytest.approx(roll["roots"])
    raw_root = t.span_end[0] - t.span_start[0]
    probe_total = sum(e - s for s, e in probes)
    assert roll["roots"] == pytest.approx(raw_root - probe_total)
    assert 0.006 <= roll["times"]["metric.apsp_s"] < roll["roots"]


def test_install_wraps_every_binding_and_restores_it():
    original = zdgdim.metric.strong_resolving_graph
    assert zdgdim.cli.strong_resolving_graph is original
    restore = tracer.install(tracer.Tracer())
    try:
        assert zdgdim.cli.strong_resolving_graph is not original
        assert (zdgdim.cli.strong_resolving_graph
                is zdgdim.metric.strong_resolving_graph)
    finally:
        restore()
    assert zdgdim.cli.strong_resolving_graph is original
    assert zdgdim.metric.strong_resolving_graph is original


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_tiny(name, trace):
    result = run.run_workload(name, seed=7, seconds=0, trace=trace,
                              tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["trace.self_total_s"] <= metrics["trace.wall_s"]


def test_workloads_follow_the_seed():
    for build in WORKLOADS.values():
        first, again = build(random.Random(3)), build(random.Random(3))
        assert [c.argv for c in first] == [c.argv for c in again]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
