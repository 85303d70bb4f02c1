"""Tests of the benchmark itself: ``python3 -m pytest bench -q``.

They check that inputs and call counts repeat exactly for one seed, that
every answer check rejects a wrong answer, that the tracer leaves the
program as it found it, and that the result line carries exactly the
metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import ENTRY_POINTS, EntryPoint, Tracer

CLI = run.load_program()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def traced_calls(workload: str, seed: int, directory: Path) -> dict[str, int]:
    directory.mkdir()
    requests = workloads.build(workload, seed, directory)
    tracer = Tracer()
    passes = run.Passes()
    with tracer.installed():
        passes.run(CLI, requests)
    assert passes.errors == []
    assert tracer.flagged(workload) == []
    return {name: rec.calls for name, rec in tracer.records.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_calls_repeat_exactly_for_one_seed(workload, tmp_path):
    first = traced_calls(workload, 7, tmp_path / "a")
    second = traced_calls(workload, 7, tmp_path / "b")
    assert first == second
    for ep in ENTRY_POINTS:
        if workload in ep.expected:
            assert first[ep.name] > 0, ep.name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload, tmp_path):
    def files(seed, name):
        directory = tmp_path / name
        directory.mkdir()
        requests = workloads.build(workload, seed, directory)
        argvs = [tuple(a.replace(str(directory), "") for a in r.argv) for r in requests]
        return argvs, sorted(p.read_text() for p in directory.iterdir())

    first = files(3, "a")
    assert first == files(3, "b")
    assert first[1] != files(4, "c")[1]


def first_report(workload: str, directory: Path, label_part: str):
    requests = workloads.build(workload, 1, directory)
    req = next(r for r in requests if label_part in r.label)
    code, out, err, _ = run.call(CLI, req.argv)
    assert code == 0, err
    report = json.loads(out)
    assert req.check(report) is None
    return req, report


@pytest.mark.parametrize(
    "workload, label_part, corrupt",
    [
        ("altbound", "KG(8,2) k=1", lambda r: r.update(alt=r["alt"] + 1, bound=r["bound"] - 1)),
        ("altbound", "R(6,16)", lambda r: r.update(witness="R" * len(r["witness"]))),
        ("chromatic", "KG(10,2)", lambda r: r.update(chi=r["chi"] - 1)),
        ("chromatic", "R(9,34)", lambda r: r["coloring"].__setitem__(-1, r["coloring"][0])),
        ("chromatic", "R(9,34)", lambda r: r.update(coloring=[1] * len(r["coloring"]))),
        ("verify", "#0", lambda r: r.update(holds=False)),
        ("audit", "regime", lambda r: r.update(witness_edge_b=r["witness_edge_a"])),
        ("audit", "regime", lambda r: r.update(outcome="proper-within-bound")),
    ],
)
def test_checks_reject_wrong_answers(workload, label_part, corrupt, tmp_path):
    req, report = first_report(workload, tmp_path, label_part)
    corrupt(report)
    assert req.check(report) is not None


def test_tracer_restores_every_binding():
    audit_mod = importlib.import_module("altermatic.audit")
    before = (CLI.main, CLI.alt_min, audit_mod.neighbors, audit_mod.AuditContext.level)
    with Tracer().installed():
        assert CLI.main is not before[0]
        assert CLI.alt_min is not before[1]
        assert audit_mod.neighbors is not before[2]
    assert (CLI.main, CLI.alt_min, audit_mod.neighbors, audit_mod.AuditContext.level) == before


def test_tracer_flags_a_renamed_entry_point():
    ghost = EntryPoint("bounds", "no_such_function", ("audit",))
    tracer = Tracer(ENTRY_POINTS + (ghost,))
    with tracer.installed():
        pass
    assert "bounds.no_such_function (not found)" in tracer.flagged("audit")
    assert "audit.neighbors (no calls)" in tracer.flagged("audit")


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170, check=False
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_exactly_the_declared_metrics(trace, key):
    done = bench("--workload", "audit", "--seed", "2", "--seconds", "0.2", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = bench("--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
