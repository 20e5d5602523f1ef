"""Smoke tests for the benchmark: a tiny version of every workload.

Run from the repository root with ``python -m pytest perfbench``.  Each
test runs ``run.py`` as a benchmark harness would (one process per
workload) at ``--scale smoke`` and checks its output: every metric that
applies is printed with its unit, every correctness check of the
workload ran, and the last line is the JSON result.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


@functools.cache
def _smoke(workload: str, trace: int):
    proc = _run(
        "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", str(trace), "--scale", "smoke",
    )
    assert proc.returncode == 0, proc.stderr
    lines = tuple(proc.stdout.strip().splitlines())
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["attempted"] >= 1
    assert 0 <= doc["failed"] <= doc["attempted"]
    return lines, doc


def _checks_ran(lines) -> set[str]:
    (line,) = [line for line in lines if line.startswith("checks ")]
    return {item.rpartition("x")[0] for item in line.split()[1:]}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.GATED)
    for m in BENCHMARK["end_to_end"]:
        unit, better, applies = run.END_TO_END[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better)
        assert set(applies) == set(workloads.WORKLOADS)
    setup_bound = [m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup_bound == [max(m["bound"] for m in BENCHMARK["end_to_end"])]
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == list(probes.LAYER_METRICS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_run(workload):
    lines, doc = _smoke(workload, trace=0)
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    for metric, (unit, _, applies) in run.END_TO_END.items():
        printed = [line for line in lines if line.startswith(f"e2e {metric} ")]
        assert len(printed) == (workload in applies), metric
        if printed:
            assert f" {unit} (" in printed[0]
    full, _ = workloads.WORKLOADS[workload]
    assert _checks_ran(lines) == set(full.checks)
    assert any(line.startswith('# env {"cpu_count"') for line in lines)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run(workload):
    lines, doc = _smoke(workload, trace=1)
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    for name, unit, _ in probes.LAYER_METRICS:
        assert any(line.startswith(f"layer {name} ") and f" {unit} " in line for line in lines)
    assert any(line.startswith("trace overhead ") for line in lines)
    full, _ = workloads.WORKLOADS[workload]
    assert _checks_ran(lines) == set(full.checks)
    collapsed = run.OUT_DIR / f"{workload}-seed3.collapsed"
    stacks = collapsed.read_text().splitlines()
    assert stacks and all(line.startswith("bench.round") for line in stacks)
    assert all(int(line.rpartition(" ")[2]) > 0 for line in stacks)


def test_layers_move_where_predicted():
    """Each layer's work shows up on the workload that exercises it."""
    _, design = _smoke("design-k6", trace=1)
    _, colgen = _smoke("colgen-hard", trace=1)
    _, faults = _smoke("faults-k4", trace=1)

    def value(doc, name):
        return doc["metrics"][name]["value"]

    assert value(design, "lp.solves") > 0 and value(design, "cache.hits") > 0
    assert value(design, "sim.launches") == 0
    assert value(colgen, "colgen.iterations") > 0
    assert value(colgen, "colgen.oracle_calls") > 0
    assert value(design, "colgen.iterations") == 0
    assert value(colgen, "sim.launches") == 0
    assert value(faults, "sim.launches") > 0 and value(faults, "sim.kernel_s") > 0
    assert value(faults, "faults.cases") > 0 and value(faults, "faults.degrade_s") > 0


def test_refuses_without_program_source(tmp_path):
    """In a directory holding only the benchmark, it fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(
        "--workload", "faults-k4", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refuses_to_record_without_git_revision(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(ROOT / "src" / "repro", tmp_path / "src" / "repro")
    proc = _run(
        "--workload", "faults-k4", "--seed", "1", "--seconds", "1", "--trace", "0",
        "--scale", "smoke", "--record", str(tmp_path / "record.json"),
        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode == 2
    assert "git revision is unknown" in proc.stderr
    assert not (tmp_path / "record.json").exists()


def test_ledger_counts_failures():
    ledger = workloads.Ledger()

    def boom():
        raise RuntimeError("no")

    assert ledger.op("design", boom) is None
    assert ledger.op("design", lambda: 7) == 7
    ledger.check("frontier-monotone", False, "x")
    ledger.check("frontier-monotone", True)
    assert (ledger.attempted, ledger.failed, ledger.correct) == (4, 2, False)
    assert len(ledger.samples["design"]) == 1
