"""Shared fixtures for the figure-reproduction benchmarks.

Benchmarks run at paper scale (the 8-ary 2-cube) but with sweep
resolutions tuned so the whole suite finishes in minutes; set
``REPRO_FULL=1`` for the paper-resolution sweeps recorded in
EXPERIMENTS.md, or ``REPRO_FAST=1`` to shrink everything further.
"""

import os
import pathlib

import pytest

from repro.experiments.common import make_context
from repro.obs import bench

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def _write_bench(doc: dict) -> pathlib.Path:
    """Write a canonical BENCH document to ``results/BENCH_<name>.json``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return bench.write_doc(doc, RESULTS_DIR)


def _sweep_doc(record: dict, name: str) -> dict:
    """BENCH document of a recorder that times one whole sweep.

    ``total_seconds`` becomes the ``total`` timing series and everything
    else but the workload (sweep rows, fault sequences, breakpoints)
    goes under ``meta``; a ``(_, _, lo, hi)`` saturation bracket also
    yields a ``saturation_mid`` ratio.
    """
    meta = {
        k: v for k, v in record.items() if k not in ("workload", "total_seconds")
    }
    derived = {}
    saturation = meta.get("saturation")
    if isinstance(saturation, list) and len(saturation) == 4:
        derived["saturation_mid"] = 0.5 * (
            float(saturation[2]) + float(saturation[3])
        )
    return bench.new_doc(
        name,
        record["workload"],
        timings={"total": [record["total_seconds"]]},
        derived=derived,
        meta=meta,
    )


def full_mode() -> bool:
    return os.environ.get("REPRO_FULL", "").strip() not in ("", "0", "false")


@pytest.fixture(scope="session")
def verification_overhead(request):
    """Recorder for ``--certify`` cost: benchmarks append
    ``(label, baseline_s, certified_s, reference_s)`` rows and the
    session summary prints them, so certification overhead is visible
    in every benchmark run, not only when its assertion trips."""
    records = []
    request.config._verification_overhead = records
    return records


@pytest.fixture(scope="session")
def sim_backend_record(request):
    """Recorder for the reference-vs-vectorized simulator comparison:
    the backend benchmark fills in one JSON document and the session
    summary prints the headline speedup and writes the artifact next to
    the experiment CSVs (``results/BENCH_sim_backend.json``)."""
    record = {}
    request.config._sim_backend_record = record
    return record


@pytest.fixture(scope="session")
def sim_replicas_record(request):
    """Recorder for the replica-batched kernel comparison: the replica
    benchmark fills in one JSON document ((rate × seed) grid size,
    individual-vs-batched timings) and the session summary prints the
    headline speedup and writes ``results/BENCH_sim_replicas.json``."""
    record = {}
    request.config._sim_replicas_record = record
    return record


@pytest.fixture(scope="session")
def topo3d_bench_record(request):
    """Recorder for the 3-D heterogeneity sweep: the topo3d benchmark
    fills in one JSON document (sweep rows, 50%-bound breakpoints,
    timing) and the session summary writes it to
    ``results/BENCH_topo3d.json``."""
    record = {}
    request.config._topo3d_bench_record = record
    return record


@pytest.fixture(scope="session")
def faults_bench_record(request):
    """Recorder for the robustness sweep: the faults benchmark fills in
    one JSON document (sweep rows, timing, fault sequence) and the
    session summary writes it to ``results/BENCH_faults.json``."""
    record = {}
    request.config._faults_bench_record = record
    return record


@pytest.fixture(scope="session")
def rotor_bench_record(request):
    """Recorder for the rotor sweep: the rotor benchmark fills in one
    JSON document (per-phase-count Theta_wc and saturation brackets for
    both schemes, timing) and the session summary writes it to
    ``results/BENCH_rotor.json``."""
    record = {}
    request.config._rotor_bench_record = record
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    records = getattr(config, "_verification_overhead", None)
    if records:
        terminalreporter.section("verification overhead (--certify)")
        for label, baseline, certified, reference in records:
            extra = certified - baseline
            terminalreporter.write_line(
                f"{label}: {baseline:.2f}s -> {certified:.2f}s certified "
                f"(+{extra:.2f}s, {extra / reference * 100:.1f}% of the "
                f"{reference:.2f}s cold solve)"
            )
    record = getattr(config, "_sim_backend_record", None)
    if record:
        path = _write_bench(
            bench.new_doc(
                "sim_backend",
                record["workload"],
                timings={
                    "reference": [record["reference_seconds"]],
                    "vectorized": [record["vectorized_seconds"]],
                },
                derived={"speedup": float(record["speedup"])},
                meta={"results_identical": bool(record.get("results_identical"))},
            )
        )
        w = record["workload"]
        terminalreporter.section("simulator backend speedup")
        terminalreporter.write_line(
            f"{w['algorithm']} k={w['k']} {len(w['rates'])}-rate sweep: "
            f"reference {record['reference_seconds']:.2f}s -> vectorized "
            f"{record['vectorized_seconds']:.2f}s "
            f"({record['speedup']:.1f}x) -> {path}"
        )
    record = getattr(config, "_sim_replicas_record", None)
    if record:
        doc = bench.new_doc(
            "sim_replicas",
            record["workload"],
            timings={
                "individual": [record["individual_seconds"]],
                "batched": [record["batched_seconds"]],
            },
            derived={"speedup": float(record["speedup"])},
            meta={"results_identical": bool(record["results_identical"])},
        )
        path = _write_bench(doc)
        w = record["workload"]
        terminalreporter.section("replica-batched kernel speedup")
        terminalreporter.write_line(
            f"{w['algorithm']} k={w['k']} {w['rates']}x{w['seeds']} "
            f"(rate x seed) grid: individual "
            f"{record['individual_seconds']:.2f}s -> batched "
            f"{record['batched_seconds']:.2f}s "
            f"({record['speedup']:.1f}x) -> {path}"
        )
    record = getattr(config, "_faults_bench_record", None)
    if record:
        path = _write_bench(_sweep_doc(record, "faults"))
        w = record["workload"]
        terminalreporter.section("fault-robustness sweep")
        terminalreporter.write_line(
            f"k={w['k']} {w['reroute']} reroute, "
            f"0..{w['failures']} failed channels "
            f"({len(record['rows'])} cases) in "
            f"{record['total_seconds']:.2f}s -> {path}"
        )
    record = getattr(config, "_rotor_bench_record", None)
    if record:
        path = _write_bench(_sweep_doc(record, "rotor"))
        w = record["workload"]
        terminalreporter.section("rotor phase sweep")
        terminalreporter.write_line(
            f"n={w['k'] ** 2} complete graph, 1..{w['phases']} phases, "
            f"period {w['period']} ({len(record['rows'])} cases) in "
            f"{record['total_seconds']:.2f}s -> {path}"
        )
    record = getattr(config, "_topo3d_bench_record", None)
    if record:
        path = _write_bench(_sweep_doc(record, "topo3d"))
        w = record["workload"]
        terminalreporter.section("3-D heterogeneity sweep")
        terminalreporter.write_line(
            f"{w['k']}-ary {w['dims']}-cube, bz sweep "
            f"{w['z_factors']} ({len(record['rows'])} cases) in "
            f"{record['total_seconds']:.2f}s -> {path}"
        )


@pytest.fixture(scope="session")
def ctx8():
    """Paper-scale context: 8-ary 2-cube, |X|=100 evaluation sample."""
    if full_mode():
        return make_context(k=8, eval_samples=100, design_samples=25)
    return make_context(k=8, eval_samples=50, design_samples=12)


@pytest.fixture(scope="session")
def ctx4():
    """Small context for the packet-exact simulator benchmark."""
    return make_context(k=4, eval_samples=20, design_samples=8)
