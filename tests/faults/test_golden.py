"""Golden rows of the fault sweep, and its pooled-launch trace contract.

``results/golden/faults_k4_f2_c500.json`` holds ``faults.run`` rows for
three seeds.  Pooling all cases' brackets into shared multi-table
launches must not move a single bit of them: a replica's uniforms depend
on its own seed only, whatever else shares its launch.
"""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.cache import DesignCache
from repro.experiments import faults
from repro.experiments.engine import Engine

GOLDEN = (
    Path(__file__).resolve().parents[2]
    / "results"
    / "golden"
    / "faults_k4_f2_c500.json"
)


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """``seed -> (FaultsData, trace events)`` for every golden seed."""
    doc = json.loads(GOLDEN.read_text())
    mp = pytest.MonkeyPatch()
    mp.delenv("REPRO_FAST", raising=False)
    tracer = obs.get_tracer()
    runs = {}
    try:
        for seed in doc["seeds"]:
            engine = Engine(
                jobs=1, cache=DesignCache(tmp_path_factory.mktemp("designs"))
            )
            mark = tracer.mark()
            data = faults.run(
                k=4,
                seed=int(seed),
                engine=engine,
                failures=2,
                reroute="detour",
                cycles=500,
            )
            runs[seed] = (data, tracer.events_since(mark))
    finally:
        mp.undo()
    return doc, runs


def _spans(events, name):
    return [e for e in events if e["ev"] == "span" and e["name"] == name]


def test_rows_match_golden(golden_runs):
    doc, runs = golden_runs
    for seed, want in doc["seeds"].items():
        data, _ = runs[seed]
        assert list(data.fault_sequence) == want["fault_sequence"]
        rows = data.rows()
        assert len(rows) == len(want["rows"])
        for got, exp in zip(rows, want["rows"]):
            f, alg, theta, lo, hi = exp
            assert got[:2] == (f, alg)
            assert got[2] == pytest.approx(theta, rel=1e-9)
            assert got[3:] == (lo, hi), (seed, got, exp)


def test_all_cases_share_each_launch(golden_runs):
    _, runs = golden_runs
    for data, events in runs.values():
        connected = sum(1 for _, _, theta, _, _ in data.rows() if theta > 0)
        # One compiled table per connected case, built once.
        assert len(_spans(events, "sim.compile")) == connected
        # One prober call refines every bracket; each of its rounds is
        # a single launch carrying every case still refining.
        (sat,) = _spans(events, "sim.saturation")
        assert sat["attrs"]["cases"] == sat["attrs"]["tables"] == connected
        batches = _spans(events, "sim.batch")
        assert len(batches) == sat["attrs"]["launches"]
        assert batches[0]["attrs"]["tables"] == connected
        assert batches[0]["attrs"]["replicas"] == 2 * connected  # endpoints
        assert len(_spans(events, "faults.case")) == len(data.rows())
