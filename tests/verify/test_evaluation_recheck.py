"""Rechecks of cached worst-case *evaluation* entries (``fault_wc`` and
``rotor_wc``): they store a load but no design, so a certified warm run
and ``verify --cached`` check the entry's shape, not a re-measure."""

import json
import math

import pytest

from repro.cache import DesignCache, cache_key
from repro.experiments.engine import DesignTask, Engine, FaultSpec, RotorSpec
from repro.verify import CertificationError, recheck_cached_doc
from repro.verify.runner import verify_cache

TASKS = {
    "fault": DesignTask(kind="fault_wc", k=3, spec=FaultSpec("VAL", (2,))),
    "disconnected": DesignTask(
        kind="fault_wc", k=3, spec=FaultSpec("DOR", (2,), reroute="renormalize")
    ),
    "rotor": DesignTask(kind="rotor_wc", k=3, spec=RotorSpec("VLBR", 2)),
}


@pytest.fixture(autouse=True)
def _fast(monkeypatch):
    monkeypatch.setenv("REPRO_FAST", "1")


@pytest.fixture(scope="module")
def warm_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("designs")
    Engine(jobs=1, cache=DesignCache(root), certify=True).run(list(TASKS.values()))
    return root


def _doc(root, name):
    task = TASKS[name]
    return DesignCache(root).get(cache_key(task.cache_payload()))


class TestWarmCertifiedRun:
    def test_second_certified_run_passes(self, warm_root):
        engine = Engine(jobs=1, cache=DesignCache(warm_root), certify=True)
        results = engine.run(list(TASKS.values()))
        assert all(r.cache_hit for r in results)
        assert results[1].doc["disconnected"] is True

    def test_verify_cache_passes(self, warm_root):
        reports = verify_cache(warm_root)
        assert len(reports) == len(TASKS)
        assert all(r.passed for r in reports), [r.render() for r in reports]

    @pytest.mark.parametrize("name", sorted(TASKS))
    def test_load_recheck_skipped_with_reason(self, warm_root, name):
        report = recheck_cached_doc(_doc(warm_root, name))
        assert report.passed, report.render()
        (skipped,) = [c for c in report.checks if c.name == "load_recheck"]
        assert skipped.detail.startswith("skipped: evaluation entry")


class TestCorruptEvaluationEntries:
    @pytest.mark.parametrize(
        "name, mutate",
        [
            ("fault", lambda d: d.pop("load")),
            ("fault", lambda d: d.update(load=math.inf)),
            ("fault", lambda d: d.update(load="2.0")),
            ("disconnected", lambda d: d.update(load=0.5)),
            ("rotor", lambda d: d.pop("phase_loads")),
            ("rotor", lambda d: d.update(load=math.nan)),
        ],
    )
    def test_recheck_fails(self, warm_root, name, mutate):
        doc = json.loads(json.dumps(_doc(warm_root, name)))
        mutate(doc)
        doc = json.loads(json.dumps(doc))  # as read back from disk
        assert not recheck_cached_doc(doc).passed

    def test_certified_engine_rejects_tampered_load(self, tmp_path):
        cache = DesignCache(tmp_path)
        task = TASKS["fault"]
        Engine(jobs=1, cache=cache, certify=True).run_one(task)
        path = cache._path(cache_key(task.cache_payload()))
        doc = json.loads(path.read_text())
        del doc["load"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CertificationError, match="re-certification"):
            Engine(jobs=1, cache=cache, certify=True).run_one(task)
        assert any(not r.passed for r in verify_cache(tmp_path))

    def test_unknown_kind_fails(self):
        report = recheck_cached_doc({"payload": {"kind": "nope"}, "load": 1.0})
        assert not report.passed
        assert report.failures()[0].name == "design_payload"
