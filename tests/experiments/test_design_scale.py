"""Tests for the ``design-scale`` experiment and the engine's
``method`` plumbing (cache-key discipline + persisted certificates)."""

import json

import pytest

from repro import obs
from repro.cache import DesignCache
from repro.experiments import design_scale
from repro.experiments.engine import DesignTask, Engine, cache_key
from repro.experiments.runner import run_experiment
from repro.verify import recheck_cached_doc


class TestDesignScaleRun:
    def test_small_sweep_explicit_methods(self):
        data = design_scale.run(k=4, radices=(3, 4), method="colgen")
        assert [p.k for p in data.points] == [3, 4]
        assert all(p.method == "colgen" for p in data.points)
        assert all(p.solve_seconds > 0 for p in data.points)
        # k=3 2-D torus: Theta_wc = 1/load = 1/(2/3)
        assert data.points[0].theta_wc == pytest.approx(1.5, rel=1e-6)
        text = data.render()
        assert "re-certified" in text and "method=colgen" in text

    def test_auto_resolves_full_below_threshold(self):
        data = design_scale.run(k=4, radices=(4,), method="auto")
        assert data.points[0].method == "full"
        assert "re-certified" not in data.render()

    def test_default_radices_clip_to_k(self):
        data = design_scale.run(k=8, radices=None, method="full")
        assert [p.k for p in data.points] == [8]

    def test_engine_and_seed_ignored(self):
        a = design_scale.run(k=3, radices=(3,), method="full", engine=object())
        b = design_scale.run(k=3, radices=(3,), method="full", seed=7)
        assert a.points[0].theta_wc == b.points[0].theta_wc

    def test_bench_artifact_written_and_valid(self, tmp_path):
        design_scale.run(
            k=3, radices=(3,), method="colgen", bench_out=str(tmp_path)
        )
        path = tmp_path / "BENCH_design_scale.json"
        doc = obs.load_bench_doc(path)
        obs.validate_bench_doc(doc)
        assert doc["workload"]["radices"] == [3]
        assert "k3_colgen" in doc["timings"]
        row = doc["meta"]["rows"][0]
        assert row["method"] == "colgen" and row["k"] == 3

    def test_invalid_method_rejected_before_solving(self):
        with pytest.raises(ValueError):
            design_scale.run(k=3, radices=(3,), method="bogus")

    def test_runner_threads_scale_kwargs(self, tmp_path):
        data, text = run_experiment(
            "design-scale",
            k=4,
            radices=(3,),
            method="colgen",
            bench_out=str(tmp_path),
            use_cache=False,
        )
        assert data.points[0].method == "colgen"
        assert (tmp_path / "BENCH_design_scale.json").exists()
        assert "Theta_wc" in text


#: The explicitly-colgen engine task these suites run: a pinned,
#: single-stage point (wc_opt is lexicographic and full-LP only).
POINT = dict(kind="wc_point", k=3, ratio=1.25, sense="<=")


class TestEngineMethodField:
    def test_default_method_keeps_legacy_cache_key(self):
        legacy = DesignTask(**POINT)
        explicit = DesignTask(**POINT, method="full")
        auto_small = DesignTask(**POINT, method="auto")
        assert cache_key(legacy.cache_payload()) == cache_key(explicit.cache_payload())
        assert cache_key(legacy.cache_payload()) == cache_key(auto_small.cache_payload())
        assert "method" not in legacy.cache_payload()

    def test_colgen_gets_distinct_key(self):
        full = DesignTask(**POINT)
        colgen = DesignTask(**POINT, method="colgen")
        assert cache_key(full.cache_payload()) != cache_key(colgen.cache_payload())
        assert colgen.cache_payload()["method"] == "colgen"

    @pytest.mark.parametrize("kind, ratio", [("wc_point", 1.25), ("wc_opt", None)])
    def test_auto_above_threshold_keeps_full_key(self, kind, ratio):
        # 100 nodes is the auto threshold, but pinned and lexicographic
        # designs resolve to the full LP at every size.
        auto = DesignTask(kind=kind, k=10, ratio=ratio, method="auto")
        assert "method" not in auto.cache_payload()
        if kind == "wc_point":
            full = DesignTask(kind=kind, k=10, ratio=ratio, method="full")
            assert cache_key(auto.cache_payload()) == cache_key(full.cache_payload())

    def test_bogus_method_rejected(self):
        with pytest.raises(ValueError):
            DesignTask(**POINT, method="bogus")

    def test_non_worst_case_kinds_reject_method(self):
        with pytest.raises(ValueError):
            DesignTask(kind="twoturn", k=3, method="colgen")

    def test_wc_opt_rejects_method(self):
        with pytest.raises(ValueError, match="single-stage worst-case designs"):
            DesignTask(kind="wc_opt", k=3, method="colgen")


class TestEngineColgenCertificates:
    def test_wc_point_colgen_solves_and_certifies(self, tmp_path):
        engine = Engine(jobs=1, cache=DesignCache(tmp_path))
        task = DesignTask(**POINT, method="colgen")
        res = engine.run_one(task)
        full = Engine(jobs=1, cache=None).run_one(DesignTask(**POINT))
        assert res.load == pytest.approx(full.load, rel=1e-6)
        assert res.doc["method"] == "colgen"
        cert = res.doc["colgen_certificate"]
        assert cert["passed"] and len(cert["checks"]) == 4
        assert {c["name"] for c in cert["checks"]} == {
            "colgen_oracle",
            "colgen_duality_gap",
            "colgen_sampled",
            "colgen_exhaustive",
        }

    def test_cached_colgen_doc_rechecks(self, tmp_path):
        cache = DesignCache(tmp_path)
        task = DesignTask(**POINT, method="colgen")
        Engine(jobs=1, cache=cache).run_one(task)
        doc = cache.get(cache_key(task.cache_payload()))
        report = recheck_cached_doc(doc)
        assert report.passed, report.render()
        names = {c.name for c in report.checks}
        assert "colgen_duality_gap" in names

    def test_corrupted_cached_bound_fails_recheck(self, tmp_path):
        cache = DesignCache(tmp_path)
        task = DesignTask(**POINT, method="colgen")
        Engine(jobs=1, cache=cache).run_one(task)
        doc = json.loads(json.dumps(cache.get(cache_key(task.cache_payload()))))
        doc["colgen"]["lower_bound"] *= 0.9
        report = recheck_cached_doc(doc)
        assert not report.passed
