"""Tests for the parallel experiment engine and the design cache."""

import json
import os
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import obs
from repro.cache import (
    DesignCache,
    cache_key,
    code_fingerprint,
    default_cache_dir,
    sample_digest,
)
from repro.core.worst_case import design_worst_case
from repro.experiments import engine as engine_mod
from repro.experiments.engine import (
    DesignTask,
    Engine,
    FaultSpec,
    RotorSpec,
    TaskError,
    TaskKind,
    TaskMetrics,
    resolve_jobs,
    solve_task,
)
from repro.topology import Torus, TranslationGroup
from repro.traffic.doubly_stochastic import sample_traffic_set


@pytest.fixture()
def sample4():
    rng = np.random.default_rng(7)
    return tuple(sample_traffic_set(rng, 16, 3, num_permutations=2))


class TestDesignTask:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            DesignTask(kind="nope", k=4)

    def test_point_kinds_need_ratio(self):
        with pytest.raises(ValueError, match="locality ratio"):
            DesignTask(kind="wc_point", k=4)

    def test_average_kinds_need_sample(self):
        with pytest.raises(ValueError, match="traffic sample"):
            DesignTask(kind="twoturn_avg", k=4)

    def test_label_not_in_cache_payload(self):
        a = DesignTask(kind="wc_point", k=4, ratio=1.5, label="one")
        b = DesignTask(kind="wc_point", k=4, ratio=1.5, label="two")
        assert a.cache_payload() == b.cache_payload()
        assert cache_key(a.cache_payload()) == cache_key(b.cache_payload())

    def test_key_varies_with_every_field(self, sample4):
        base = DesignTask(kind="wc_point", k=4, ratio=1.5)
        variants = [
            DesignTask(kind="wc_point", k=5, ratio=1.5),
            DesignTask(kind="wc_point", k=4, n=3, ratio=1.5),
            DesignTask(kind="wc_point", k=4, ratio=1.25),
            DesignTask(kind="wc_point", k=4, ratio=1.5, sense="=="),
            DesignTask(kind="wc_opt", k=4),
            DesignTask(kind="avg_point", k=4, ratio=1.5, sample=sample4),
        ]
        keys = {cache_key(t.cache_payload()) for t in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_sample_content_enters_key(self, sample4):
        a = DesignTask(kind="avg_point", k=4, ratio=1.5, sample=sample4)
        perturbed = (sample4[0] + 1e-9,) + sample4[1:]
        b = DesignTask(kind="avg_point", k=4, ratio=1.5, sample=perturbed)
        assert cache_key(a.cache_payload()) != cache_key(b.cache_payload())


class TestCacheKey:
    def test_sample_digest_order_sensitive(self, sample4):
        assert sample_digest(sample4) != sample_digest(tuple(reversed(sample4)))

    def test_key_includes_code_fingerprint(self, monkeypatch):
        payload = {"kind": "wc_opt", "k": 4, "n": 2}
        before = cache_key(payload)
        monkeypatch.setattr("repro.cache.code_fingerprint", lambda: "different")
        assert cache_key(payload) != before

    def test_fingerprint_stable_and_hex(self):
        assert code_fingerprint() == code_fingerprint()
        int(code_fingerprint(), 16)

    def test_default_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
        assert default_cache_dir() == tmp_path / "x"


class TestDesignCache:
    def test_roundtrip(self, tmp_path):
        cache = DesignCache(tmp_path)
        cache.put("abc", {"load": 1.5})
        assert "abc" in cache
        assert cache.get("abc") == {"load": 1.5}
        assert len(cache) == 1

    def test_miss(self, tmp_path):
        cache = DesignCache(tmp_path)
        assert cache.get("nothing") is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DesignCache(tmp_path)
        cache.put("abc", {"load": 1.5})
        (tmp_path / "abc.json").write_text("{not json")
        assert cache.get("abc") is None


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_default_is_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(0)


class TestEngineExecution:
    def test_serial_matches_direct_solve(self, tmp_path):
        t4 = Torus(4, 2)
        g4 = TranslationGroup(t4)
        direct = design_worst_case(
            t4, locality_hops=1.5 * t4.mean_min_distance(),
            locality_sense="<=", group=g4,
        )
        engine = Engine(jobs=1, cache=DesignCache(tmp_path))
        res = engine.run_one(DesignTask(kind="wc_point", k=4, ratio=1.5))
        assert res.load == pytest.approx(direct.worst_case_load, rel=1e-9)
        np.testing.assert_array_equal(res.flows, direct.flows)

    def test_parallel_matches_serial(self, tmp_path):
        tasks = [
            DesignTask(kind="wc_point", k=4, ratio=r) for r in (1.0, 1.5, 2.0)
        ]
        serial = Engine(jobs=1, cache=None).run(tasks)
        parallel = Engine(jobs=2, cache=None).run(tasks)
        for s, p in zip(serial, parallel):
            assert s.load == p.load
            np.testing.assert_array_equal(s.flows, p.flows)

    def test_second_run_is_all_cache_hits_and_bit_identical(self, tmp_path):
        cache = DesignCache(tmp_path)
        tasks = [
            DesignTask(kind="wc_point", k=4, ratio=r) for r in (1.2, 1.8)
        ]
        cold = Engine(jobs=1, cache=cache)
        first = cold.run(tasks)
        assert cold.solves == 2 and cold.hits == 0

        warm = Engine(jobs=1, cache=cache)
        second = warm.run(tasks)
        assert warm.solves == 0 and warm.hits == 2
        for a, b in zip(first, second):
            assert a.load == b.load  # exact, not approx
            np.testing.assert_array_equal(a.flows, b.flows)

    def test_no_cache_bypasses(self, tmp_path):
        cache = DesignCache(tmp_path)
        task = DesignTask(kind="wc_point", k=4, ratio=1.5)
        Engine(jobs=1, cache=cache).run_one(task)
        assert len(cache) == 1
        uncached = Engine(jobs=1, cache=None)
        uncached.run_one(task)
        assert uncached.solves == 1  # solved again, no cache consulted
        assert len(cache) == 1  # and nothing new written

    def test_key_change_invalidates(self, tmp_path):
        cache = DesignCache(tmp_path)
        engine = Engine(jobs=1, cache=cache)
        engine.run_one(DesignTask(kind="wc_point", k=4, ratio=1.5))
        engine.run_one(DesignTask(kind="wc_point", k=4, ratio=1.6))
        assert engine.solves == 2 and engine.hits == 0

    def test_code_change_invalidates(self, tmp_path, monkeypatch):
        cache = DesignCache(tmp_path)
        task = DesignTask(kind="wc_point", k=4, ratio=1.5)
        Engine(jobs=1, cache=cache).run_one(task)
        monkeypatch.setattr("repro.cache.code_fingerprint", lambda: "edited")
        fresh = Engine(jobs=1, cache=cache)
        fresh.run_one(task)
        assert fresh.solves == 1 and fresh.hits == 0

    def test_twoturn_task_roundtrips_routing(self, tmp_path):
        from repro.routing import design_2turn

        t4 = Torus(4, 2)
        cache = DesignCache(tmp_path)
        Engine(jobs=1, cache=cache).run_one(DesignTask(kind="twoturn", k=4))
        res = Engine(jobs=1, cache=cache).run_one(DesignTask(kind="twoturn", k=4))
        assert res.cache_hit
        native = design_2turn(t4)
        loaded = res.routing(t4)
        loaded.validate()
        np.testing.assert_allclose(
            loaded.canonical_flows, native.routing.canonical_flows, atol=1e-12
        )

    def test_mixed_batch_preserves_order(self, tmp_path, sample4):
        tasks = [
            DesignTask(kind="wc_opt", k=4),
            DesignTask(kind="avg_point", k=4, ratio=1.5, sample=sample4),
            DesignTask(kind="wc_point", k=4, ratio=1.1),
        ]
        results = Engine(jobs=1, cache=DesignCache(tmp_path)).run(tasks)
        assert [r.task.kind for r in results] == [t.kind for t in tasks]


class TestMetrics:
    def test_metrics_recorded(self, tmp_path):
        engine = Engine(jobs=1, cache=DesignCache(tmp_path))
        engine.run_one(DesignTask(kind="wc_point", k=4, ratio=1.5, label="pt"))
        (m,) = engine.metrics
        assert m.label == "pt" and m.kind == "wc_point"
        assert not m.cache_hit
        assert m.solve_time > 0
        assert m.variables > 0 and m.rows > 0 and m.nonzeros > 0
        assert len(m.row()) == len(TaskMetrics.CSV_HEADERS)

    def test_summary_counts(self, tmp_path):
        cache = DesignCache(tmp_path)
        Engine(jobs=1, cache=cache).run_one(
            DesignTask(kind="wc_point", k=4, ratio=1.5)
        )
        warm = Engine(jobs=1, cache=cache)
        warm.run_one(DesignTask(kind="wc_point", k=4, ratio=1.5))
        assert "0 solved" in warm.summary()
        assert "1 cache hits" in warm.summary()

    def test_empty_engine_summary(self):
        assert Engine(jobs=1, cache=None).summary() == ""


class TestSolveTaskDoc:
    def test_doc_is_json_serializable(self, tmp_path):
        doc = solve_task(DesignTask(kind="wc_point", k=4, ratio=1.5))
        blob = json.dumps(doc)
        assert json.loads(blob)["payload"]["kind"] == "wc_point"
        assert doc["model_stats"]["variables"] > 0
        assert doc["solve_time"] > 0


class TestCacheKeyPins:
    """The cache payload of every kind, pinned: a change here orphans
    every existing cache entry of that kind."""

    SAMPLE = (np.full((16, 16), 1 / 16), np.eye(16)[::-1].copy())

    @pytest.mark.parametrize(
        "task, payload",
        [
            (
                DesignTask(
                    kind="wc_point", k=4, ratio=1.5, sense="==", method="colgen"
                ),
                {"kind": "wc_point", "k": 4, "n": 2, "ratio": 1.5,
                 "sense": "==", "method": "colgen"},
            ),
            (
                DesignTask(kind="wc_point", k=10, ratio=1.0),  # auto -> colgen
                {"kind": "wc_point", "k": 10, "n": 2, "ratio": 1.0,
                 "sense": "<=", "method": "colgen"},
            ),
            (
                DesignTask(kind="wc_opt", k=3, n=3, bandwidths=(1.0, 1.0, 0.5)),
                {"kind": "wc_opt", "k": 3, "n": 3, "ratio": None,
                 "sense": "<=", "bandwidths": [1.0, 1.0, 0.5]},
            ),
            (
                DesignTask(kind="avg_point", k=4, ratio=1.25, sample=SAMPLE),
                {"kind": "avg_point", "k": 4, "n": 2, "ratio": 1.25,
                 "sense": "<=", "sample": "54557d4cc17b4d78"},
            ),
            (
                DesignTask(kind="twoturn", k=4),
                {"kind": "twoturn", "k": 4, "n": 2, "ratio": None,
                 "sense": "<="},
            ),
            (
                DesignTask(kind="twoturn_avg", k=4, sample=SAMPLE),
                {"kind": "twoturn_avg", "k": 4, "n": 2, "ratio": None,
                 "sense": "<=", "sample": "54557d4cc17b4d78"},
            ),
            (
                DesignTask(
                    kind="fault_wc",
                    k=4,
                    spec=FaultSpec("VAL", (7, 3), reroute="renormalize"),
                ),
                {"kind": "fault_wc", "k": 4, "n": 2, "ratio": None,
                 "sense": "<=", "algorithm": "VAL",
                 "faults": "e433c737fff5e03a", "reroute": "renormalize"},
            ),
            (
                DesignTask(
                    kind="rotor_wc", k=3, spec=RotorSpec("ORN", 3, phase_length=2)
                ),
                {"kind": "rotor_wc", "k": 3, "n": 2, "ratio": None,
                 "sense": "<=", "scheme": "ORN", "schedule": "5da36d4af7e048b7"},
            ),
        ],
        ids=lambda v: v.kind if isinstance(v, DesignTask) else "",
    )
    def test_payload_pinned(self, task, payload):
        assert task.cache_payload() == payload

    def test_spec_must_match_kind(self):
        with pytest.raises(ValueError, match="FaultSpec"):
            DesignTask(kind="fault_wc", k=3)
        with pytest.raises(ValueError, match="FaultSpec"):
            DesignTask(kind="fault_wc", k=3, spec=RotorSpec("ORN", 2))
        with pytest.raises(ValueError, match="NoneType"):
            DesignTask(kind="twoturn", k=3, spec=FaultSpec("VAL"))


# ----------------------------------------------------------------------
# Failures: every other task still runs and lands in the cache
# ----------------------------------------------------------------------
def _toy_solve(task):
    """A kind that "designs" instantly; a negative ratio fails."""
    if task.ratio < 0:
        raise ArithmeticError(f"no design at ratio {task.ratio}")
    return task.ratio, 1.0, {}, {}


def _crash_after_others(task):
    """A negative ratio kills its worker once every other task's doc is
    in the cache (so "completed first" is deterministic)."""
    if task.ratio < 0:
        root = os.environ["TOY_CACHE_DIR"]
        want = int(os.environ["TOY_WAIT_FOR"])
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if sum(name.endswith(".json") for name in os.listdir(root)) >= want:
                break
            time.sleep(0.02)
        os._exit(3)
    return task.ratio, 1.0, {}, {}


def _no_checks(doc, tol, subject):
    return []


@pytest.fixture()
def toy_kinds(monkeypatch):
    # Pool workers are forked after this patch, so they see the kinds too.
    for name, solve in (("toy", _toy_solve), ("toy_crash", _crash_after_others)):
        monkeypatch.setitem(
            engine_mod.KINDS, name, TaskKind(solve, _no_checks, needs_ratio=True)
        )


def _toy_tasks(kind="toy"):
    return [
        DesignTask(kind=kind, k=3, ratio=r, label=f"toy@{r}")
        for r in (1.0, -1.0, 2.0, 3.0)
    ]


class TestTaskFailures:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_keeps_every_other_result(self, tmp_path, toy_kinds, jobs):
        cache = DesignCache(tmp_path)
        tasks = _toy_tasks()
        engine = Engine(jobs=jobs, cache=cache)
        with pytest.raises(TaskError, match="toy@-1.0") as info:
            engine.run(tasks)
        assert isinstance(info.value.__cause__, ArithmeticError)
        assert '"ratio": -1.0' in str(info.value)  # the task's payload
        assert engine.solves == len(tasks) - 1
        for task in tasks:
            cached = cache_key(task.cache_payload()) in cache
            assert cached == (task.ratio >= 0)

        rerun = Engine(jobs=jobs, cache=cache)
        with pytest.raises(TaskError):
            rerun.run(tasks)
        assert rerun.hits == len(tasks) - 1 and rerun.solves == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_task_emits_engine_task_span(self, tmp_path, toy_kinds, jobs):
        from repro.obs.report import aggregate

        tracer = obs.get_tracer()
        mark = tracer.mark()
        with pytest.raises(TaskError):
            Engine(jobs=jobs, cache=DesignCache(tmp_path)).run(_toy_tasks())
        spans = [
            e for e in tracer.events_since(mark) if e.get("name") == "engine.task"
        ]
        # One span per task, in task order; only the failure has an error.
        assert [e["attrs"]["label"] for e in spans] == [
            t.label for t in _toy_tasks()
        ]
        (failed,) = [e["attrs"] for e in spans if "error" in e["attrs"]]
        assert failed["label"] == "toy@-1.0" and failed["kind"] == "toy"
        assert failed["error"] == "ArithmeticError: no design at ratio -1.0"
        report = aggregate(tracer.events_since(mark))
        assert report.failed_tasks == [failed]
        assert "ArithmeticError: no design at ratio -1.0" in report.render()

    def test_dead_worker_keeps_finished_results(
        self, tmp_path, toy_kinds, monkeypatch
    ):
        cache = DesignCache(tmp_path)
        tasks = _toy_tasks("toy_crash")
        tasks.insert(0, tasks.pop(1))  # the crash goes first, to one worker
        monkeypatch.setenv("TOY_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("TOY_WAIT_FOR", str(len(tasks) - 1))
        with pytest.raises(TaskError, match="toy@-1.0") as info:
            Engine(jobs=2, cache=cache).run(tasks)
        assert isinstance(info.value.__cause__, BrokenProcessPool)
        for task in tasks[1:]:
            assert cache_key(task.cache_payload()) in cache

    def test_truncated_entry_is_resolved_and_overwritten(self, tmp_path, toy_kinds):
        cache = DesignCache(tmp_path)
        task = _toy_tasks()[0]
        Engine(jobs=1, cache=cache).run_one(task)
        path = cache._path(cache_key(task.cache_payload()))
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])

        engine = Engine(jobs=1, cache=cache)
        result = engine.run_one(task)
        assert engine.solves == 1 and not result.cache_hit
        assert json.loads(path.read_text())["load"] == task.ratio
        assert Engine(jobs=1, cache=cache).run_one(task).cache_hit

    def test_cli_run_reports_task_error(self, monkeypatch, capsys):
        from repro import cli

        task = DesignTask(kind="twoturn", k=3, label="broken-2turn")

        def fail(*args, **kwargs):
            raise TaskError(task, ArithmeticError("no design"))

        monkeypatch.setattr(cli, "run_experiment", fail)
        assert cli.main(["run", "fig1", "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "broken-2turn" in err and "ArithmeticError: no design" in err
