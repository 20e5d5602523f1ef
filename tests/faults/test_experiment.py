"""fault_wc engine tasks, the faults experiment, and its CLI surface."""

import pytest

from repro.cache import DesignCache, cache_key
from repro.experiments import faults
from repro.experiments.engine import (
    FAULT_ALGORITHMS,
    DesignTask,
    Engine,
    FaultSpec,
)


@pytest.fixture()
def engine(tmp_path):
    return Engine(jobs=1, cache=DesignCache(tmp_path / "designs"))


class TestDesignTaskValidation:
    def test_requires_known_algorithm(self):
        with pytest.raises(ValueError, match="fault_wc task needs algorithm"):
            DesignTask(kind="fault_wc", k=3, spec=FaultSpec("ROMM"))

    def test_requires_known_reroute(self):
        with pytest.raises(ValueError, match="unknown reroute mode"):
            DesignTask(
                kind="fault_wc", k=3, spec=FaultSpec("DOR", reroute="ostrich")
            )

    def test_faults_normalized(self):
        task = DesignTask(
            kind="fault_wc", k=3, spec=FaultSpec("VAL", (5, 2, 5))
        )
        assert task.spec.channels == (2, 5)


class TestCacheKey:
    def test_key_varies_with_fault_set(self):
        keys = {
            cache_key(
                DesignTask(
                    kind="fault_wc", k=3, spec=FaultSpec("VAL", f)
                ).cache_payload()
            )
            for f in [(), (2,), (5,), (2, 5)]
        }
        assert len(keys) == 4

    def test_key_varies_with_algorithm_and_reroute(self):
        a = DesignTask(kind="fault_wc", k=3, spec=FaultSpec("VAL", (2,)))
        b = DesignTask(kind="fault_wc", k=3, spec=FaultSpec("IVAL", (2,)))
        c = DesignTask(
            kind="fault_wc",
            k=3,
            spec=FaultSpec("VAL", (2,), reroute="renormalize"),
        )
        keys = {cache_key(t.cache_payload()) for t in (a, b, c)}
        assert len(keys) == 3

    def test_degraded_never_collides_with_pristine(self):
        faulted = DesignTask(kind="fault_wc", k=3, spec=FaultSpec("2TURN"))
        pristine = DesignTask(kind="twoturn", k=3)
        assert cache_key(faulted.cache_payload()) != cache_key(
            pristine.cache_payload()
        )


class TestEngineFaultWC:
    def test_known_values_and_cache_roundtrip(self, engine):
        # k = 3, channel 2 dead, detour: loads established interactively
        # and pinned by tests/faults/test_reroute.py.
        tasks = [
            DesignTask(
                kind="fault_wc", k=3, spec=FaultSpec(alg, (2,))
            )
            for alg in ("DOR", "VAL", "IVAL")
        ]
        first = engine.run(tasks)
        assert [r.cache_hit for r in first] == [False] * 3
        assert first[0].load == pytest.approx(2.0)
        assert first[1].load == pytest.approx(4.0 / 3.0)
        assert first[2].load == pytest.approx(4.0 / 3.0)
        for r in first:
            assert r.doc["disconnected"] is False
            assert r.doc["num_faults"] == 1
            assert r.avg_path_length > 0.0
        second = engine.run(tasks)
        assert [r.cache_hit for r in second] == [True] * 3
        assert [r.load for r in second] == [r.load for r in first]

    def test_disconnected_is_a_result_not_an_error(self, engine):
        # DOR + renormalize loses a commodity on the first link failure.
        result = engine.run_one(
            DesignTask(
                kind="fault_wc",
                k=3,
                spec=FaultSpec("DOR", (2,), reroute="renormalize"),
            )
        )
        assert result.doc["disconnected"] is True
        assert result.load == 0.0

    def test_no_faults_matches_pristine_wc(self, engine):
        # fault_wc with an empty fault set is just the general evaluator
        # on the pristine torus.
        from repro.metrics import general_worst_case_load
        from repro.routing import VAL
        from repro.topology import Torus

        t3 = Torus(3, 2)
        expected = general_worst_case_load(t3, VAL(t3).full_flows()).load
        result = engine.run_one(
            DesignTask(kind="fault_wc", k=3, spec=FaultSpec("VAL"))
        )
        assert result.doc["disconnected"] is False
        assert result.doc["num_faults"] == 0
        assert result.load == pytest.approx(expected)


class TestBaseRoutingMemo:
    @staticmethod
    def _sweep_tasks():
        return [
            DesignTask(kind="fault_wc", k=3, spec=FaultSpec(alg, f))
            for f in [(), (2,), (2, 5)]
            for alg in FAULT_ALGORITHMS
        ]

    def test_plain_bases_built_once_per_sweep(self, engine, monkeypatch):
        built = []
        for name, cls in list(faults._PLAIN_ALGORITHMS.items()):
            monkeypatch.setitem(
                faults._PLAIN_ALGORITHMS,
                name,
                lambda torus, cls=cls: built.append(cls) or cls(torus),
            )
        faults._plain_base.cache_clear()
        engine.run(self._sweep_tasks())
        # Three fault sets per algorithm, one build each.
        assert len(built) == len(faults._PLAIN_ALGORITHMS)
        # run() releases the bases once its tasks are done.
        monkeypatch.setenv("REPRO_FAST", "1")
        faults.run(k=3, seed=7, engine=engine, failures=1, cycles=300)
        assert faults._plain_base.cache_info().currsize == 0

    def test_pooled_results_equal_serial(self, tmp_path):
        tasks = self._sweep_tasks()
        faults._plain_base.cache_clear()
        serial = Engine(jobs=1, cache=DesignCache(tmp_path / "a")).run(tasks)
        pooled = Engine(jobs=2, cache=DesignCache(tmp_path / "b")).run(tasks)
        for a, b in zip(serial, pooled):
            assert a.load == b.load
            assert a.avg_path_length == b.avg_path_length
            assert a.model_stats == b.model_stats
            assert a.doc["wc_channel"] == b.doc["wc_channel"]


class TestFaultsExperiment:
    def test_fast_sweep_shape(self, engine, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        data = faults.run(k=3, seed=7, engine=engine, failures=1, cycles=600)
        assert len(data.fault_sequence) == 1
        assert len(data.rows_data) == 2 * len(FAULT_ALGORITHMS)
        for f, alg, theta, lo, hi in data.rows_data:
            assert f in (0, 1)
            assert alg in FAULT_ALGORITHMS
            assert theta >= 0.0
            assert 0.0 <= lo <= hi <= 1.0
        text = data.render()
        assert "Fault sweep" in text
        assert "failed-channel sequence:" in text

    def test_renormalize_zeroes_dor(self, engine, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        data = faults.run(
            k=3,
            seed=7,
            engine=engine,
            failures=1,
            reroute="renormalize",
            cycles=600,
        )
        by_case = {(f, alg): theta for f, alg, theta, _, _ in data.rows_data}
        assert by_case[(1, "DOR")] == 0.0
        assert by_case[(0, "DOR")] > 0.0

    def test_rejects_negative_failures(self, engine):
        with pytest.raises(ValueError, match="failures"):
            faults.run(k=3, engine=engine, failures=-1)


class TestCLISurface:
    def test_parser_accepts_fault_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "run",
                "faults",
                "--k",
                "4",
                "--failures",
                "2",
                "--reroute",
                "renormalize",
            ]
        )
        assert args.experiment == "faults"
        assert args.failures == 2
        assert args.reroute == "renormalize"

    def test_reroute_choices_enforced(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "faults", "--reroute", "ostrich"]
            )
        capsys.readouterr()
