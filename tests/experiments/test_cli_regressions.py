"""CLI-level regression tests: argument wiring, output paths, caching.

Covers the bugs fixed alongside the experiment engine: ``fig4``
silently ignoring ``--k``, silent radix clamping in ``sim``/``adaptive``,
CSV output into not-yet-existing directories, and the cache/metrics
flags threaded through the CLI.
"""

import csv
import logging

import pytest

from repro.cli import main
from repro.experiments import fig4
from repro.experiments.common import save_csv
from repro.experiments.runner import (
    RADIX_CLAMP_MESSAGE,
    SIM_RADIX_LIMIT,
    _fig4_radices,
    _sim_radix,
    run_experiment,
)


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_FAST", "1")
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestFig4HonoursArguments:
    def test_radices_follow_k(self):
        assert _fig4_radices(3) == (3,)
        assert _fig4_radices(5) == (3, 4, 5)

    def test_too_small_k_rejected(self):
        with pytest.raises(ValueError, match="fig4 needs k >= 3"):
            _fig4_radices(2)

    def test_output_varies_with_k(self, capsys):
        assert main(["run", "fig4", "--k", "3"]) == 0
        out3 = capsys.readouterr().out
        assert main(["run", "fig4", "--k", "4"]) == 0
        out4 = capsys.readouterr().out
        assert out3 != out4
        # the k=4 run contains the extra radix row, the k=3 run does not
        assert any(line.startswith("4") for line in out4.splitlines())
        assert not any(line.startswith("4") for line in out3.splitlines())

    def test_run_experiment_honours_k(self):
        data3, _ = run_experiment("fig4", k=3)
        data4, _ = run_experiment("fig4", k=4)
        assert data3.radices == [3]
        assert data4.radices == [3, 4]

    def test_direct_run_validates_radices(self):
        with pytest.raises(ValueError, match="radices >= 3"):
            fig4.run(radices=(2, 3))
        with pytest.raises(ValueError, match="at least one radix"):
            fig4.run(radices=())

    def test_cli_reports_bad_values_cleanly(self, capsys):
        # invalid --k / --jobs exit 2 with a one-line error, not a traceback
        assert main(["run", "fig4", "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert "repro-experiments: error: fig4 needs k >= 3" in err
        assert "Traceback" not in err

        assert main(["run", "fig4", "--k", "3", "--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert "repro-experiments: error: jobs must be >= 1" in err


class TestSimRadixCap:
    def test_within_limit_passes_through(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert _sim_radix("sim", 4) == 4
        assert caplog.records == []

    def test_clamp_warns_with_the_one_canonical_message(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert _sim_radix("sim", 8) == SIM_RADIX_LIMIT
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert record.name == "repro.experiments.runner"
        # every clamp site shares this exact message template
        assert record.msg == RADIX_CLAMP_MESSAGE
        assert record.getMessage() == RADIX_CLAMP_MESSAGE % (
            "sim", SIM_RADIX_LIMIT, 8
        )


class TestCsvOutputPaths:
    def test_save_csv_creates_missing_directories(self, tmp_path):
        target = tmp_path / "fresh" / "nested" / "dir" / "rows.csv"
        save_csv(str(target), ["a", "b"], [[1, 2]])
        assert target.exists()
        with open(target) as fh:
            assert list(csv.reader(fh)) == [["a", "b"], ["1", "2"]]

    def test_cli_out_into_fresh_nested_directory(self, tmp_path, capsys):
        out = tmp_path / "results" / "deep" / "run1"
        assert (
            main(["run", "sim", "--k", "4", "--seed", "3", "--out", str(out)])
            == 0
        )
        capsys.readouterr()
        assert (out / "sim.csv").exists()


@pytest.mark.parametrize("name", ["fig1", "fig5", "fig6", "headline"])
def test_figure_title_names_the_run_torus(name, capsys):
    assert main(["run", name, "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "(4-ary 2-cube)" in out.splitlines()[0]
    assert "8-ary" not in out


class TestCacheAndMetricsFlags:
    def test_second_run_is_all_cache_hits(self, tmp_path, capsys):
        metrics = tmp_path / "m" / "metrics.csv"
        args = ["run", "fig1", "--k", "4", "--metrics", str(metrics)]
        assert main(args) == 0
        first = capsys.readouterr()
        # engine diagnostics land on stderr; stdout stays results-only
        assert "0 cache hits" in first.err
        assert "cache hits" not in first.out

        assert main(args) == 0
        second = capsys.readouterr()
        assert "0 solved" in second.err

        with open(metrics) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["cache_hit"] == "1" for r in rows)
        assert all(r["kind"] == "wc_point" for r in rows)
        assert all(int(r["lp_nonzeros"]) > 0 for r in rows)

    def test_no_cache_flag_bypasses(self, capsys):
        args = ["run", "fig1", "--k", "4"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--no-cache"]) == 0
        err = capsys.readouterr().err
        assert "0 cache hits" in err  # cache ignored despite warm entries

    def test_cache_dir_flag_overrides_env(self, tmp_path, capsys):
        alt = tmp_path / "alt-cache"
        assert main(["run", "fig1", "--k", "4", "--cache-dir", str(alt)]) == 0
        capsys.readouterr()
        assert any(alt.glob("*.json"))

    def test_rows_identical_across_cache_and_jobs(self, capsys):
        data_cold, _ = run_experiment("fig1", k=4, use_cache=True)
        data_warm, _ = run_experiment("fig1", k=4, use_cache=True)
        data_par, _ = run_experiment("fig1", k=4, jobs=2, use_cache=False)
        assert data_cold.rows() == data_warm.rows() == data_par.rows()


class TestTopo3DFlags:
    def test_cli_runs_single_point(self, capsys):
        args = [
            "run", "topo3d", "--k", "3",
            "--bandwidths", "1,1,0.5", "--no-cache",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Z-slowdown sweep" in out
        assert "50% worst-case bound" in out

    def test_cli_rejects_malformed_bandwidths(self, capsys):
        rc = main(["run", "topo3d", "--bandwidths", "1,fast,0.5"])
        assert rc == 2
        assert "--bandwidths" in capsys.readouterr().err

    def test_cli_rejects_wrong_arity(self, capsys):
        rc = main(["run", "topo3d", "--k", "3", "--bandwidths", "1,0.5"])
        assert rc == 2
        assert "bandwidths" in capsys.readouterr().err

    def test_cli_rejects_unknown_topology(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "topo3d", "--topology", "hyperx"])
