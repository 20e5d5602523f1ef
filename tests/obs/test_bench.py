"""Benchmark-regression tracker tests (repro.obs.bench + CLI gate)."""

import json
import pathlib

import pytest

from repro.cli import main
from repro.obs import bench

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _doc(name="demo", median=1.0, **kwargs):
    return bench.new_doc(
        name,
        workload={"k": 4},
        timings={"total": [median]},
        git_rev="deadbeef",
        **kwargs,
    )


class TestSchema:
    def test_new_doc_round_trips_through_write_and_load(self, tmp_path):
        doc = bench.new_doc(
            "roundtrip",
            workload={"k": 4, "points": 3},
            timings={"total": [1.0, 3.0, 2.0]},
            derived={"speedup": 2.5},
            meta={"rows": [[1, 2]]},
            git_rev="deadbeef",
        )
        path = bench.write_doc(doc, tmp_path)
        assert path.name == "BENCH_roundtrip.json"
        assert bench.load_doc(path) == doc

    def test_timing_stats(self):
        stats = bench.timing_stats([3.0, 1.0, 2.0])
        assert stats["median"] == 2.0
        assert stats["mean"] == 2.0
        assert (stats["min"], stats["max"]) == (1.0, 3.0)
        assert stats["total"] == 6.0
        assert stats["n"] == 3
        assert stats["unit"] == "seconds"

    def test_empty_samples_rejected(self):
        with pytest.raises(bench.BenchValidationError, match="at least one"):
            bench.timing_stats([])

    def test_bad_name_rejected(self):
        with pytest.raises(bench.BenchValidationError, match="invalid"):
            bench.new_doc("a/b", workload={}, timings={"t": [1.0]})

    def test_missing_key_rejected(self):
        doc = _doc()
        del doc["git_rev"]
        with pytest.raises(bench.BenchValidationError, match="git_rev"):
            bench.validate_doc(doc)

    def test_wrong_schema_version_rejected(self):
        doc = _doc()
        doc["bench_schema"] = 99
        with pytest.raises(bench.BenchValidationError, match="bench_schema"):
            bench.validate_doc(doc)

    def test_sample_count_mismatch_rejected(self):
        doc = _doc()
        doc["timings"]["total"]["n"] = 5
        with pytest.raises(bench.BenchValidationError, match="n=5"):
            bench.validate_doc(doc)

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{not json")
        with pytest.raises(bench.BenchValidationError, match="not JSON"):
            bench.load_doc(path)


class TestDiff:
    def test_ratio_and_verdicts(self):
        row = bench.DiffRow("b", "m", 1.0, 1.2, threshold=0.25)
        assert row.ratio == pytest.approx(1.2)
        assert not row.regressed and row.verdict == "ok"
        assert bench.DiffRow("b", "m", 1.0, 2.0, 0.25).verdict == "REGRESSED"
        assert bench.DiffRow("b", "m", 1.0, 0.5, 0.25).verdict == "improved"

    def test_zero_baseline(self):
        assert bench.DiffRow("b", "m", 0.0, 1.0, 0.25).ratio == float("inf")
        assert bench.DiffRow("b", "m", 0.0, 0.0, 0.25).ratio == 1.0

    def test_compare_dirs(self, tmp_path):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        bench.write_doc(_doc("same", 1.0), baselines)
        bench.write_doc(_doc("same", 1.1), results)
        bench.write_doc(_doc("slow", 1.0), baselines)
        bench.write_doc(_doc("slow", 2.0), results)
        bench.write_doc(_doc("fresh", 1.0), results)  # no baseline yet
        bench.write_doc(_doc("gone", 1.0), baselines)  # no current run

        report = bench.compare_dirs(results, baselines)
        assert not report.passed
        assert [r.bench for r in report.regressions] == ["slow"]
        assert report.missing_baseline == ["fresh"]
        assert report.missing_current == ["gone"]
        rendered = report.render()
        assert "REGRESSED" in rendered and "2.00x" in rendered
        assert "2 series compared, 1 regressed" in rendered


class TestCli:
    def test_check_passes_on_committed_baseline(self, capsys):
        rc = main(
            [
                "bench-report",
                "--results", str(REPO_ROOT / "results"),
                "--baseline", str(REPO_ROOT / "results" / "baselines"),
                "--check",
            ]
        )
        assert rc == 0
        assert "0 regressed" in capsys.readouterr().out

    def test_check_flags_artificial_2x_slowdown(self, tmp_path, capsys):
        """The acceptance gate: a 2x-slowed copy of a real artifact fails."""
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        results.mkdir()
        baselines.mkdir()
        src = REPO_ROOT / "results" / "BENCH_sim_backend.json"
        doc = bench.load_doc(src)
        bench.write_doc(doc, baselines)
        slowed = json.loads(json.dumps(doc))
        for series in slowed["timings"].values():
            series["samples"] = [2.0 * s for s in series["samples"]]
            for key in ("median", "mean", "min", "max", "total"):
                series[key] = 2.0 * series[key]
        bench.write_doc(slowed, results)

        rc = main(
            [
                "bench-report",
                "--results", str(results),
                "--baseline", str(baselines),
                "--check",
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "2.00x" in out

    def test_without_check_reports_but_passes(self, tmp_path, capsys):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        bench.write_doc(_doc("slow", 1.0), baselines)
        bench.write_doc(_doc("slow", 9.0), results)
        rc = main(
            ["bench-report", "--results", str(results), "--baseline",
             str(baselines)]
        )
        assert rc == 0  # report-only mode never gates
        assert "REGRESSED" in capsys.readouterr().out

    def test_invalid_artifact_exits_2(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "BENCH_bad.json").write_text('{"bench_schema": 1}')
        rc = main(
            ["bench-report", "--results", str(results), "--baseline",
             str(tmp_path / "baselines")]
        )
        assert rc == 2
