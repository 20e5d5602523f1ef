"""Tests for trace aggregation and the ``obs-report`` CLI."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.report import aggregate, load_trace, profile_table, sort_events
from repro.obs.trace import Tracer


def _span(name, path, dur, attrs=None, pid=1, t0=0.0):
    return {
        "ev": "span",
        "name": name,
        "path": path,
        "t0": t0,
        "dur": dur,
        "cpu": dur,
        "pid": pid,
        "attrs": attrs or {},
    }


SYNTHETIC = [
    _span("lp.solve", "run/lp.solve", 0.5,
          {"nnz": 120, "status": 0, "iterations": 40}),
    _span("lp.solve", "run/lp.solve", 0.3,
          {"nnz": 4500, "status": 0, "iterations": 90}, pid=2),
    _span("sim.run", "run/sim.run", 0.2,
          {"rate": 0.5, "cycles": 100, "delivered": 40,
           "accepted_rate": 0.4, "queue_peak": 7}),
    _span("sim.run", "run/sim.run", 0.2,
          {"rate": 0.5, "cycles": 100, "delivered": 44,
           "accepted_rate": 0.44, "queue_peak": 3}),
    _span("run", "run", 1.5),
    {"ev": "count", "name": "cache.hit", "value": 3, "pid": 1},
    {"ev": "count", "name": "cache.miss", "value": 1, "pid": 1},
    {"ev": "count", "name": "cache.bytes_written", "value": 2048, "pid": 1},
    {"ev": "gauge", "name": "depth", "value": 4.0, "pid": 1},
]


class TestAggregate:
    def test_span_rows_sorted_by_total(self):
        report = aggregate(SYNTHETIC)
        rows = report.span_rows()
        assert [r[0] for r in rows] == ["run", "run/lp.solve", "run/sim.run"]
        assert rows[1][1] == 2  # two lp.solve calls
        assert rows[1][2] == pytest.approx(0.8)

    def test_top_limits_rows(self):
        assert len(aggregate(SYNTHETIC).span_rows(top=1)) == 1

    def test_lp_histogram_buckets_by_decade(self):
        hist = aggregate(SYNTHETIC).lp_size_histogram()
        assert hist == {"[100, 1000)": 1, "[1000, 10000)": 1}

    def test_cache_stats(self):
        stats = aggregate(SYNTHETIC).cache_stats()
        assert stats["hits"] == 3 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.75)
        assert stats["bytes_written"] == 2048

    def test_sim_rows_grouped_by_rate(self):
        report = aggregate(SYNTHETIC)
        rendered = report.render()
        assert "Simulation (per rate point):" in rendered
        # two runs at rate 0.5, mean accepted 0.42, max queue peak 7
        assert "0.5000" in rendered and "0.4200" in rendered

    def test_counts_processes(self):
        report = aggregate(SYNTHETIC)
        assert report.pids == {1, 2}
        assert "2 processes" in report.render()

    def test_no_point_tables_without_point_spans(self):
        report = aggregate(SYNTHETIC)
        assert report.points == {}
        rendered = report.render()
        assert "dur_s" not in rendered and ".point" not in rendered


#: One experiment's point spans per case, as its code emits them (the
#: topo3d torus/general modes differ in their first attrs; faults.case
#: sets its bracket late; design_scale.point adds attrs after the solve).
POINT_SPANS = {
    "faults.case": [
        {"failures": 1, "algorithm": "IVAL", "reroute": "detour",
         "theta_wc": 0.5, "disconnected": False,
         "sat_lo": 0.88, "sat_hi": 0.94},
        {"failures": 1, "algorithm": "DOR", "reroute": "renormalize",
         "theta_wc": 0.0, "disconnected": True,
         "sat_lo": 0.0, "sat_hi": 0.0},
    ],
    "topo3d.point": [
        {"k": 3, "dims": 3, "bz": 0.5},
        {"topology": "mesh3d", "k": 3, "bz": 1.0},
    ],
    "rotor.point": [
        {"phases": 1, "scheme": "vlb", "theta_wc": 8.0,
         "sat_lo": 0.96, "sat_hi": 1.0},
        {"phases": 2, "scheme": "orn", "theta_wc": 0.5,
         "sat_lo": 0.9, "sat_hi": 0.95},
    ],
    "design_scale.point": [
        {"k": 4, "nodes": 16, "method": "lp", "load": 1.0},
        {"k": 6, "nodes": 36, "method": "colgen", "load": 1.5},
    ],
}


class TestPointTables:
    @pytest.mark.parametrize("name", sorted(POINT_SPANS))
    def test_one_table_per_point_span(self, name):
        first, second = POINT_SPANS[name]
        # Listed out of order: rows must follow the spans' start times.
        events = SYNTHETIC + [
            _span(name, f"run/{name}", 0.25, second, t0=2.0),
            _span(name, f"run/{name}", 0.125, first, t0=1.0),
        ]
        report = aggregate(events)
        assert report.points[name] == [(first, 0.125), (second, 0.25)]

        lines = report.render().splitlines()
        title = lines.index(f"{name}:")
        header, row1, row2 = (lines[title + i].split() for i in (1, 2, 3))
        columns = list(dict.fromkeys([*first, *second]))
        assert header == columns + ["dur_s"]

        def cells(attrs, dur):
            return [
                f"{attrs[c]:.4g}" if isinstance(attrs.get(c), float)
                else str(attrs.get(c, "-"))
                for c in columns
            ] + [f"{dur:.4g}"]

        assert row1 == cells(first, 0.125)
        assert row2 == cells(second, 0.25)

    def test_each_point_name_gets_its_own_table(self):
        events = SYNTHETIC + [
            _span(name, f"run/{name}", 0.1, attrs)
            for name, spans in POINT_SPANS.items()
            for attrs in spans
        ]
        report = aggregate(events)
        assert list(report.points) == list(POINT_SPANS)
        lines = report.render().splitlines()
        for name in POINT_SPANS:
            assert lines.count(f"{name}:") == 1

    def test_names_without_point_suffix_get_no_table(self):
        events = SYNTHETIC + [
            _span("faults.sweep", "run/faults.sweep", 0.1, {"k": 4}),
            _span("pointy", "run/pointy", 0.1, {"k": 4}),
        ]
        assert aggregate(events).points == {}


class TestProfileTable:
    def test_folds_the_live_tracer_events(self):
        tracer = Tracer()
        assert profile_table(tracer) == "profile: no spans recorded"
        tracer.count("cache.hit")
        assert profile_table(tracer) == "profile: no spans recorded"
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        lines = profile_table(tracer, top=1).splitlines()
        assert lines[0] == "Profile (top 1 spans by total wall time):"
        assert lines[1].split()[0] == "path"
        assert [line.split()[0] for line in lines[2:]] == ["outer"]


class TestSortEvents:
    def test_orders_by_start_time_across_event_kinds(self):
        events = [
            {"ev": "span", "name": "late", "path": "late", "t0": 5.0,
             "dur": 0.1, "cpu": 0.1, "pid": 2, "attrs": {}},
            {"ev": "count", "name": "mid", "value": 1, "t": 3.0, "pid": 1},
            {"ev": "span", "name": "early", "path": "early", "t0": 1.0,
             "dur": 0.1, "cpu": 0.1, "pid": 1, "attrs": {}},
        ]
        assert [ev["name"] for ev in sort_events(events)] == [
            "early", "mid", "late"
        ]

    def test_untimed_events_sort_first_and_stay_stable(self):
        events = [
            {"ev": "count", "name": "a", "value": 1, "pid": 1},
            {"ev": "count", "name": "b", "value": 1, "pid": 1},
            {"ev": "gauge", "name": "timed", "value": 1.0, "t": 0.5, "pid": 1},
        ]
        assert [ev["name"] for ev in sort_events(events)] == [
            "a", "b", "timed"
        ]

    def test_aggregate_is_order_insensitive(self):
        shuffled = list(reversed(SYNTHETIC))
        assert aggregate(shuffled).render() == aggregate(SYNTHETIC).render()


class TestLoadTrace:
    def test_rejects_corrupt_line_with_lineno(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"ev": "count", "name": "c", "value": 1, "pid": 1})
            + "\n{truncated"
        )
        with pytest.raises(ValueError, match=r"t\.jsonl:2"):
            load_trace(str(path))

    def test_rejects_non_event_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"no_ev_key": true}\n')
        with pytest.raises(ValueError, match="not a trace event"):
            load_trace(str(path))

    def test_legacy_gauge_line_still_aggregates(self, tmp_path):
        # Traces written before the tracer dropped gauges hold "gauge"
        # events; they load, count as events and leave the tables alone.
        path = tmp_path / "t.jsonl"
        legacy = [
            _span("lp.solve", "lp.solve", 0.5, {"nnz": 120, "status": 0}),
            {"ev": "gauge", "name": "depth", "value": 4.0, "t": 0.1,
             "pid": 1},
            {"ev": "count", "name": "cache.hit", "value": 2, "t": 0.2,
             "pid": 1},
        ]
        path.write_text("".join(json.dumps(ev) + "\n" for ev in legacy))
        report = aggregate(load_trace(str(path)))
        assert report.num_events == 3 and report.num_spans == 1
        assert report.counters == {"cache.hit": 2}
        assert report.by_path["lp.solve"]["count"] == 1
        assert "Trace report: 3 events, 1 spans" in report.render()

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            "\n" + json.dumps({"ev": "gauge", "name": "g", "value": 1.0}) + "\n\n"
        )
        assert len(load_trace(str(path))) == 1


class TestObsReportCli:
    @pytest.fixture()
    def traced_fig6(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        trace = tmp_path / "t.jsonl"
        rc = main(["run", "fig6", "--k", "4", "--trace", str(trace)])
        assert rc == 0
        try:
            yield trace
        finally:
            obs.configure()

    def test_report_on_real_fig6_trace(self, traced_fig6, capsys):
        capsys.readouterr()  # drop the experiment's own output
        assert main(["obs-report", str(traced_fig6)]) == 0
        out = capsys.readouterr().out
        assert "Trace report:" in out
        assert "fig6/engine.run" in out
        assert "lp.solve" in out
        assert "LP size histogram (by nonzeros):" in out
        assert "Cache:" in out

    def test_report_missing_file_exits_2(self, capsys):
        assert main(["obs-report", "/nonexistent/trace.jsonl"]) == 2
        assert "error" in capsys.readouterr().err

    def test_report_corrupt_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["obs-report", str(path)]) == 2
        assert "not a JSON trace event" in capsys.readouterr().err
