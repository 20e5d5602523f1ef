"""Tests for the tracing core: spans, counters, JSONL sink."""

import json

import pytest

from repro import obs
from repro.obs.report import aggregate
from repro.obs.trace import Tracer


@pytest.fixture()
def tracer():
    return Tracer()


class TestSpans:
    def test_nesting_builds_paths(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        paths = [ev["path"] for ev in tracer.events]
        assert paths == ["outer/inner", "outer/inner", "outer"]

    def test_timing_monotonicity(self, tracer):
        with tracer.span("parent"):
            with tracer.span("child"):
                sum(range(10_000))
        child, parent = tracer.events
        assert child["name"] == "child" and parent["name"] == "parent"
        assert 0.0 <= child["dur"] <= parent["dur"]
        assert child["t0"] >= parent["t0"]
        assert child["cpu"] >= 0.0 and parent["cpu"] >= 0.0

    def test_attrs_and_late_set(self, tracer):
        with tracer.span("s", a=1) as sp:
            sp.set(b="two")
        (ev,) = tracer.events
        assert ev["attrs"] == {"a": 1, "b": "two"}

    def test_exception_annotated_and_propagated(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (ev,) = tracer.events
        assert ev["attrs"]["error"] == "RuntimeError"

    def test_aggregates(self, tracer):
        for _ in range(3):
            with tracer.span("s"):
                pass
        agg = aggregate(tracer.events).by_path["s"]
        assert agg["count"] == 3
        assert agg["total"] >= agg["max"] >= 0.0

    def test_emit_span_lands_under_current_path(self, tracer):
        with tracer.span("outer"):
            tracer.emit_span("synthetic", dur=1.25, attrs={"k": 1})
        synth = tracer.events[0]
        assert synth["path"] == "outer/synthetic"
        assert synth["dur"] == 1.25


class TestCounters:
    def test_counters_accumulate(self, tracer):
        tracer.count("hits")
        tracer.count("hits", 4)
        assert tracer.counters["hits"] == 5
        assert [ev["ev"] for ev in tracer.events] == ["count", "count"]
        assert aggregate(tracer.events).counters == {"hits": 5}


class TestDisabled:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("s", a=1) as sp:
            sp.set(b=2)
        tracer.count("c")
        assert tracer.events == []
        assert tracer.counters == {}
        report = aggregate(tracer.events)
        assert report.num_events == 0 and report.by_path == {}


class TestIngest:
    def test_ingest_rebases_span_paths(self, tracer):
        shipped = [
            {"ev": "span", "name": "lp.solve", "path": "task/lp.solve",
             "t0": 0.0, "dur": 0.1, "cpu": 0.1, "pid": 99, "attrs": {}},
            {"ev": "count", "name": "n", "value": 2, "pid": 99},
        ]
        with tracer.span("fig"):
            tracer.ingest(shipped)
        span_ev = tracer.events[0]
        assert span_ev["path"] == "fig/task/lp.solve"
        assert tracer.counters["n"] == 2

    def test_ingest_at_top_level_keeps_paths(self, tracer):
        tracer.ingest(
            [{"ev": "span", "name": "s", "path": "a/s", "t0": 0, "dur": 0,
              "cpu": 0, "pid": 1, "attrs": {}}]
        )
        assert tracer.events[0]["path"] == "a/s"


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(trace_path=str(path))
        with tracer.span("outer", k=4):
            with tracer.span("inner"):
                tracer.count("hits", 2)
        tracer.close()

        loaded = obs.load_trace(str(path))
        assert loaded == tracer.events
        from_file, in_memory = aggregate(loaded), aggregate(tracer.events)
        assert from_file.by_path == in_memory.by_path
        assert set(from_file.by_path) == {"outer", "outer/inner"}
        assert from_file.counters == in_memory.counters == {"hits": 2}
        # every line is strict JSON
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_no_sink_no_file(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.close()
        assert list(tmp_path.iterdir()) == []

    def test_append_across_tracers(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for _ in range(2):
            tracer = Tracer(trace_path=str(path))
            with tracer.span("s"):
                pass
            tracer.close()
        assert len(obs.load_trace(str(path))) == 2


class TestGlobalApi:
    def test_configure_swaps_tracer(self):
        old = obs.get_tracer()
        new = obs.configure()
        try:
            assert new is obs.get_tracer() and new is not old
            with obs.span("s"):
                obs.count("c")
            assert [ev["ev"] for ev in new.events] == ["count", "span"]
        finally:
            obs.configure()

    def test_module_level_helpers_delegate(self):
        tracer = obs.configure()
        try:
            obs.count("c", 3)
            assert tracer.counters["c"] == 3
        finally:
            obs.configure()
