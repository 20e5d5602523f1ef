"""Trace aggregation: ``obs-report`` and the ``--profile`` exit table.

Reads the JSONL event stream written by :mod:`repro.obs.trace` and
renders the questions the trace exists to answer: where did the time
go (span table), what did the solver do (LP size histogram, statuses,
iterations), did the cache help (hit rate, bytes), and what did the
simulator measure per rate point.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Iterable, Sequence

from repro.obs.trace import Tracer


def load_trace(path: str) -> list[dict]:
    """Parse a JSONL trace file into its event dicts.

    Raises ``ValueError`` (with the line number) on a malformed line —
    a truncated final line from a killed run is the common case.
    """
    events = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a JSON trace event: {exc}"
                ) from exc
            if not isinstance(ev, dict) or "ev" not in ev:
                raise ValueError(f"{path}:{lineno}: not a trace event")
            events.append(ev)
    return events


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    raise AssertionError("unreachable")


def _table(headers: Sequence[str], rows: Sequence[Sequence]) -> list[str]:
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = ["  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in cells:
        lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return lines


@dataclasses.dataclass
class TraceReport:
    """Aggregated view of one trace (see :func:`aggregate`)."""

    num_events: int
    num_spans: int
    pids: set[int]
    #: span path -> {count, total, cpu, max}
    span_agg: dict[str, dict[str, float]]
    counters: dict[str, float]
    gauges: dict[str, dict[str, float]]
    #: lp.solve span attrs (rows/cols/nnz/status/iterations/...), in order
    lp_solves: list[dict]
    #: sim span attrs keyed by injection rate, in order
    sim_runs: list[dict]
    #: faults.case span attrs (failures/algorithm/theta_wc/sat), in order
    fault_cases: list[dict] = dataclasses.field(default_factory=list)
    #: topo3d.point span attrs (topology/k/bz) plus span duration, in order
    topo3d_points: list[dict] = dataclasses.field(default_factory=list)
    #: rotor.point span attrs (phases/scheme/theta_wc/sat), in order
    rotor_points: list[dict] = dataclasses.field(default_factory=list)
    #: engine.task span attrs of tasks that raised (label/kind/error)
    failed_tasks: list[dict] = dataclasses.field(default_factory=list)

    # -- sections -------------------------------------------------------
    def span_rows(self, top: int | None = None) -> list[tuple]:
        """(path, count, total s, mean s, max s, cpu s) by total desc."""
        items = sorted(
            self.span_agg.items(), key=lambda kv: -kv[1]["total"]
        )
        if top is not None:
            items = items[:top]
        return [
            (
                path,
                int(agg["count"]),
                round(agg["total"], 4),
                round(agg["total"] / agg["count"], 4),
                round(agg["max"], 4),
                round(agg["cpu"], 4),
            )
            for path, agg in items
        ]

    def lp_size_histogram(self) -> dict[str, int]:
        """Solve counts bucketed by decade of LP nonzeros."""
        hist: dict[str, int] = {}
        for solve in self.lp_solves:
            nnz = int(solve.get("nnz", 0))
            if nnz <= 0:
                bucket = "0"
            else:
                lo = 10 ** int(math.log10(nnz))
                bucket = f"[{lo:g}, {lo * 10:g})"
            hist[bucket] = hist.get(bucket, 0) + 1
        return hist

    def cache_stats(self) -> dict[str, float]:
        hits = self.counters.get("cache.hit", 0)
        misses = self.counters.get("cache.miss", 0)
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else float("nan"),
            "bytes_read": self.counters.get("cache.bytes_read", 0),
            "bytes_written": self.counters.get("cache.bytes_written", 0),
        }

    # -- rendering ------------------------------------------------------
    def render(self, top: int = 15) -> str:
        lines = [
            f"Trace report: {self.num_events} events, {self.num_spans} "
            f"spans, {len(self.pids)} process"
            f"{'es' if len(self.pids) != 1 else ''}"
        ]

        lines.append("")
        lines.append(f"Time by span (top {top} by total wall time):")
        lines += _table(
            ["path", "count", "total_s", "mean_s", "max_s", "cpu_s"],
            self.span_rows(top),
        )

        if self.lp_solves:
            statuses: dict[int, int] = {}
            iters = 0
            for s in self.lp_solves:
                statuses[int(s.get("status", -1))] = (
                    statuses.get(int(s.get("status", -1)), 0) + 1
                )
                iters += int(s.get("iterations", 0))
            lines.append("")
            lines.append(
                f"LP solves: {len(self.lp_solves)} "
                f"({iters} simplex/IPM iterations; statuses "
                + ", ".join(f"{k}:{v}" for k, v in sorted(statuses.items()))
                + ")"
            )
            lines.append("LP size histogram (by nonzeros):")
            hist = self.lp_size_histogram()
            lines += _table(
                ["nnz bucket", "solves"],
                sorted(hist.items(), key=lambda kv: len(kv[0])),
            )

        cache = self.cache_stats()
        if cache["hits"] or cache["misses"]:
            lines.append("")
            lines.append(
                f"Cache: {int(cache['hits'])} hits / "
                f"{int(cache['misses'])} misses "
                f"({cache['hit_rate']:.0%} hit rate), "
                f"{_fmt_bytes(cache['bytes_read'])} read, "
                f"{_fmt_bytes(cache['bytes_written'])} written"
            )

        if self.sim_runs:
            lines.append("")
            lines.append("Simulation (per rate point):")
            lines += _table(
                [
                    "rate",
                    "runs",
                    "cycles",
                    "delivered",
                    "accepted",
                    "mean_lat",
                    "p99_lat",
                    "q_peak",
                ],
                _sim_rows(self.sim_runs),
            )

        if self.fault_cases:
            lines.append("")
            lines.append("Fault sweep (per failure count and algorithm):")
            lines += _table(
                ["failures", "algorithm", "reroute", "Theta_wc", "sat_lo", "sat_hi"],
                _fault_rows(self.fault_cases),
            )

        if self.topo3d_points:
            lines.append("")
            lines.append("3-D topology sweep (per bandwidth point):")
            lines += _table(
                ["topology", "k", "bz", "points", "total_s"],
                _topo3d_rows(self.topo3d_points),
            )

        if self.rotor_points:
            lines.append("")
            lines.append("Rotor sweep (per phase count and scheme):")
            lines += _table(
                ["phases", "scheme", "Theta_wc", "sat_lo", "sat_hi"],
                _rotor_rows(self.rotor_points),
            )

        if self.failed_tasks:
            lines.append("")
            lines.append(f"Failed tasks: {len(self.failed_tasks)}")
            lines += _table(
                ["label", "kind", "error"],
                [
                    (t.get("label"), t.get("kind"), t["error"])
                    for t in self.failed_tasks
                ],
            )

        return "\n".join(lines)


def _sim_rows(sim_runs: Iterable[dict]) -> list[tuple]:
    by_rate: dict[float, dict[str, float]] = {}
    for run in sim_runs:
        rate = round(float(run.get("rate", float("nan"))), 6)
        row = by_rate.setdefault(
            rate,
            {
                "runs": 0,
                "cycles": 0,
                "delivered": 0,
                "accepted": 0.0,
                "lat_sum": 0.0,
                "lat_runs": 0,
                "p99": 0.0,
                "qp": 0,
            },
        )
        row["runs"] += 1
        row["cycles"] += int(run.get("cycles", 0))
        row["delivered"] += int(run.get("delivered", 0))
        row["accepted"] += float(run.get("accepted_rate", 0.0))
        # Runs that delivered nothing in the measurement window carry no
        # latency attrs (NaN is not valid JSON); they still get a row.
        if "mean_latency" in run:
            row["lat_sum"] += float(run["mean_latency"])
            row["lat_runs"] += 1
            row["p99"] = max(row["p99"], float(run.get("p99_latency", 0.0)))
        row["qp"] = max(row["qp"], int(run.get("queue_peak", 0)))
    return [
        (
            f"{rate:.4f}",
            int(row["runs"]),
            int(row["cycles"]),
            int(row["delivered"]),
            f"{row['accepted'] / row['runs']:.4f}",
            f"{row['lat_sum'] / row['lat_runs']:.2f}" if row["lat_runs"] else "-",
            f"{row['p99']:.1f}" if row["lat_runs"] else "-",
            int(row["qp"]),
        )
        for rate, row in sorted(by_rate.items())
    ]


def _fault_rows(fault_cases: Iterable[dict]) -> list[tuple]:
    rows = []
    for case in fault_cases:
        disconnected = bool(case.get("disconnected"))
        theta = float(case.get("theta_wc", 0.0))
        rows.append(
            (
                int(case.get("failures", 0)),
                str(case.get("algorithm", "?")),
                str(case.get("reroute", "?")),
                "disc." if disconnected else f"{theta:.4f}",
                f"{float(case.get('sat_lo', 0.0)):.4f}",
                f"{float(case.get('sat_hi', 0.0)):.4f}",
            )
        )
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def _topo3d_rows(points: Iterable[dict]) -> list[tuple]:
    by_point: dict[tuple, dict[str, float]] = {}
    for p in points:
        # Torus points carry (k, dims, bz); the general modes name their
        # topology explicitly.
        topology = str(p.get("topology", f"torus{p.get('dims', '?')}d"))
        key = (topology, int(p.get("k", 0)), float(p.get("bz", 0.0)))
        row = by_point.setdefault(key, {"points": 0, "total": 0.0})
        row["points"] += 1
        row["total"] += float(p.get("dur", 0.0))
    return [
        (topology, k, f"{bz:g}", int(row["points"]), f"{row['total']:.3f}")
        for (topology, k, bz), row in sorted(by_point.items())
    ]


def _rotor_rows(points: Iterable[dict]) -> list[tuple]:
    rows = []
    for p in points:
        rows.append(
            (
                int(p.get("phases", 0)),
                str(p.get("scheme", "?")),
                f"{float(p.get('theta_wc', 0.0)):.4f}",
                f"{float(p.get('sat_lo', 0.0)):.4f}",
                f"{float(p.get('sat_hi', 0.0)):.4f}",
            )
        )
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def sort_events(events: Iterable[dict]) -> list[dict]:
    """Stable timestamp sort: the deterministic aggregation order.

    Span events carry their start time as ``t0``, count/gauge events an
    emission time ``t``.  Under ``--jobs N`` workers append to the trace
    in completion order, so two runs of one workload interleave
    differently; sorting by timestamp (stable, so same-timestamp events
    keep file order) makes ``obs-report`` render both identically.
    """
    neg_inf = float("-inf")
    return sorted(
        events, key=lambda ev: float(ev.get("t0", ev.get("t", neg_inf)))
    )


#: Span names whose attrs describe one simulator run.
_SIM_SPANS = ("sim.run", "sim.adaptive")


def aggregate(events: Iterable[dict]) -> TraceReport:
    """Fold a trace's events into a :class:`TraceReport`.

    Events are first ordered by timestamp (:func:`sort_events`), so a
    ``--jobs N`` trace renders the same report regardless of worker
    completion order.
    """
    events = sort_events(events)
    report = TraceReport(
        num_events=0,
        num_spans=0,
        pids=set(),
        span_agg={},
        counters={},
        gauges={},
        lp_solves=[],
        sim_runs=[],
    )
    for ev in events:
        report.num_events += 1
        if "pid" in ev:
            report.pids.add(int(ev["pid"]))
        kind = ev.get("ev")
        if kind == "span":
            report.num_spans += 1
            agg = report.span_agg.setdefault(
                ev["path"], {"count": 0, "total": 0.0, "cpu": 0.0, "max": 0.0}
            )
            agg["count"] += 1
            agg["total"] += float(ev.get("dur", 0.0))
            agg["cpu"] += float(ev.get("cpu", 0.0))
            agg["max"] = max(agg["max"], float(ev.get("dur", 0.0)))
            if ev.get("name") == "lp.solve":
                report.lp_solves.append(dict(ev.get("attrs", {})))
            elif ev.get("name") in _SIM_SPANS:
                report.sim_runs.append(dict(ev.get("attrs", {})))
            elif ev.get("name") == "faults.case":
                report.fault_cases.append(dict(ev.get("attrs", {})))
            elif ev.get("name") == "topo3d.point":
                report.topo3d_points.append(
                    {**ev.get("attrs", {}), "dur": float(ev.get("dur", 0.0))}
                )
            elif ev.get("name") == "rotor.point":
                report.rotor_points.append(dict(ev.get("attrs", {})))
            elif ev.get("name") == "engine.task" and "error" in ev.get("attrs", {}):
                report.failed_tasks.append(dict(ev["attrs"]))
        elif kind == "count":
            report.counters[ev["name"]] = (
                report.counters.get(ev["name"], 0) + ev["value"]
            )
        elif kind == "gauge":
            g = report.gauges.setdefault(
                ev["name"],
                {"last": ev["value"], "min": ev["value"], "max": ev["value"]},
            )
            g["last"] = ev["value"]
            g["min"] = min(g["min"], ev["value"])
            g["max"] = max(g["max"], ev["value"])
    return report


def report_from_file(path: str) -> TraceReport:
    """Convenience: :func:`load_trace` + :func:`aggregate`."""
    return aggregate(load_trace(path))


def profile_table(tracer: Tracer, top: int = 10) -> str:
    """Top-``top`` spans of a live tracer, for ``--profile`` at exit."""
    if not tracer.span_agg:
        return "profile: no spans recorded"
    report = aggregate(tracer.events)
    lines = [f"Profile (top {top} spans by total wall time):"]
    lines += _table(
        ["path", "count", "total_s", "mean_s", "max_s", "cpu_s"],
        report.span_rows(top),
    )
    return "\n".join(lines)
