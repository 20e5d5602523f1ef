"""Measurement hooks installed from outside the program.

Nothing here edits ``src/``: every hook replaces a public function or
method of the ``repro`` package with a timing wrapper for the duration
of a ``with`` block, then puts the original back.

* :class:`EndToEndHooks` is on in every run.  It times simulator kernel
  launches and saturation brackets and checks packet conservation on
  every kernel result; that is what ``sim_pkts_per_s`` and
  ``sat_bracket_s`` are computed from.
* :class:`LayerProbes` is on only in a traced run.  It opens a span (on
  the program's own tracer, so paths nest with the spans the program
  already emits) around each layer's entry points, and
  :func:`layer_metrics` folds those spans into the per-layer table.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

#: Spans re-published by the program with a synthetic duration (the
#: engine's per-task event, the per-replica share of a batch); they
#: duplicate time already covered by real spans, so aggregation skips them.
VIRTUAL_SPANS = ("engine.task", "sim.run")


class Patcher:
    """Replace attributes and restore them on :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def attr(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def everywhere(self, module, name: str, make_wrapper) -> None:
        """Wrap ``module.name`` in every loaded ``repro`` module that
        holds a reference to it (``from x import f`` copies the name)."""
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.attr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _import_layers() -> None:
    """Import every module a hook patches, so ``everywhere`` sees all
    the references before the first call."""
    import repro.experiments.engine  # noqa: F401
    import repro.experiments.faults  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.metrics  # noqa: F401
    import repro.sim  # noqa: F401
    import repro.verify.certificates  # noqa: F401
    import repro.verify.colgen  # noqa: F401


class EndToEndHooks:
    """Kernel and bracket timers plus the packet-conservation check.

    ``ledger`` receives one ``sim-conservation`` check per kernel launch
    and the ``bracket`` op-time samples; ``kernel_s`` and ``delivered``
    accumulate across the run.
    """

    def __init__(self, ledger, traced: bool = False) -> None:
        self.ledger = ledger
        self.traced = traced
        self.kernel_s = 0.0
        self.delivered = 0
        self._round = self._empty_round()

    @staticmethod
    def _empty_round() -> dict:
        return {"sim.launches": 0, "sim.replica_cycles": 0, "sim.queue_peak": 0}

    def take_round(self) -> dict:
        """Launch count, replica-cycles and deepest queue since the last call."""
        out, self._round = self._round, self._empty_round()
        return out

    @contextlib.contextmanager
    def installed(self):
        from repro import obs
        from repro.sim import measure, vectorized

        _import_layers()
        patch = Patcher()
        run_replicas = vectorized.VectorizedSimulator.run_replicas
        hooks = self

        signature = inspect.signature(run_replicas)

        @functools.wraps(run_replicas)
        def timed_run_replicas(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            work = len(bound.arguments["replicas"]) * int(bound.arguments["cycles"])
            span = obs.span("sim.kernel") if hooks.traced else contextlib.nullcontext()
            with span:
                t0 = time.perf_counter()
                results = run_replicas(*args, **kwargs)
                hooks.kernel_s += time.perf_counter() - t0
            hooks._observe(results, work)
            return results

        def make_bracket(original):
            @functools.wraps(original)
            def timed_bracket(*args, **kwargs):
                t0 = time.perf_counter()
                out = original(*args, **kwargs)
                hooks.ledger.sample("bracket", time.perf_counter() - t0)
                return out

            return timed_bracket

        patch.attr(vectorized.VectorizedSimulator, "run_replicas", timed_run_replicas)
        patch.everywhere(measure, "saturation_throughput", make_bracket)
        try:
            yield self
        finally:
            patch.restore()

    def _observe(self, results, replica_cycles: int) -> None:
        stats = self._round
        stats["sim.launches"] += 1
        stats["sim.replica_cycles"] += replica_cycles
        bad = []
        for r in results:
            self.delivered += int(r.delivered)
            stats["sim.queue_peak"] = max(stats["sim.queue_peak"], int(r.queue_peak))
            if r.injected != r.delivered + r.backlog + r.dropped + r.lost:
                bad.append(
                    f"injected {r.injected} != delivered {r.delivered} + "
                    f"backlog {r.backlog} + dropped {r.dropped} + lost {r.lost}"
                )
        self.ledger.check("sim-conservation", not bad, "; ".join(bad[:3]))


class LayerProbes:
    """Spans around each layer's public entry points (traced runs only).

    Counts that have no natural span (assignment solves, colgen
    iterations, failed verification checks) go to :attr:`counts`.
    """

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        self.counts.clear()

    @contextlib.contextmanager
    def installed(self):
        from repro import obs
        from repro.cache import DesignCache
        from repro.core import average_case, worst_case
        from repro.faults import model as fault_model
        from repro.faults import reroute
        from repro.metrics import summary, worst_case_eval
        from repro.routing import base, twoturn
        from repro.verify import certificates, colgen

        _import_layers()
        counts = self.counts
        patch = Patcher()

        def spanned(span_name, after=None):
            def make(original):
                @functools.wraps(original)
                def wrapper(*args, **kwargs):
                    with obs.span(span_name):
                        out = original(*args, **kwargs)
                        if after is not None:
                            after(out)
                    return out

                return wrapper

            return make

        def design_done(design):
            stats = getattr(design, "colgen", None)
            if stats is not None:
                counts["colgen.iterations"] += stats.iterations + stats.stage2_iterations
                counts["colgen.rows_generated"] += stats.rows_generated

        def report_done(report):
            # A cached colgen design's recheck already folds in the
            # certify_colgen_design checks it ran; count those once.
            if "verify.recheck_call" not in obs.current_path().split("/")[:-1]:
                counts["verify.failed_checks"] += sum(
                    not c.passed for c in report.checks
                )

        for module, name in (
            (worst_case, "design_worst_case"),
            (average_case, "design_average_case"),
            (twoturn, "design_2turn"),
            (twoturn, "design_2turn_average"),
        ):
            patch.everywhere(module, name, spanned("core.design", design_done))
        patch.everywhere(certificates, "certify_solution", spanned("verify.certify"))
        patch.everywhere(certificates, "recheck_cached_doc", spanned("verify.recheck_call", report_done))
        patch.everywhere(colgen, "certify_colgen_design", spanned("verify.colgen_call", report_done))
        patch.everywhere(worst_case_eval, "worst_case_load", spanned("metrics.wc_eval"))
        patch.everywhere(worst_case_eval, "general_worst_case_load", spanned("metrics.wc_eval"))
        patch.everywhere(worst_case_eval, "separate_worst_case", spanned("metrics.separate"))
        patch.everywhere(summary, "average_case_load", spanned("metrics.avg_eval"))
        patch.everywhere(fault_model, "degrade", spanned("faults.degrade"))
        patch.everywhere(reroute, "degrade_routing", spanned("faults.degrade"))

        assignment = worst_case_eval.linear_sum_assignment

        def counted_assignment(*args, **kwargs):
            counts["metrics.assignments"] += 1
            return assignment(*args, **kwargs)

        patch.attr(worst_case_eval, "linear_sum_assignment", counted_assignment)
        for owner, name, span_name in (
            (DesignCache, "get", "cache.get"),
            (DesignCache, "put", "cache.put"),
            (base.ObliviousRouting, "full_flows", "routing.full_flows"),
            (reroute.DegradedRouting, "full_flows", "routing.full_flows"),
        ):
            patch.attr(owner, name, spanned(span_name)(getattr(owner, name)))
        try:
            yield self
        finally:
            patch.restore()


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
#: Per-layer metrics of a traced run, in print order: name, unit, better
#: direction.
LAYER_METRICS = (
    ("lp.solves", "count", "lower"),
    ("lp.iterations", "count", "lower"),
    ("lp.nnz", "count", "lower"),
    ("lp.solve_s", "s", "lower"),
    ("core.build_s", "s", "lower"),
    ("colgen.iterations", "count", "lower"),
    ("colgen.rows_generated", "count", "lower"),
    ("colgen.master_s", "s", "lower"),
    ("colgen.oracle_s", "s", "lower"),
    ("colgen.oracle_calls", "count", "lower"),
    ("metrics.wc_eval_s", "s", "lower"),
    ("metrics.avg_eval_s", "s", "lower"),
    ("metrics.assignments", "count", "lower"),
    ("verify.certify_s", "s", "lower"),
    ("verify.recheck_s", "s", "lower"),
    ("verify.colgen_cert_s", "s", "lower"),
    ("verify.failed_checks", "count", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.bytes", "B", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("engine.overhead_s", "s", "lower"),
    ("sim.compile_s", "s", "lower"),
    ("sim.compiled_paths", "count", "lower"),
    ("sim.launches", "count", "lower"),
    ("sim.replica_cycles", "count", "lower"),
    ("sim.kernel_s", "s", "lower"),
    ("sim.prober_s", "s", "lower"),
    ("sim.queue_peak", "count", "lower"),
    ("faults.degrade_s", "s", "lower"),
    ("faults.cases", "count", "lower"),
    ("routing.full_flows_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _real_spans(events):
    return [
        ev
        for ev in events
        if ev.get("ev") == "span" and ev["name"] not in VIRTUAL_SPANS
    ]


def _outermost(spans, name):
    """Spans called ``name`` that are not nested in another one."""
    return [
        ev
        for ev in spans
        if ev["name"] == name and name not in ev["path"].split("/")[:-1]
    ]


def _inside(spans, name, ancestor):
    """Outermost ``name`` spans nested somewhere under an ``ancestor`` span."""
    return [
        ev
        for ev in _outermost(spans, name)
        if ancestor in ev["path"].split("/")[:-1]
    ]


def _total(spans) -> float:
    return float(sum(ev["dur"] for ev in spans))


def layer_metrics(events, counters: dict, probe_counts: dict, sim_round: dict) -> dict:
    """Per-layer values of one traced round.

    ``events``/``counters`` come from the program's tracer, ``probe_counts``
    from :class:`LayerProbes` and ``sim_round`` from
    :meth:`EndToEndHooks.take_round`.
    A layer's time that contains other layers' calls is reported as its
    own share: the wrapped call's time minus the nested calls into the
    other layers.
    """
    spans = _real_spans(events)
    lp = _outermost(spans, "lp.solve")
    design = _outermost(spans, "core.design")
    nested_in_design = sum(
        _total(_inside(spans, name, "core.design"))
        for name in ("lp.solve", "verify.certify", "metrics.separate", "metrics.wc_eval")
    )
    saturation = _outermost(spans, "sim.saturation")
    engine_runs = _outermost(spans, "engine.run")
    nested_in_engine = sum(
        _total(_inside(spans, name, "engine.run"))
        for name in ("engine.solve_task", "cache.get", "cache.put", "verify.recheck")
    )
    return {
        "lp.solves": len(lp),
        "lp.iterations": sum(int(ev["attrs"].get("iterations", 0)) for ev in lp),
        "lp.nnz": sum(int(ev["attrs"].get("nnz", 0)) for ev in lp),
        "lp.solve_s": _total(lp),
        "core.build_s": _total(design) - nested_in_design,
        "colgen.iterations": probe_counts.get("colgen.iterations", 0),
        "colgen.rows_generated": probe_counts.get("colgen.rows_generated", 0),
        "colgen.master_s": _total(
            [ev for ev in lp if "colgen_stage" in ev["attrs"]]
        ),
        "colgen.oracle_s": _total(_inside(spans, "metrics.separate", "core.design")),
        "colgen.oracle_calls": len(_inside(spans, "metrics.separate", "core.design")),
        "metrics.wc_eval_s": _total(_outermost(spans, "metrics.wc_eval")),
        "metrics.avg_eval_s": _total(_outermost(spans, "metrics.avg_eval")),
        "metrics.assignments": probe_counts.get("metrics.assignments", 0),
        "verify.certify_s": _total(_outermost(spans, "verify.certify")),
        "verify.recheck_s": _total(_outermost(spans, "verify.recheck")),
        "verify.colgen_cert_s": _total(_outermost(spans, "verify.colgen")),
        "verify.failed_checks": probe_counts.get("verify.failed_checks", 0),
        "cache.hits": counters.get("cache.hit", 0),
        "cache.misses": counters.get("cache.miss", 0),
        "cache.bytes": counters.get("cache.bytes_read", 0)
        + counters.get("cache.bytes_written", 0),
        "cache.get_s": _total(_outermost(spans, "cache.get")),
        "cache.put_s": _total(_outermost(spans, "cache.put")),
        "engine.overhead_s": _total(engine_runs) - nested_in_engine,
        "sim.compile_s": _total(_outermost(spans, "sim.compile")),
        "sim.compiled_paths": sum(
            int(ev["attrs"].get("paths", 0))
            for ev in _outermost(spans, "sim.compile")
        ),
        "sim.launches": sim_round["sim.launches"],
        "sim.replica_cycles": sim_round["sim.replica_cycles"],
        "sim.kernel_s": _total(_outermost(spans, "sim.kernel")),
        "sim.prober_s": _total(saturation)
        - _total(_inside(spans, "sim.kernel", "sim.saturation"))
        - _total(_inside(spans, "sim.compile", "sim.saturation")),
        "sim.queue_peak": sim_round["sim.queue_peak"],
        "faults.degrade_s": _total(_outermost(spans, "faults.degrade")),
        "faults.cases": len(_outermost(spans, "faults.case")),
        "routing.full_flows_s": _total(_outermost(spans, "routing.full_flows")),
    }


def collapsed_stacks(events) -> dict[str, float]:
    """Self time in seconds per span path, keyed ``a;b;c`` (the
    collapsed-stack format flame-graph tools read)."""
    totals: dict[str, float] = defaultdict(float)
    for ev in _real_spans(events):
        totals[ev["path"]] += ev["dur"]
    self_time = dict(totals)
    for path, dur in totals.items():
        parent = path.rpartition("/")[0]
        if parent in self_time:
            self_time[parent] -= dur
    return {
        path.replace("/", ";"): max(0.0, dur) for path, dur in self_time.items()
    }
