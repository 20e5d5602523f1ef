"""Parallel experiment execution engine with a persistent design cache.

Every figure is a sweep of *independent* LP designs (one per curve
point, plus the 2TURN family) or exact worst-case evaluations (degraded
and rotor networks).  Each is a self-contained :class:`DesignTask` whose
``kind`` names one row of :data:`KINDS`, the handler table holding
everything kind-specific: validation, extra cache-key fields, the solve
and the recheck of a cached entry.  Tasks are pure functions of their
fields, so workers share no state and serial, pooled and cached results
are bit-identical.

Outstanding tasks run in-process (``jobs=1``) or on a
``ProcessPoolExecutor`` (``--jobs`` / ``$REPRO_JOBS``, default CPU
count) through one completion loop that writes each result to the
:class:`repro.cache.DesignCache` as it lands: no identical LP is solved
twice, across figures, test sessions and reruns after a failure.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import importlib
import json
import os
import time
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.cache import DesignCache, cache_key, sample_digest

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Named algorithms a ``fault_wc`` task can degrade.
FAULT_ALGORITHMS = ("DOR", "VAL", "IVAL", "2TURN")

#: Oblivious schemes a ``rotor_wc`` task can evaluate.
ROTOR_SCHEMES = ("VLBR", "ORN")


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit argument, ``$REPRO_JOBS``, or CPU count."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        jobs = int(env) if env else (os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return int(jobs)


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """``fault_wc``: ``algorithm`` (one of :data:`FAULT_ALGORITHMS`) on
    the torus with the failed ``channels``, rerouted under ``reroute``."""

    algorithm: str
    channels: tuple = ()
    reroute: str = "detour"

    def __post_init__(self):
        if self.algorithm not in FAULT_ALGORITHMS:
            raise ValueError(
                f"fault_wc task needs algorithm from {FAULT_ALGORITHMS}, "
                f"got {self.algorithm!r}"
            )
        if self.reroute not in ("renormalize", "detour"):
            raise ValueError(
                f"unknown reroute mode {self.reroute!r} for fault_wc task"
            )
        object.__setattr__(
            self, "channels", tuple(sorted({int(c) for c in self.channels}))
        )

    def key_fields(self, k: int) -> dict:
        from repro.faults import FaultSet

        return {
            "algorithm": self.algorithm,
            "faults": FaultSet(channels=self.channels).digest(),
            "reroute": self.reroute,
        }


@dataclasses.dataclass(frozen=True)
class RotorSpec:
    """``rotor_wc``: ``scheme`` (one of :data:`ROTOR_SCHEMES`) on the
    round-robin rotor schedule with ``phases`` phases of
    ``phase_length`` cycles."""

    scheme: str
    phases: int
    phase_length: int = 1

    def __post_init__(self):
        if self.scheme not in ROTOR_SCHEMES:
            raise ValueError(
                f"rotor_wc task needs a scheme from {ROTOR_SCHEMES}, "
                f"got {self.scheme!r}"
            )
        if self.phases < 1:
            raise ValueError("rotor_wc task needs phases >= 1")
        if self.phase_length < 1:
            raise ValueError("rotor_wc task needs phase_length >= 1")

    def schedule(self, k: int):
        """The round-robin schedule this spec names, over ``k**2`` nodes."""
        from repro.rotor import RotorSchedule

        return RotorSchedule.round_robin(
            k**2, self.phases, phase_length=self.phase_length
        )

    def key_fields(self, k: int) -> dict:
        return {"scheme": self.scheme, "schedule": self.schedule(k).digest()}


@dataclasses.dataclass(frozen=True, eq=False)
class DesignTask:
    """One independent routing-design LP or worst-case evaluation.

    ``ratio`` pins the average path length as a multiple of minimal;
    ``sample`` is the design traffic sample of average-case kinds
    (hashed into the cache key); ``label`` is display-only and never
    keyed; ``bandwidths`` are per-dimension (empty: uniform).  ``spec``
    holds what only one kind needs (:class:`FaultSpec`,
    :class:`RotorSpec`).

    ``method`` picks the worst-case LP formulation (``"auto"`` switches
    to column generation above the radix threshold).  Only a *resolved*
    ``"colgen"`` enters the key: ``"full"`` and an ``"auto"`` that
    resolves to it solve the identical model and share entries, while
    lazy-row solves, exact only to the separation tolerance, do not.
    """

    kind: str
    k: int
    n: int = 2
    ratio: float | None = None
    sense: str = "<="
    sample: tuple = ()
    label: str = ""
    bandwidths: tuple = ()
    method: str = "auto"
    spec: FaultSpec | RotorSpec | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown task kind {self.kind!r}; choose from {tuple(KINDS)}"
            )
        KINDS[self.kind].validate(self)
        object.__setattr__(self, "sample", tuple(self.sample))
        bandwidths = tuple(float(b) for b in self.bandwidths)
        if bandwidths and len(bandwidths) != self.n:
            raise ValueError(
                f"bandwidths must have one entry per dimension "
                f"(expected {self.n}, got {len(bandwidths)})"
            )
        if bandwidths and all(b == 1.0 for b in bandwidths):
            bandwidths = ()  # uniform unit bandwidth is the default key
        object.__setattr__(self, "bandwidths", bandwidths)

    def cache_payload(self) -> dict:
        """The cache-key description of this task (see DESIGN.md)."""
        payload = {
            "kind": self.kind,
            "k": int(self.k),
            "n": int(self.n),
            "ratio": None if self.ratio is None else float(self.ratio),
            "sense": self.sense,
        }
        if self.bandwidths:
            payload["bandwidths"] = [float(b) for b in self.bandwidths]
        if self.sample:
            payload["sample"] = sample_digest(self.sample)
        payload.update(KINDS[self.kind].key_fields(self))
        return payload


@dataclasses.dataclass(frozen=True)
class TaskKind:
    """One row of :data:`KINDS`: everything kind-specific about a task.

    ``solve(task)`` returns ``(load, avg_path_length, model_stats, doc
    fields)``; ``recheck(doc, tol, subject)`` returns the checks that
    re-certify a cached entry without re-solving it
    (:func:`repro.verify.certificates.recheck_cached_doc` adds the LP
    certificate checks every kind shares).
    """

    solve: Callable
    recheck: Callable
    needs_ratio: bool = False
    needs_sample: bool = False
    #: takes a worst-case ``method``; a resolved colgen enters the key
    takes_method: bool = False
    #: the spec class its tasks carry (``None``: no spec)
    spec: type | None = None

    def validate(self, task: DesignTask) -> None:
        from repro.core.worst_case import resolve_design_method

        if self.needs_ratio and task.ratio is None:
            raise ValueError(f"{task.kind} task needs a locality ratio")
        if self.needs_sample and not task.sample:
            raise ValueError(f"{task.kind} task needs a traffic sample")
        if self.takes_method:
            resolve_design_method(task.method, task.k**task.n)  # validates
        elif task.method != "auto":
            raise ValueError(
                f"method={task.method!r} applies to worst-case designs, "
                f"not {task.kind!r}"
            )
        if not isinstance(task.spec, self.spec or type(None)):
            raise ValueError(
                f"{task.kind} task needs spec of type "
                f"{(self.spec or type(None)).__name__}, got {task.spec!r}"
            )

    def key_fields(self, task: DesignTask) -> dict:
        """Cache-key fields beyond the ones every task has."""
        from repro.core.worst_case import resolve_design_method

        fields = {}
        n = task.k**task.n
        if self.takes_method and resolve_design_method(task.method, n) == "colgen":
            fields["method"] = "colgen"
        if task.spec is not None:
            fields.update(task.spec.key_fields(int(task.k)))
        return fields


@dataclasses.dataclass(frozen=True)
class TaskMetrics:
    """Structured per-task run record (CLI ``--metrics`` rows)."""

    label: str
    kind: str
    k: int
    n: int
    ratio: float | None
    cache_hit: bool
    solve_time: float
    variables: int
    rows: int
    nonzeros: int

    CSV_HEADERS = (
        "label", "kind", "k", "n", "ratio", "cache_hit",
        "solve_time_s", "lp_variables", "lp_rows", "lp_nonzeros",
    )  # fmt: skip

    def row(self) -> tuple:
        """CSV cells: a blank ratio when unset, ``cache_hit`` as 0/1."""
        ratio = "" if self.ratio is None else self.ratio
        cells = dataclasses.astuple(self)
        return (*cells[:4], ratio, int(self.cache_hit), *cells[6:])


@dataclasses.dataclass
class TaskResult:
    """A solved (or cache-loaded) design task."""

    task: DesignTask
    load: float
    avg_path_length: float
    model_stats: dict
    solve_time: float
    cache_hit: bool
    doc: dict
    #: worker resource delta (rss_peak_kb/user_cpu_s/sys_cpu_s) for fresh
    #: solves; ``None`` on cache hits (nothing ran).
    resources: dict | None = None

    @property
    def flows(self) -> np.ndarray:
        """Canonical ``(N, C)`` flow table (flow-LP kinds only)."""
        from repro.routing.serialize import flows_from_doc

        return flows_from_doc(self.doc["flows"])

    def routing(self, torus=None):
        """Materialized routing table (path-LP kinds only)."""
        from repro.routing.serialize import routing_from_doc

        return routing_from_doc(self.doc["routing"], torus)

    def metrics(self) -> TaskMetrics:
        stats = self.model_stats or {}
        return TaskMetrics(
            label=self.task.label or self.task.kind,
            kind=self.task.kind,
            k=self.task.k,
            n=self.task.n,
            ratio=self.task.ratio,
            cache_hit=self.cache_hit,
            solve_time=self.solve_time,
            variables=int(stats.get("variables", 0)),
            rows=int(stats.get("eq_rows", 0)) + int(stats.get("ub_rows", 0)),
            nonzeros=int(stats.get("nonzeros", 0)),
        )


class TaskError(RuntimeError):
    """A task's solve raised (the exception is ``__cause__``); raised by
    :meth:`Engine.run` for the first failure in task order, after every
    other task has run and been cached."""

    def __init__(self, task: DesignTask, exc: BaseException, failed: int = 1):
        more = f" (and {failed - 1} more failed task(s))" if failed > 1 else ""
        super().__init__(
            f"task {task.label or task.kind!r} failed{more}: "
            f"{type(exc).__name__}: {exc}\n"
            f"payload: {json.dumps(task.cache_payload(), sort_keys=True)}"
        )
        self.task = task


def solve_task(task: DesignTask, certify: bool = False) -> dict:
    """Execute one design task; returns the JSON-serializable entry doc.

    Module-level so a process pool can pickle it.  With ``certify=True``
    every LP solved yields a duality certificate, stored on the doc (and
    so in the cache) under ``"certificates"``; an invalid one raises
    ``CertificationError``.

    The doc also ships what the solve observed: its trace events
    (``"obs_events"``, re-ingested by the parent for pooled runs), an
    isolated metrics registry (``"obs_metrics"``, merged by the parent
    in both modes, so the process registry is identical either way) and
    a resource delta (``"resources"``).  The engine strips all three
    before the doc reaches the cache.
    """
    tracer = obs.get_tracer()
    mark = tracer.mark()
    # Fork-started workers inherit the parent's span stack as of pool
    # creation; ship paths *relative* to it so the parent's ingest()
    # rebases them exactly where the serial path would have put them.
    base = obs.current_path()
    registry = obs.MetricsRegistry()
    res0 = obs.resource_sample()
    with obs.use_registry(registry), obs.span(
        "engine.solve_task",
        kind=task.kind,
        k=int(task.k),
        n=int(task.n),
        label=task.label or task.kind,
        certify=bool(certify),
    ):
        if certify:
            from repro.verify.certificates import collect_certificates

            with collect_certificates() as collector:
                doc = _solve_doc(task)
            collector.require(task.label or task.kind)
            doc["certificates"] = collector.to_docs()
        else:
            doc = _solve_doc(task)
    events = tracer.events_since(mark)
    if base:
        prefix = base + "/"
        for ev in events:
            if ev.get("ev") == "span" and ev["path"].startswith(prefix):
                ev["path"] = ev["path"][len(prefix):]
    doc["obs_events"] = events
    doc["obs_metrics"] = registry.to_doc()
    doc["resources"] = obs.resource_delta_doc(res0, obs.resource_sample())
    return doc


def _solve_doc(task: DesignTask) -> dict:
    start = time.perf_counter()
    load, apl, stats, fields = KINDS[task.kind].solve(task)
    doc = {
        "payload": task.cache_payload(),
        "load": float(load),
        "avg_path_length": float(apl),
        "model_stats": dict(stats),
        "solve_time": time.perf_counter() - start,
    }
    doc.update(fields)
    return doc


def _late(module: str, name: str, **kwargs) -> Callable:
    """Call ``module.name`` looked up at call time, so a function wrapped
    by module attribute (as the benchmark probes do) is the one that runs."""

    def call(*args):
        return getattr(importlib.import_module(module), name)(*args, **kwargs)

    return call


def _torus(task: DesignTask):
    from repro.topology.symmetry import TranslationGroup
    from repro.topology.torus import Torus

    torus = Torus(int(task.k), int(task.n), bandwidths=task.bandwidths or None)
    return torus, TranslationGroup(torus)


def _sample(task: DesignTask) -> list[np.ndarray]:
    return [np.asarray(m, dtype=np.float64) for m in task.sample]


def _hops(task: DesignTask, torus) -> float:
    return float(task.ratio) * torus.mean_min_distance()


def _wc_point(task, torus, group):
    from repro.core.worst_case import design_worst_case

    design = design_worst_case(
        torus, _hops(task, torus), task.sense, group=group, method=task.method
    )
    return design, design.worst_case_load


def _wc_opt(task, torus, group):
    from repro.core.worst_case import design_worst_case

    design = design_worst_case(
        torus, minimize_locality=True, group=group, method=task.method
    )
    return design, design.worst_case_load


def _avg_point(task, torus, group):
    from repro.core.average_case import design_average_case

    design = design_average_case(
        torus, _sample(task), _hops(task, torus), task.sense, group=group
    )
    return design, design.average_load


def _twoturn(task, torus, group):
    from repro.routing.twoturn import design_2turn

    design = design_2turn(torus, group)
    return design, design.objective_load


def _twoturn_avg(task, torus, group):
    from repro.routing.twoturn import design_2turn_average

    design = design_2turn_average(torus, _sample(task), group)
    return design, design.objective_load


def _lp_design(design_fn) -> Callable:
    """``solve`` for an LP design kind whose ``design_fn(task, torus,
    group)`` returns ``(design, load)``.  Path designs store their
    routing table; flow designs their canonical flows, plus the
    certificate of a column-generation solve."""

    def solve(task: DesignTask):
        from repro.routing.serialize import flows_to_doc, routing_to_doc

        torus, group = _torus(task)
        design, load = design_fn(task, torus, group)
        if hasattr(design, "routing"):
            fields = {"routing": routing_to_doc(design.routing)}
        else:
            fields = {"flows": flows_to_doc(design.flows, torus, name=task.kind)}
            fields.update(_colgen_doc(torus, group, design))
        return load, design.avg_path_length, design.model_stats, fields

    return solve


def _colgen_doc(torus, group, design) -> dict:
    """Doc fields a column-generation design adds to its cache entry:
    the loop stats and a duality certificate against the full constraint
    set it never materialized.  Certification is unconditional, so an
    unconverged or buggy master never populates the cache.
    """
    if getattr(design, "method", "full") != "colgen":
        return {}
    from repro.verify.certificates import CertificationError
    from repro.verify.colgen import certify_colgen_design

    report = certify_colgen_design(
        torus,
        design.flows,
        design.worst_case_load,
        lower_bound=design.colgen.lower_bound,
        group=group,
        lexicographic=design.colgen.stage2_iterations > 0,
    )
    if not report.passed:
        raise CertificationError(
            "column-generation design failed certification\n" + report.render()
        )
    return {
        "method": "colgen",
        "colgen": design.colgen.to_doc(),
        "colgen_certificate": {
            "subject": report.subject,
            "passed": True,
            "checks": [dataclasses.asdict(c) for c in report.checks],
        },
    }


_VERIFY = "repro.verify.certificates"
#: LP designs re-measure their stored load, except average-case ones,
#: whose design sample is cached as a digest only.
_REMEASURED = _late(_VERIFY, "recheck_design", remeasure=True)
_NOT_REMEASURED = _late(_VERIFY, "recheck_design", remeasure=False)

#: The handler table: task kind -> :class:`TaskKind`.  A new experiment
#: adds a row (and, for fields of its own, a spec class), not engine code.
KINDS: dict[str, TaskKind] = {
    "wc_point": TaskKind(
        _lp_design(_wc_point), _REMEASURED, needs_ratio=True, takes_method=True
    ),
    "wc_opt": TaskKind(_lp_design(_wc_opt), _REMEASURED, takes_method=True),
    "avg_point": TaskKind(
        _lp_design(_avg_point), _NOT_REMEASURED, needs_ratio=True, needs_sample=True
    ),
    "twoturn": TaskKind(_lp_design(_twoturn), _REMEASURED),
    "twoturn_avg": TaskKind(
        _lp_design(_twoturn_avg), _NOT_REMEASURED, needs_sample=True
    ),
    "fault_wc": TaskKind(
        _late("repro.experiments.faults", "solve_fault_wc"),
        _late(_VERIFY, "recheck_evaluation"),
        spec=FaultSpec,
    ),
    "rotor_wc": TaskKind(
        _late("repro.experiments.rotor", "solve_rotor_wc"),
        _late(_VERIFY, "recheck_evaluation", required=("phase_loads",)),
        spec=RotorSpec,
    ),
}


class Engine:
    """Cached, optionally parallel executor for design tasks.

    Parameters
    ----------
    jobs:
        Worker count; ``None`` resolves via :func:`resolve_jobs`.  ``1``
        solves in-process.
    cache:
        A :class:`DesignCache`, or ``None`` to disable caching; the
        default uses ``$REPRO_CACHE_DIR`` / ``~/.cache/repro-designs``.
    certify:
        Certify every design (CLI ``--certify``): fresh solves attach LP
        duality certificates to their entries, cache hits are re-checked
        (:func:`repro.verify.certificates.recheck_cached_doc`) without
        re-solving.  Certification never enters the cache key.
    progress:
        Optional display-only ``(done, total, hits)`` callback, called
        after the cache scan and per task completion (CLI ``--progress``).
    """

    _DEFAULT_CACHE = object()

    def __init__(
        self,
        jobs: int | None = None,
        cache: DesignCache | None = _DEFAULT_CACHE,  # type: ignore[assignment]
        certify: bool = False,
        progress=None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = DesignCache() if cache is Engine._DEFAULT_CACHE else cache
        self.certify = bool(certify)
        self.progress = progress
        #: one record per task this engine ran, in task order per run
        self.metrics: list[TaskMetrics] = []

    def run(self, tasks: Sequence[DesignTask]) -> list[TaskResult]:
        """Execute tasks (cache -> solve -> cache), preserving order.

        Every outstanding task runs even when another fails, and each
        result is cached as it lands; then the first failure in task
        order is raised as a :class:`TaskError`, so a rerun resumes from
        the cache.
        """
        tracer = obs.get_tracer()
        registry = obs.get_registry()
        tasks = list(tasks)
        with obs.span("engine.run", tasks=len(tasks), jobs=self.jobs) as sp:
            t_dispatch = time.perf_counter()
            results: list[TaskResult | None] = [None] * len(tasks)
            pending: list[tuple[int, str | None]] = []
            for i, task in enumerate(tasks):
                key = doc = None
                if self.cache is not None:
                    key = cache_key(task.cache_payload())
                    doc = self.cache.get(key)
                if doc is not None:
                    if self.certify:
                        self._recheck(task, doc)
                    results[i] = self._make_result(task, doc, cache_hit=True)
                else:
                    pending.append((i, key))
            hits = len(tasks) - len(pending)
            self._report_progress(hits, len(tasks), hits)

            todo = [tasks[i] for i, _ in pending]
            pooled = self.jobs > 1 and len(todo) > 1
            shipped: dict[int, tuple] = {}
            failures: dict[int, BaseException] = {}
            completions = self._completions(todo, pooled)
            for done, (j, outcome) in enumerate(completions, start=1):
                i, key = pending[j]
                if isinstance(outcome, BaseException):
                    failures[i] = outcome
                else:
                    shipped[i] = (
                        outcome.pop("obs_events", []),
                        outcome.pop("obs_metrics", None),
                        time.perf_counter(),
                    )
                    resources = outcome.pop("resources", None)
                    if key is not None:
                        self.cache.put(key, outcome)
                    results[i] = self._make_result(
                        tasks[i], outcome, cache_hit=False, resources=resources
                    )
                self._report_progress(hits + done, len(tasks), hits)

            # Ingest in task order, not completion order, so traces and
            # registries do not depend on worker scheduling.  In-process
            # solves already put their spans on this tracer.
            for i in sorted(shipped):
                events, worker_metrics, done_at = shipped[i]
                if pooled:
                    tracer.ingest(events)
                registry.merge(worker_metrics)
                wait = done_at - t_dispatch - results[i].solve_time
                obs.metric_observe(
                    "engine.queue_wait_seconds", max(0.0, wait), volatile=True
                )
            for i, result in enumerate(results):
                if result is not None:
                    self._record_task_event(tracer, result)
                elif i in failures:
                    self._record_task_failure(tracer, tasks[i], failures[i])
            obs.metric_count("engine.tasks", len(tasks))
            obs.metric_count("engine.cache_hits", hits)
            obs.metric_count("engine.cache_misses", len(pending))
            if tasks:
                obs.metric_gauge("engine.cache_hit_rate", hits / len(tasks))
            sp.set(solves=len(pending), hits=hits)
            if failures:
                first = min(failures)
                raise TaskError(
                    tasks[first], failures[first], len(failures)
                ) from failures[first]
        return results

    def _completions(self, todo: list[DesignTask], pooled: bool):
        """Yield ``(j, doc or exception)`` as each of ``todo`` finishes."""
        worker = functools.partial(solve_task, certify=self.certify)
        if not pooled:
            for j, task in enumerate(todo):
                try:
                    outcome = worker(task)
                except Exception as exc:
                    outcome = exc
                yield j, outcome
            return
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.jobs, len(todo))
        ) as pool:
            futs = {pool.submit(worker, task): j for j, task in enumerate(todo)}
            for fut in concurrent.futures.as_completed(futs):
                exc = fut.exception()
                yield futs[fut], fut.result() if exc is None else exc

    def _report_progress(self, done: int, total: int, hits: int) -> None:
        if self.progress is not None:
            self.progress(done, total, hits)

    def run_one(self, task: DesignTask) -> TaskResult:
        """Convenience wrapper for a single task."""
        return self.run([task])[0]

    @staticmethod
    def _recheck(task: DesignTask, doc: dict) -> None:
        """Re-certify a cache hit without re-solving; raise on failure."""
        from repro.verify.certificates import CertificationError, recheck_cached_doc

        report = recheck_cached_doc(doc, subject=task.label or task.kind)
        if not report.passed:
            raise CertificationError(
                "cached design failed re-certification\n" + report.render()
            )

    @staticmethod
    def _make_result(task, doc, cache_hit, resources=None) -> TaskResult:
        return TaskResult(
            task=task,
            load=float(doc["load"]),
            avg_path_length=float(doc["avg_path_length"]),
            model_stats=dict(doc.get("model_stats", {})),
            solve_time=float(doc.get("solve_time", 0.0)),
            cache_hit=cache_hit,
            doc=doc,
            resources=resources,
        )

    def _record_task_event(self, tracer, result: TaskResult) -> None:
        """Record one task's metrics and publish its ``engine.task`` span."""
        m = result.metrics()
        attrs = dataclasses.asdict(m)
        if result.resources:
            attrs.update(result.resources)
        tracer.emit_span(
            "engine.task", dur=0.0 if m.cache_hit else m.solve_time, attrs=attrs
        )
        if not m.cache_hit:
            obs.metric_observe(
                "engine.task_seconds", m.solve_time, volatile=True
            )
        self.metrics.append(m)

    @staticmethod
    def _record_task_failure(tracer, task: DesignTask, exc: BaseException) -> None:
        """Publish a failed task's ``engine.task`` span: its identity and
        an ``error`` attr (exception type and first line of its message)."""
        message = str(exc).splitlines()
        tracer.emit_span(
            "engine.task",
            dur=0.0,
            attrs={
                "label": task.label or task.kind,
                "kind": task.kind,
                "k": int(task.k),
                "n": int(task.n),
                "ratio": task.ratio,
                "cache_hit": False,
                "error": f"{type(exc).__name__}: {message[0] if message else ''}",
            },
        )

    @property
    def solves(self) -> int:
        """Number of LPs actually solved (cache misses) so far."""
        return sum(1 for m in self.metrics if not m.cache_hit)

    @property
    def hits(self) -> int:
        """Number of cache hits so far."""
        return sum(1 for m in self.metrics if m.cache_hit)

    def summary(self) -> str:
        """One-line hit/miss + LP-size digest for CLI output."""
        if not self.metrics:
            return ""
        solved = [m for m in self.metrics if not m.cache_hit]
        text = (
            f"{len(self.metrics)} LP tasks, {len(solved)} solved, "
            f"{self.hits} cache hits "
            f"({self.jobs} worker{'s' if self.jobs != 1 else ''})"
        )
        if solved:
            solve_time = sum(m.solve_time for m in solved)
            biggest = max(solved, key=lambda m: m.nonzeros)
            text += (
                f"; {solve_time:.1f}s solving, largest LP "
                f"{biggest.rows} rows x {biggest.variables} cols, "
                f"{biggest.nonzeros} nnz"
            )
        return text


def ensure_engine(engine: Engine | None) -> Engine:
    """Default engine for experiments invoked without one."""
    return engine if engine is not None else Engine()
