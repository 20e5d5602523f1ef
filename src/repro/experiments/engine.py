"""Parallel experiment execution engine with a persistent design cache.

Every figure of the paper is a sweep of *independent* LP design
problems: one locality-pinned worst-case or average-case solve per curve
point, plus the 2TURN-family designs.  The engine turns each of those
solves into a self-contained :class:`DesignTask`, executes outstanding
tasks across a ``concurrent.futures.ProcessPoolExecutor`` (worker count
from ``--jobs`` / ``$REPRO_JOBS``, default ``os.cpu_count()``; ``jobs=1``
runs everything in-process so debugging and CI stay deterministic), and
memoizes results in a :class:`repro.cache.DesignCache` so an identical
LP is never solved twice — across figures, benchmark runs and test
sessions alike.

Tasks are pure functions of their fields: topology ``(k, n)``, design
kind, locality pin, and (for average-case designs) the literal traffic
sample.  Workers therefore need no shared state, and results are
bit-identical between the serial path, the parallel path and a cache
hit.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import os
import time
from typing import Sequence

import numpy as np

from repro import obs
from repro.cache import DesignCache, cache_key, sample_digest

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Supported design-task kinds.
TASK_KINDS = (
    "wc_point",
    "wc_opt",
    "avg_point",
    "twoturn",
    "twoturn_avg",
    "fault_wc",
    "rotor_wc",
)

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


@dataclasses.dataclass(frozen=True, eq=False)
class DesignTask:
    """One independent routing-design LP.

    ``ratio`` pins the average path length as a multiple of minimal
    (``wc_point`` / ``avg_point``); ``sample`` carries the design
    traffic sample for average-case kinds (hashed, not stored, in the
    cache key).  ``label`` is for metrics display only and never enters
    the cache key.

    ``fault_wc`` tasks evaluate an existing ``algorithm`` (one of
    :data:`FAULT_ALGORITHMS`) on the torus degraded by the failed
    channels in ``faults``, rerouted under ``reroute`` — the cache key
    gains the fault-set digest so degraded evaluations never collide
    with pristine ones.

    ``bandwidths`` carries per-dimension channel bandwidths (empty for
    the uniform unit-bandwidth torus); heterogeneous tasks extend the
    cache key so they never collide with uniform entries.

    ``rotor_wc`` tasks evaluate an oblivious rotor scheme (``algorithm``
    from :data:`ROTOR_SCHEMES`) on the round-robin rotor schedule with
    ``phases`` phases of ``phase_length`` cycles over ``k**2`` nodes —
    the cache key carries the schedule's canonical digest plus the
    scheme, so distinct rotations never collide.

    ``method`` picks the worst-case LP formulation for ``wc_point`` /
    ``wc_opt`` tasks (:data:`repro.core.worst_case.DESIGN_METHODS`;
    ``"auto"`` switches to column generation above the radix
    threshold).  Only a *resolved* ``"colgen"`` enters the cache key:
    ``"full"`` and an ``"auto"`` that resolves to the full LP solve the
    identical model, so they keep sharing entries — and every
    pre-existing cache key — while lazy-row solves, whose results agree
    only to the separation tolerance, get keys (and docs) of their own.
    """

    kind: str
    k: int
    n: int = 2
    ratio: float | None = None
    sense: str = "<="
    sample: tuple = ()
    label: str = ""
    algorithm: str = ""
    faults: tuple = ()
    reroute: str = "detour"
    bandwidths: tuple = ()
    phases: int = 0
    phase_length: int = 1
    method: str = "auto"

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(
                f"unknown task kind {self.kind!r}; choose from {TASK_KINDS}"
            )
        if self.kind in ("wc_point", "avg_point") and self.ratio is None:
            raise ValueError(f"{self.kind} task needs a locality ratio")
        if self.kind in ("avg_point", "twoturn_avg") and not self.sample:
            raise ValueError(f"{self.kind} task needs a traffic sample")
        if self.kind == "fault_wc":
            if self.algorithm not in FAULT_ALGORITHMS:
                raise ValueError(
                    f"fault_wc task needs algorithm from {FAULT_ALGORITHMS}, "
                    f"got {self.algorithm!r}"
                )
            if self.reroute not in ("renormalize", "detour"):
                raise ValueError(
                    f"unknown reroute mode {self.reroute!r} for fault_wc task"
                )
        if self.kind == "rotor_wc":
            if self.algorithm not in ROTOR_SCHEMES:
                raise ValueError(
                    f"rotor_wc task needs a scheme from {ROTOR_SCHEMES}, "
                    f"got {self.algorithm!r}"
                )
            if self.phases < 1:
                raise ValueError("rotor_wc task needs phases >= 1")
            if self.phase_length < 1:
                raise ValueError("rotor_wc task needs phase_length >= 1")
        from repro.core.worst_case import DESIGN_METHODS

        if self.method not in DESIGN_METHODS:
            raise ValueError(
                f"unknown design method {self.method!r}; "
                f"choose from {DESIGN_METHODS}"
            )
        if self.method != "auto" and self.kind not in ("wc_point", "wc_opt"):
            raise ValueError(
                f"method={self.method!r} applies to wc_point/wc_opt tasks, "
                f"not {self.kind!r}"
            )
        object.__setattr__(self, "sample", tuple(self.sample))
        object.__setattr__(
            self, "faults", tuple(sorted({int(c) for c in self.faults}))
        )
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
        if self.kind in ("wc_point", "wc_opt"):
            from repro.core.worst_case import resolve_design_method

            if resolve_design_method(self.method, self.k**self.n) == "colgen":
                payload["method"] = "colgen"
        if self.sample:
            payload["sample"] = sample_digest(self.sample)
        if self.kind == "fault_wc":
            from repro.faults import FaultSet

            payload["algorithm"] = self.algorithm
            payload["faults"] = FaultSet(channels=self.faults).digest()
            payload["reroute"] = self.reroute
        if self.kind == "rotor_wc":
            payload["scheme"] = self.algorithm
            payload["schedule"] = self._rotor_schedule().digest()
        return payload

    def _rotor_schedule(self):
        """Rebuild the round-robin schedule a ``rotor_wc`` task names."""
        from repro.rotor import RotorSchedule

        return RotorSchedule.round_robin(
            self.k**2, self.phases, phase_length=self.phase_length
        )


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
        "label",
        "kind",
        "k",
        "n",
        "ratio",
        "cache_hit",
        "solve_time_s",
        "lp_variables",
        "lp_rows",
        "lp_nonzeros",
    )

    def row(self) -> tuple:
        return (
            self.label,
            self.kind,
            self.k,
            self.n,
            "" if self.ratio is None else self.ratio,
            int(self.cache_hit),
            self.solve_time,
            self.variables,
            self.rows,
            self.nonzeros,
        )

    @classmethod
    def from_event_attrs(cls, attrs: dict) -> TaskMetrics:
        """Rebuild a metrics row from an ``engine.task`` span's attrs."""
        return cls(
            label=attrs["label"],
            kind=attrs["kind"],
            k=int(attrs["k"]),
            n=int(attrs["n"]),
            ratio=attrs.get("ratio"),
            cache_hit=bool(attrs["cache_hit"]),
            solve_time=float(attrs["solve_time"]),
            variables=int(attrs["variables"]),
            rows=int(attrs["rows"]),
            nonzeros=int(attrs["nonzeros"]),
        )


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


def solve_task(task: DesignTask, certify: bool = False) -> dict:
    """Execute one design task; returns the JSON-serializable entry doc.

    Module-level so :class:`concurrent.futures.ProcessPoolExecutor` can
    pickle it; imports stay inside to keep worker start-up lean.

    With ``certify=True`` every LP solved for the task yields a duality
    certificate (:mod:`repro.verify.certificates`); the certificates are
    stored on the doc under ``"certificates"`` — and therefore in the
    design cache — and an invalid one raises ``CertificationError``
    instead of returning a result.

    The solve runs inside an ``engine.solve_task`` trace span, and every
    event it produced (this span, nested ``lp.solve`` spans, ...) is
    piggybacked on the returned doc under ``"obs_events"`` so pool
    workers can ship their trace back on the existing result path.
    Metrics follow the same route: the solve runs under an *isolated*
    metrics registry whose dump ships as ``"obs_metrics"`` — and unlike
    events, the engine merges it on the same path for serial and
    parallel runs, so the process registry is identical either way.  A
    resource-usage delta (RSS peak, user/sys CPU) ships as
    ``"resources"``.  The engine strips all three keys before the doc
    reaches the cache.
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
                doc = _solve_task_body(task)
            collector.require(task.label or task.kind)
            doc["certificates"] = collector.to_docs()
        else:
            doc = _solve_task_body(task)
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


def _solve_task_body(task: DesignTask) -> dict:
    from repro.core.average_case import design_average_case
    from repro.core.worst_case import design_worst_case
    from repro.routing.serialize import flows_to_doc, routing_to_doc
    from repro.routing.twoturn import design_2turn, design_2turn_average
    from repro.topology.symmetry import TranslationGroup
    from repro.topology.torus import Torus

    if task.kind == "rotor_wc":
        # Rotor tasks run on the schedule's complete digraph, not a torus.
        torus = group = None
    else:
        torus = Torus(
            int(task.k), int(task.n), bandwidths=task.bandwidths or None
        )
        group = TranslationGroup(torus)
    sample = [np.asarray(m, dtype=np.float64) for m in task.sample]
    start = time.perf_counter()
    if task.kind == "wc_point":
        design = design_worst_case(
            torus,
            locality_hops=float(task.ratio) * torus.mean_min_distance(),
            locality_sense=task.sense,
            group=group,
            method=task.method,
        )
        load, payload = design.worst_case_load, {
            "flows": flows_to_doc(design.flows, torus, name=task.kind)
        }
        payload.update(_colgen_doc(torus, group, design))
        apl, stats = design.avg_path_length, design.model_stats
    elif task.kind == "wc_opt":
        design = design_worst_case(
            torus, minimize_locality=True, group=group, method=task.method
        )
        load, payload = design.worst_case_load, {
            "flows": flows_to_doc(design.flows, torus, name=task.kind)
        }
        payload.update(_colgen_doc(torus, group, design))
        apl, stats = design.avg_path_length, design.model_stats
    elif task.kind == "avg_point":
        design = design_average_case(
            torus,
            sample,
            locality_hops=float(task.ratio) * torus.mean_min_distance(),
            locality_sense=task.sense,
            group=group,
        )
        load, payload = design.average_load, {
            "flows": flows_to_doc(design.flows, torus, name=task.kind)
        }
        apl, stats = design.avg_path_length, design.model_stats
    elif task.kind == "twoturn":
        design = design_2turn(torus, group)
        load, payload = design.objective_load, {
            "routing": routing_to_doc(design.routing)
        }
        apl, stats = design.avg_path_length, design.model_stats
    elif task.kind == "twoturn_avg":
        design = design_2turn_average(torus, sample, group)
        load, payload = design.objective_load, {
            "routing": routing_to_doc(design.routing)
        }
        apl, stats = design.avg_path_length, design.model_stats
    elif task.kind == "fault_wc":
        load, apl, stats, payload = _solve_fault_wc(task, torus, group)
    elif task.kind == "rotor_wc":
        load, apl, stats, payload = _solve_rotor_wc(task)
    else:  # pragma: no cover - guarded by DesignTask.__post_init__
        raise ValueError(f"unknown task kind {task.kind!r}")
    elapsed = time.perf_counter() - start

    doc = {
        "payload": task.cache_payload(),
        "load": float(load),
        "avg_path_length": float(apl),
        "model_stats": dict(stats),
        "solve_time": elapsed,
    }
    doc.update(payload)
    return doc


def _colgen_doc(torus, group, design) -> dict:
    """Doc fields a column-generation design adds to its cache entry.

    Empty for full-LP designs.  A colgen design never materialized the
    full constraint set, so its entry must carry (a) the loop stats —
    master lower bound included — and (b) a freshly derived duality
    certificate against the full set
    (:func:`repro.verify.colgen.certify_colgen_design`).  Certification
    here is unconditional (not gated on ``--certify``): an unconverged
    or buggy master must never populate the cache.
    """
    if design.method != "colgen":
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


def _build_fault_algorithm(name: str, torus, group):
    """Materialize a named base algorithm for a ``fault_wc`` task."""
    from repro.routing import IVAL, VAL, DimensionOrderRouting
    from repro.routing.twoturn import design_2turn

    if name == "DOR":
        return DimensionOrderRouting(torus), {}
    if name == "VAL":
        return VAL(torus), {}
    if name == "IVAL":
        return IVAL(torus), {}
    if name == "2TURN":
        design = design_2turn(torus, group)
        return design.routing, dict(design.model_stats)
    raise ValueError(f"unknown fault_wc algorithm {name!r}")


def _solve_fault_wc(task: DesignTask, torus, group):
    """Evaluate a degraded routing's exact worst-case load.

    A disconnected commodity under the task's reroute policy (e.g. DOR
    with ``renormalize`` on any link failure) is a legitimate outcome,
    not an error: the doc records ``disconnected=True`` with a load of
    ``0.0`` (JSON cannot hold inf; guaranteed throughput is 0 either
    way).
    """
    from repro.faults import (
        DisconnectedCommodityError,
        FaultSet,
        degrade,
        degrade_routing,
    )
    from repro.metrics import general_worst_case_load

    base_alg, stats = _build_fault_algorithm(task.algorithm, torus, group)
    degraded = degrade(torus, FaultSet(channels=task.faults))
    routing = degrade_routing(base_alg, degraded, mode=task.reroute)
    obs.metric_count(
        "faults.evaluations", algorithm=task.algorithm, reroute=task.reroute
    )
    try:
        flows = routing.full_flows()
        wc = general_worst_case_load(degraded, flows)
    except DisconnectedCommodityError:
        obs.metric_count("faults.disconnected", algorithm=task.algorithm)
        payload = {
            "disconnected": True,
            "wc_channel": None,
            "num_faults": len(task.faults),
        }
        # 0.0 for both: JSON (and the cache files) cannot hold inf/nan.
        return 0.0, 0.0, stats, payload
    payload = {
        "disconnected": False,
        "wc_channel": int(wc.channel),
        "num_faults": len(task.faults),
    }
    return float(wc.load), _mean_path_length(routing, degraded), stats, payload


def _mean_path_length(routing, degraded) -> float:
    """Mean expected hops over surviving commodities ``s != d``, each
    pair's sum taken in table order."""
    table = routing.path_table()
    n = degraded.num_nodes
    per_pair = np.bincount(
        table.path_rows, weights=table.prob * table.hops, minlength=n * n
    ).reshape(n, n)
    alive = degraded.alive
    return float(
        np.mean(per_pair[np.outer(alive, alive) & ~np.eye(n, dtype=bool)])
    )


def _solve_rotor_wc(task: DesignTask):
    """Evaluate a rotor scheme's phase-averaged worst-case load.

    Every result is certified before it can reach the cache: the
    per-phase witness permutations, bottleneck-phase membership and the
    averaged dual are re-checked
    (:func:`repro.rotor.certify.certify_periodic_worst_case`), so a bad
    evaluator can never populate a poisoned entry.
    """
    from repro.rotor import (
        ORNRouting,
        VLBOnRotor,
        certify_periodic_worst_case,
        periodic_worst_case_load,
    )

    schedule = task._rotor_schedule()
    if task.algorithm == "VLBR":
        alg = VLBOnRotor(schedule.base)
    else:
        alg = ORNRouting(schedule.base, k=int(task.k))
    obs.metric_count("rotor.evaluations", scheme=task.algorithm)
    flows = alg.full_flows()
    result = periodic_worst_case_load(schedule, flows)
    report = certify_periodic_worst_case(schedule, flows, result)
    if not report.passed:
        raise ValueError(
            "periodic worst-case certificate failed\n" + report.render()
        )
    payload = {
        "scheme": task.algorithm,
        "num_phases": int(schedule.num_phases),
        "schedule_digest": schedule.digest(),
        "phase_loads": [float(r.load) for r in result.phase_results],
        "wc_channels": [int(r.channel) for r in result.phase_results],
    }
    return float(result.load), alg.average_path_length(), {}, payload


class Engine:
    """Cached, optionally parallel executor for design tasks.

    Parameters
    ----------
    jobs:
        Worker count; ``None`` resolves via :func:`resolve_jobs`
        (``$REPRO_JOBS``, else CPU count).  ``1`` solves in-process.
    cache:
        A :class:`DesignCache`, or ``None`` to disable caching.  The
        default uses the standard cache directory
        (``$REPRO_CACHE_DIR`` / ``~/.cache/repro-designs``).
    certify:
        Certify every design (CLI ``--certify``): fresh solves get LP
        duality certificates attached to their cache entries, cache hits
        are re-checked (:func:`repro.verify.certificates.recheck_cached_doc`)
        without re-solving.  Certification never enters the cache key —
        certified and uncertified runs share entries.
    progress:
        Optional ``(done, total, hits)`` callback invoked from task
        lifecycle events (cache scan, per-task completion) — e.g. a
        :class:`repro.obs.progress.ProgressReporter` (CLI ``--progress``).
        Progress is display-only and never alters execution order.
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
        #: attrs of every ``engine.task`` event this engine emitted, in
        #: completion order — :attr:`metrics` is a view over these.
        self._task_events: list[dict] = []

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[DesignTask]) -> list[TaskResult]:
        """Execute tasks (cache -> pool -> cache), preserving order."""
        tracer = obs.get_tracer()
        registry = obs.get_registry()
        tasks = list(tasks)
        with obs.span("engine.run", tasks=len(tasks), jobs=self.jobs) as sp:
            t_dispatch = time.perf_counter()
            results: list[TaskResult | None] = [None] * len(tasks)
            pending: list[tuple[int, DesignTask, str | None]] = []
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
                    pending.append((i, task, key))
            hits = len(tasks) - len(pending)
            self._report_progress(hits, len(tasks), hits)

            if pending:
                todo = [task for _, task, _ in pending]
                worker = functools.partial(solve_task, certify=self.certify)
                done_at = [0.0] * len(todo)
                if self.jobs == 1 or len(todo) == 1:
                    # In-process: spans land on this tracer directly, so
                    # the piggybacked copies are dropped, not re-ingested.
                    docs = []
                    for j, task in enumerate(todo):
                        docs.append(worker(task))
                        done_at[j] = time.perf_counter()
                        self._report_progress(
                            hits + len(docs), len(tasks), hits
                        )
                    for doc in docs:
                        doc.pop("obs_events", None)
                else:
                    workers = min(self.jobs, len(todo))
                    with concurrent.futures.ProcessPoolExecutor(
                        max_workers=workers
                    ) as pool:
                        # submit/as_completed (rather than pool.map) so
                        # progress ticks per completion; docs are still
                        # collected — and their events/metrics ingested —
                        # in submission order, keeping traces and
                        # registries deterministic.
                        futs = [pool.submit(worker, task) for task in todo]
                        index = {fut: j for j, fut in enumerate(futs)}
                        completed = 0
                        for fut in concurrent.futures.as_completed(futs):
                            done_at[index[fut]] = time.perf_counter()
                            completed += 1
                            self._report_progress(
                                hits + completed, len(tasks), hits
                            )
                        docs = [fut.result() for fut in futs]
                    for doc in docs:
                        tracer.ingest(doc.pop("obs_events", []))
                for j, ((i, task, key), doc) in enumerate(zip(pending, docs)):
                    registry.merge(doc.pop("obs_metrics", None))
                    resources = doc.pop("resources", None)
                    if self.cache is not None and key is not None:
                        self.cache.put(key, doc)
                    results[i] = self._make_result(
                        task, doc, cache_hit=False, resources=resources
                    )
                    wait = done_at[j] - t_dispatch - float(
                        doc.get("solve_time", 0.0)
                    )
                    obs.metric_observe(
                        "engine.queue_wait_seconds", max(0.0, wait), volatile=True
                    )

            out = [r for r in results if r is not None]
            assert len(out) == len(tasks)
            for result in out:
                self._record_task_event(tracer, result)
            obs.metric_count("engine.tasks", len(tasks))
            obs.metric_count("engine.cache_hits", hits)
            obs.metric_count("engine.cache_misses", len(pending))
            if tasks:
                obs.metric_gauge("engine.cache_hit_rate", hits / len(tasks))
            sp.set(solves=len(pending), hits=hits)
        return out

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
    def _make_result(
        task: DesignTask,
        doc: dict,
        cache_hit: bool,
        resources: dict | None = None,
    ) -> TaskResult:
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
        """Publish one ``engine.task`` span event; metrics read these."""
        m = result.metrics()
        attrs = {
            "label": m.label,
            "kind": m.kind,
            "k": m.k,
            "n": m.n,
            "ratio": m.ratio,
            "cache_hit": m.cache_hit,
            "solve_time": m.solve_time,
            "variables": m.variables,
            "rows": m.rows,
            "nonzeros": m.nonzeros,
        }
        if result.resources:
            attrs.update(result.resources)
        tracer.emit_span(
            "engine.task", dur=0.0 if m.cache_hit else m.solve_time, attrs=attrs
        )
        if not m.cache_hit:
            obs.metric_observe(
                "engine.task_seconds", m.solve_time, volatile=True
            )
        self._task_events.append(attrs)

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> list[TaskMetrics]:
        """Per-task metrics — a view over the ``engine.task`` events."""
        return [TaskMetrics.from_event_attrs(a) for a in self._task_events]

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
