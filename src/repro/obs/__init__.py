"""Observability layer: structured tracing, metrics, and logging.

Usage across the stack::

    from repro import obs

    log = obs.get_logger(__name__)

    with obs.span("lp.solve", model=name, nnz=nnz) as sp:
        ...
        sp.set(status=0, iterations=it)
    obs.count("cache.hit")

Tracing is in-memory by default (negligible overhead); ``--trace FILE``
on the CLI (or :func:`configure`) adds a JSON-lines sink, and
``repro-experiments obs-report FILE`` aggregates one (with one table per
``*.point`` / ``*.case`` span name).  See DESIGN.md
("Observability") for the event schema and determinism guarantees.

Alongside the tracer lives a typed metrics registry
(:mod:`repro.obs.metrics`)::

    obs.metric_count("sim.delivered", 512, backend="vectorized")
    obs.metric_observe("lp.nonzeros", nnz)
    obs.metric_gauge("engine.cache_hit_rate", 0.42)

exported via ``--metrics-out FILE`` (:mod:`repro.obs.export`), fed by
per-task resource sampling (:mod:`repro.obs.resources`), surfaced live
with ``--progress`` (:mod:`repro.obs.progress`), and tracked over time
by the ``BENCH_<name>.json`` regression tooling (:mod:`repro.obs.bench`).
"""

from repro.obs.bench import BenchReport, BenchValidationError, compare_dirs
from repro.obs.bench import load_doc as load_bench_doc
from repro.obs.bench import new_doc as new_bench_doc
from repro.obs.bench import validate_doc as validate_bench_doc
from repro.obs.bench import write_doc as write_bench_doc
from repro.obs.export import to_jsonl, to_prometheus, write_metrics
from repro.obs.log import get_logger, setup_logging
from repro.obs.metrics import (
    MetricsRegistry,
    configure_metrics,
    get_registry,
    use_registry,
)
from repro.obs.metrics import counter as metric_count
from repro.obs.metrics import gauge as metric_gauge
from repro.obs.metrics import observe as metric_observe
from repro.obs.progress import ProgressReporter
from repro.obs.resources import ResourceSample
from repro.obs.resources import delta_doc as resource_delta_doc
from repro.obs.resources import sample as resource_sample
from repro.obs.report import (
    TraceReport,
    aggregate,
    load_trace,
    profile_table,
    report_from_file,
    sort_events,
)
from repro.obs.trace import (
    Span,
    Tracer,
    configure,
    count,
    current_path,
    get_tracer,
    span,
)

__all__ = [
    "BenchReport",
    "BenchValidationError",
    "MetricsRegistry",
    "ProgressReporter",
    "ResourceSample",
    "Span",
    "Tracer",
    "TraceReport",
    "aggregate",
    "compare_dirs",
    "configure",
    "configure_metrics",
    "count",
    "current_path",
    "get_logger",
    "get_registry",
    "get_tracer",
    "load_bench_doc",
    "load_trace",
    "metric_count",
    "metric_gauge",
    "metric_observe",
    "new_bench_doc",
    "profile_table",
    "report_from_file",
    "resource_delta_doc",
    "resource_sample",
    "setup_logging",
    "sort_events",
    "span",
    "to_jsonl",
    "to_prometheus",
    "use_registry",
    "validate_bench_doc",
    "write_bench_doc",
    "write_metrics",
]
