"""Benchmark-regression tracker: one canonical ``BENCH_<name>.json``
schema and baseline diffing.

Before this module the repo's bench trajectory was three ad-hoc,
mutually incompatible JSON shapes (``sim_backend_bench.json``,
``faults_bench.json``, ``topo3d_bench.json``) with no baselines and no
regression gate.  Every benchmark artifact now shares one document::

    {
      "bench_schema": 1,
      "name": "sim_backend",
      "created": "2026-08-08T12:00:00Z",       # UTC, informational
      "git_rev": "c6e750c...",                  # rev that produced it
      "workload": {...},                        # what was measured
      "timings": {                              # measured wall times
        "reference": {"unit": "seconds", "samples": [9.695],
                      "n": 1, "median": 9.695, "mean": 9.695,
                      "min": 9.695, "max": 9.695, "total": 9.695},
        ...
      },
      "derived": {"speedup": 12.12},            # machine-relative ratios
      "meta": {...}                             # free-form extras (rows)
    }

The regression gate (CLI ``bench-report --check``) compares the
*median* of every timing series in ``results/BENCH_*.json`` against the
committed baseline in ``results/baselines/`` and fails on a slowdown
beyond the threshold (default +25%).  Medians of wall-clock series are
machine-bound, so the CI gate runs against committed artifacts (same
machine as the baseline by construction); fresh CI measurements are
validated and reported without gating.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import statistics
import subprocess
from pathlib import Path
from typing import Iterable

#: Bump when the BENCH document format changes.
BENCH_SCHEMA_VERSION = 1

#: Canonical artifact filename prefix.
BENCH_PREFIX = "BENCH_"

#: Default regression threshold: median slowdown beyond +25% fails.
DEFAULT_THRESHOLD = 0.25

_REQUIRED_KEYS = ("bench_schema", "name", "created", "git_rev", "workload",
                  "timings", "derived", "meta")
_TIMING_KEYS = ("unit", "samples", "n", "median", "mean", "min", "max", "total")


class BenchValidationError(ValueError):
    """A document does not conform to the canonical BENCH schema."""


def git_revision(cwd: str | Path | None = None) -> str:
    """Current git revision, or ``"unknown"`` outside a work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def timing_stats(samples: Iterable[float], unit: str = "seconds") -> dict:
    """Summary statistics of one timing series (the schema's shape)."""
    values = [float(s) for s in samples]
    if not values:
        raise BenchValidationError("a timing series needs at least one sample")
    return {
        "unit": unit,
        "samples": values,
        "n": len(values),
        "median": float(statistics.median(values)),
        "mean": float(statistics.fmean(values)),
        "min": min(values),
        "max": max(values),
        "total": float(sum(values)),
    }


def new_doc(
    name: str,
    workload: dict,
    timings: dict[str, Iterable[float]],
    derived: dict | None = None,
    meta: dict | None = None,
    git_rev: str | None = None,
    created: str | None = None,
) -> dict:
    """Assemble a canonical BENCH document from raw timing samples."""
    if not name or "/" in name:
        raise BenchValidationError(f"invalid bench name {name!r}")
    if not timings:
        raise BenchValidationError("a BENCH document needs >= 1 timing series")
    doc = {
        "bench_schema": BENCH_SCHEMA_VERSION,
        "name": str(name),
        "created": created
        or datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "git_rev": git_rev if git_rev is not None else git_revision(),
        "workload": dict(workload),
        "timings": {
            key: timing_stats(samples) for key, samples in timings.items()
        },
        "derived": dict(derived or {}),
        "meta": dict(meta or {}),
    }
    validate_doc(doc)
    return doc


def validate_doc(doc: dict) -> None:
    """Raise :class:`BenchValidationError` unless ``doc`` is canonical."""
    if not isinstance(doc, dict):
        raise BenchValidationError("BENCH document must be a JSON object")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise BenchValidationError(f"missing keys: {', '.join(missing)}")
    if doc["bench_schema"] != BENCH_SCHEMA_VERSION:
        raise BenchValidationError(
            f"unsupported bench_schema {doc['bench_schema']!r} "
            f"(expected {BENCH_SCHEMA_VERSION})"
        )
    if not isinstance(doc["name"], str) or not doc["name"]:
        raise BenchValidationError("'name' must be a non-empty string")
    for section in ("workload", "timings", "derived", "meta"):
        if not isinstance(doc[section], dict):
            raise BenchValidationError(f"{section!r} must be an object")
    if not doc["timings"]:
        raise BenchValidationError("'timings' must hold >= 1 series")
    for key, series in doc["timings"].items():
        if not isinstance(series, dict):
            raise BenchValidationError(f"timing {key!r} must be an object")
        bad = [k for k in _TIMING_KEYS if k not in series]
        if bad:
            raise BenchValidationError(
                f"timing {key!r} missing keys: {', '.join(bad)}"
            )
        if not isinstance(series["samples"], list) or not series["samples"]:
            raise BenchValidationError(
                f"timing {key!r} needs a non-empty 'samples' list"
            )
        if int(series["n"]) != len(series["samples"]):
            raise BenchValidationError(
                f"timing {key!r}: n={series['n']} != "
                f"{len(series['samples'])} samples"
            )


def bench_path(results_dir: str | Path, name: str) -> Path:
    return Path(results_dir) / f"{BENCH_PREFIX}{name}.json"


def load_doc(path: str | Path) -> dict:
    """Load and validate one canonical BENCH file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BenchValidationError(f"{path}: not JSON: {exc}") from exc
    try:
        validate_doc(doc)
    except BenchValidationError as exc:
        raise BenchValidationError(f"{path}: {exc}") from exc
    return doc


def write_doc(doc: dict, results_dir: str | Path) -> Path:
    """Validate and write ``doc`` as ``<results_dir>/BENCH_<name>.json``."""
    validate_doc(doc)
    path = bench_path(results_dir, doc["name"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def iter_bench_docs(results_dir: str | Path) -> dict[str, dict]:
    """All canonical BENCH files of a directory, keyed by bench name."""
    docs: dict[str, dict] = {}
    root = Path(results_dir)
    if not root.is_dir():
        return docs
    for path in sorted(root.glob(f"{BENCH_PREFIX}*.json")):
        doc = load_doc(path)
        docs[doc["name"]] = doc
    return docs


# ----------------------------------------------------------------------
# Baseline diffing
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class DiffRow:
    """One timing series compared against its baseline."""

    bench: str
    metric: str
    baseline_median: float
    current_median: float
    threshold: float

    @property
    def ratio(self) -> float:
        if self.baseline_median == 0:
            return float("inf") if self.current_median > 0 else 1.0
        return self.current_median / self.baseline_median

    @property
    def regressed(self) -> bool:
        return self.ratio > 1.0 + self.threshold

    @property
    def verdict(self) -> str:
        if self.regressed:
            return "REGRESSED"
        if self.ratio < 1.0 - self.threshold:
            return "improved"
        return "ok"


@dataclasses.dataclass
class BenchReport:
    """Full baseline comparison of a results directory."""

    rows: list[DiffRow]
    missing_baseline: list[str]  # bench names with no committed baseline
    missing_current: list[str]  # baselines with no fresh artifact
    threshold: float

    @property
    def regressions(self) -> list[DiffRow]:
        return [r for r in self.rows if r.regressed]

    @property
    def passed(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"Benchmark regression report "
            f"(threshold: median +{self.threshold:.0%})"
        ]
        if self.rows:
            headers = ("bench", "metric", "baseline_s", "current_s", "ratio",
                       "verdict")
            table = [
                (
                    r.bench,
                    r.metric,
                    f"{r.baseline_median:.3f}",
                    f"{r.current_median:.3f}",
                    f"{r.ratio:.2f}x",
                    r.verdict,
                )
                for r in self.rows
            ]
            widths = [
                max(len(h), *(len(row[i]) for row in table))
                for i, h in enumerate(headers)
            ]
            lines.append(
                "  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths))
            )
            for row in table:
                lines.append(
                    "  " + "  ".join(c.ljust(w) for c, w in zip(row, widths))
                )
        else:
            lines.append("  (no timing series with a baseline counterpart)")
        for name in self.missing_baseline:
            lines.append(f"  note: {name}: no committed baseline (new bench?)")
        for name in self.missing_current:
            lines.append(f"  note: {name}: baseline has no current artifact")
        lines.append(
            f"bench-report: {len(self.rows)} series compared, "
            f"{len(self.regressions)} regressed"
        )
        return "\n".join(lines)


def diff_docs(
    baseline: dict, current: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[DiffRow]:
    """Per-timing-series median comparison of two BENCH documents."""
    rows = []
    for metric, series in sorted(current["timings"].items()):
        base = baseline["timings"].get(metric)
        if base is None:
            continue
        rows.append(
            DiffRow(
                bench=current["name"],
                metric=metric,
                baseline_median=float(base["median"]),
                current_median=float(series["median"]),
                threshold=threshold,
            )
        )
    return rows


def compare_dirs(
    results_dir: str | Path,
    baseline_dir: str | Path,
    threshold: float = DEFAULT_THRESHOLD,
) -> BenchReport:
    """Compare every current BENCH artifact against its baseline."""
    current = iter_bench_docs(results_dir)
    baselines = iter_bench_docs(baseline_dir)
    rows: list[DiffRow] = []
    for name in sorted(current):
        if name in baselines:
            rows.extend(diff_docs(baselines[name], current[name], threshold))
    return BenchReport(
        rows=rows,
        missing_baseline=sorted(set(current) - set(baselines)),
        missing_current=sorted(set(baselines) - set(current)),
        threshold=threshold,
    )
