"""Radix-scaling benchmark of the worst-case design LP (``design-scale``).

The full matching-dual LP (8) carries one :math:`(u, v)` potential block
per direction class with :math:`N^2` pair rows each — at ``k = 16``
(:math:`N = 256`) that is past what the dense-assembly path solves in
reasonable time, which is exactly the regime ``method="colgen"`` exists
for.  This experiment times one worst-case-optimal design per requested
radix, records the resolved formulation and column-generation loop
shape, certifies every lazy-row solve against the full constraint set
(:func:`repro.verify.colgen.certify_colgen_design`), and writes the
timings as a canonical ``BENCH_design_scale.json`` benchmark artifact
(:mod:`repro.obs.bench`) so the regression gate tracks design-solve
scaling alongside the simulator and sweep benchmarks.

Unlike the figure experiments this one bypasses the engine's design
cache on purpose: a scaling benchmark that reports cache hits would be
measuring JSON deserialization.
"""

from __future__ import annotations

import dataclasses
import time

from repro import obs
from repro.core.worst_case import design_worst_case, resolve_design_method
from repro.experiments.common import render_table
from repro.topology.symmetry import TranslationGroup
from repro.topology.torus import Torus
from repro.verify.certificates import CertificationError
from repro.verify.colgen import certify_colgen_design

log = obs.get_logger(__name__)

#: The default sweep: the paper's 8-ary 2-cube plus the two radices the
#: full formulation struggles with (k=12) or cannot reach (k=16).
DEFAULT_RADICES = (8, 12, 16)


@dataclasses.dataclass(frozen=True)
class DesignScalePoint:
    """One timed worst-case design solve."""

    k: int
    method: str  # resolved formulation, "full" or "colgen"
    theta_wc: float
    solve_seconds: float
    iterations: int  # colgen master solves (0 for the full LP)
    rows_generated: int  # full-master rows the oracle added (0 for the full LP)


@dataclasses.dataclass(frozen=True)
class DesignScaleData:
    points: tuple[DesignScalePoint, ...]
    requested_method: str

    def rows(self):
        return [
            (p.k, p.method, p.theta_wc, p.solve_seconds, p.iterations,
             p.rows_generated)
            for p in self.points
        ]

    def render(self) -> str:
        body = render_table(
            f"Worst-case design LP scaling (method={self.requested_method})",
            ["k", "method", "Theta_wc", "solve_s", "iterations", "rows"],
            self.rows(),
        )
        colgen = [p for p in self.points if p.method == "colgen"]
        if colgen:
            certified = ", ".join(
                f"k={p.k} in {p.solve_seconds:.1f}s" for p in colgen
            )
            return (
                f"{body}\nevery colgen design re-certified against the "
                f"full constraint set ({certified})"
            )
        return body


def _solve_point(k: int, method: str) -> DesignScalePoint:
    torus = Torus(k, 2)
    group = TranslationGroup(torus)
    with obs.span(
        "design_scale.point", k=int(k), nodes=int(torus.num_nodes)
    ) as sp:
        start = time.perf_counter()
        design = design_worst_case(torus, group=group, method=method)
        elapsed = time.perf_counter() - start
        if design.method == "colgen":
            report = certify_colgen_design(
                torus,
                design.flows,
                design.worst_case_load,
                lower_bound=design.colgen.lower_bound,
                group=group,
            )
            if not report.passed:
                raise CertificationError(
                    f"k={k} colgen design failed certification\n"
                    + report.render()
                )
        stats = design.colgen
        point = DesignScalePoint(
            k=int(k),
            method=design.method,
            theta_wc=1.0 / design.worst_case_load,
            solve_seconds=elapsed,
            iterations=0 if stats is None else int(stats.iterations),
            rows_generated=0 if stats is None else int(stats.rows_generated),
        )
        sp.set(method=design.method, solve_seconds=elapsed)
    return point


def run(
    k: int = 16,
    seed: int = 2003,
    engine=None,
    radices: tuple[int, ...] | None = None,
    method: str = "auto",
    bench_out: str | None = None,
) -> DesignScaleData:
    """Time one worst-case design per radix; optionally write the BENCH doc.

    ``radices`` defaults to :data:`DEFAULT_RADICES` clipped to ``k``
    (so ``--k 8`` runs a quick single-point smoke); ``method`` is the
    formulation request passed to every solve (``"auto"`` resolves per
    radix, which is the headline comparison: the full LP below the
    threshold, lazy rows above it).  ``engine`` is accepted for runner
    uniformity and ignored — see the module docstring.  ``bench_out``
    names a directory that receives ``BENCH_design_scale.json``.
    """
    del engine, seed  # deterministic LP solves; no cache, no sampling
    if radices is None:
        radices = tuple(r for r in DEFAULT_RADICES if r <= int(k)) or (int(k),)
    radices = tuple(int(r) for r in radices)
    resolve_design_method(method, 1)  # validate the name before solving
    with obs.span("design_scale.sweep", radices=list(radices), method=method):
        points = []
        for r in radices:
            point = _solve_point(r, method)
            log.info(
                "design-scale k=%d: %s in %.1fs", r, point.method,
                point.solve_seconds,
            )
            points.append(point)
    data = DesignScaleData(points=tuple(points), requested_method=method)
    if bench_out is not None:
        doc = obs.new_bench_doc(
            "design_scale",
            workload={
                "radices": list(radices),
                "method": method,
                "n": 2,
            },
            timings={
                f"k{p.k}_{p.method}": [round(p.solve_seconds, 3)]
                for p in data.points
            },
            derived={
                f"theta_wc_k{p.k}": float(p.theta_wc) for p in data.points
            },
            meta={
                "rows": [
                    {
                        "k": p.k,
                        "method": p.method,
                        "theta_wc": p.theta_wc,
                        "solve_seconds": round(p.solve_seconds, 3),
                        "iterations": p.iterations,
                        "rows_generated": p.rows_generated,
                    }
                    for p in data.points
                ]
            },
            git_rev=obs.bench.git_revision(),
        )
        path = obs.write_bench_doc(doc, bench_out)
        log.info("design-scale bench artifact -> %s", path)
    return data
