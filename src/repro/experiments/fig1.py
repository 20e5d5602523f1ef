"""Figure 1: locality vs. worst-case throughput on the 8-ary 2-cube.

Reproduces (a) the optimal tradeoff curve — one locality-pinned
worst-case design LP per point — and (b) the positions of the existing
algorithms of Table 1 in that space.  Axes match the paper: horizontal
is worst-case throughput as a fraction of capacity, vertical is average
path length as a multiple of minimal.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import obs
from repro.experiments.common import ExperimentContext, fast_mode, render_table
from repro.experiments.engine import DesignTask, Engine, ensure_engine
from repro.metrics import evaluate_algorithm
from repro.routing import standard_algorithms

log = obs.get_logger(__name__)


@dataclasses.dataclass(frozen=True)
class Fig1Data:
    """Curve points and algorithm points of Figure 1."""

    curve: list[tuple[float, float]]  # (normalized length, wc throughput / cap)
    points: dict[str, tuple[float, float]]
    topology: str  # the run's torus, e.g. "8-ary 2-cube"

    def rows(self):
        rows = [("optimal", h, th) for h, th in self.curve]
        rows += [(name, h, th) for name, (h, th) in self.points.items()]
        return rows

    def render(self) -> str:
        return render_table(
            f"Figure 1: worst-case throughput vs. locality ({self.topology})",
            ["series", "H_avg / H_min", "Theta_wc / capacity"],
            self.rows(),
        )

    def plot(self) -> str:
        from repro.experiments.ascii_plot import tradeoff_plot

        return tradeoff_plot(
            "Figure 1 (worst-case tradeoff)",
            self.curve,
            self.points,
            "Theta_wc / capacity",
        )


def run(
    ctx: ExperimentContext,
    num_points: int = 11,
    engine: Engine | None = None,
) -> Fig1Data:
    """Compute Figure 1's data.

    ``num_points`` controls the resolution of the optimal curve between
    minimal locality (1.0) and VAL's locality (2.0).  Curve points are
    independent LPs, dispatched through ``engine`` (parallel + cached).
    """
    if fast_mode():
        num_points = min(num_points, 5)
    engine = ensure_engine(engine)
    ratios = np.linspace(1.0, 2.0, num_points)
    results = engine.run(
        [
            DesignTask(
                kind="wc_point",
                k=ctx.torus.k,
                n=ctx.torus.n,
                ratio=float(r),
                sense="<=",
                label=f"fig1:curve@{r:.3f}",
            )
            for r in ratios
        ]
    )
    curve = [
        (float(r), ctx.capacity_load / res.load)
        for r, res in zip(ratios, results)
    ]
    log.debug("fig1: %d curve points designed", len(curve))

    points = {}
    with obs.span("fig1.score", algorithms=len(standard_algorithms(ctx.torus))):
        for name, alg in standard_algorithms(ctx.torus).items():
            m = evaluate_algorithm(alg, capacity_load=ctx.capacity_load)
            points[name] = (m.normalized_path_length, m.worst_case_vs_capacity)
    return Fig1Data(curve=curve, points=points, topology=ctx.torus.name)
