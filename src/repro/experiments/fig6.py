"""Figure 6: locality vs. average-case throughput on the 8-ary 2-cube.

The optimal curve solves the locality-pinned average-case LP (15) per
point over the (sparse) *design* sample; every algorithm point — the
Table 1 algorithms, IVAL, 2TURN, and the purpose-built 2TURNA — is then
scored on the shared, larger *evaluation* sample, so designed algorithms
are compared out-of-sample exactly like the hand-built ones.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import obs
from repro.core.recovery import routing_from_flows
from repro.experiments.common import ExperimentContext, fast_mode, render_table
from repro.experiments.engine import DesignTask, Engine, ensure_engine
from repro.metrics import average_case_load, evaluate_algorithm
from repro.routing import IVAL, standard_algorithms

log = obs.get_logger(__name__)


@dataclasses.dataclass(frozen=True)
class Fig6Data:
    curve: list[tuple[float, float]]  # (normalized length, avg throughput / cap)
    points: dict[str, tuple[float, float]]
    max_average_throughput: float  # best over the curve, fraction of capacity
    topology: str  # the run's torus, e.g. "8-ary 2-cube"

    def rows(self):
        rows = [("optimal", h, th) for h, th in self.curve]
        rows += [(name, h, th) for name, (h, th) in self.points.items()]
        return rows

    def render(self) -> str:
        body = render_table(
            f"Figure 6: average-case throughput vs. locality ({self.topology})",
            ["series", "H_avg / H_min", "Theta_avg / capacity"],
            self.rows(),
        )
        gaps = "\n".join(
            f"  {name}: {th / self.max_average_throughput - 1.0:+.1%} vs max"
            for name, (_, th) in sorted(self.points.items())
        )
        return (
            f"{body}\n"
            f"max average-case throughput: "
            f"{self.max_average_throughput:.3f} of capacity\n{gaps}"
        )

    def plot(self) -> str:
        from repro.experiments.ascii_plot import tradeoff_plot

        return tradeoff_plot(
            "Figure 6 (average-case tradeoff)",
            self.curve,
            self.points,
            "Theta_avg / capacity",
        )


def run(
    ctx: ExperimentContext,
    num_points: int = 9,
    engine: Engine | None = None,
) -> Fig6Data:
    """Compute Figure 6's curve and algorithm points.

    Curve points and the 2TURN-family designs are independent LPs,
    dispatched through ``engine`` (parallel + cached).
    """
    if fast_mode():
        num_points = min(num_points, 4)
    engine = ensure_engine(engine)
    ratios = np.linspace(1.0, 2.0, num_points)
    k, n = ctx.torus.k, ctx.torus.n
    sample = tuple(ctx.design_sample)

    # Optimal tradeoff curve: design on the design sample, score each
    # design on the evaluation sample.  The two 2TURN-family designs
    # ride in the same batch so a parallel engine overlaps them.
    tasks = [
        DesignTask(
            kind="avg_point",
            k=k,
            n=n,
            ratio=float(ratio),
            sense="<=",
            sample=sample,
            label=f"fig6:curve@{ratio:.3f}",
        )
        for ratio in ratios
    ]
    tasks.append(DesignTask(kind="twoturn", k=k, n=n, label="fig6:2TURN"))
    tasks.append(
        DesignTask(kind="twoturn_avg", k=k, n=n, sample=sample, label="fig6:2TURNA")
    )
    results = engine.run(tasks)

    curve = []
    with obs.span("fig6.curve-eval", points=len(ratios)):
        for ratio, res in zip(ratios, results):
            alg = routing_from_flows(ctx.torus, res.flows, f"avg-opt@{ratio:.2f}")
            load = average_case_load(alg, ctx.eval_sample)
            curve.append((float(ratio), ctx.capacity_load / load))
    log.debug(
        "fig6: %d curve points scored on %d evaluation matrices",
        len(curve),
        len(ctx.eval_sample),
    )

    points = {}
    algs = standard_algorithms(ctx.torus)
    algs["IVAL"] = IVAL(ctx.torus)
    algs["2TURN"] = results[-2].routing(ctx.torus)
    algs["2TURNA"] = results[-1].routing(ctx.torus)
    with obs.span("fig6.score", algorithms=len(algs)):
        for name, alg in algs.items():
            m = evaluate_algorithm(
                alg,
                traffic_sample=ctx.eval_sample,
                capacity_load=ctx.capacity_load,
            )
            points[name] = (m.normalized_path_length, m.average_case_vs_capacity)

    return Fig6Data(
        curve=curve,
        points=points,
        max_average_throughput=max(th for _, th in curve),
        topology=ctx.torus.name,
    )
