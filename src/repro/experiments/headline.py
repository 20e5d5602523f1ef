"""Headline numbers of Sections 5.2 and 5.4 on the 8-ary 2-cube.

One table with, per algorithm: normalized locality, worst-case
throughput (fraction of capacity) and average-case throughput (fraction
of capacity, on the shared evaluation sample).  The paper's comparison
points: VAL 2.0x / 50% / 50%; IVAL ~1.61x at 50% worst-case; 2TURN
~1.48x at 50%; optimal locality just below 1.48; DOR best minimal
worst case.
"""

from __future__ import annotations

import dataclasses

from repro import obs
from repro.experiments.common import ExperimentContext, render_table
from repro.experiments.engine import DesignTask, Engine, ensure_engine
from repro.metrics import evaluate_algorithm
from repro.routing import IVAL, standard_algorithms
from repro.core.recovery import routing_from_flows

log = obs.get_logger(__name__)


@dataclasses.dataclass(frozen=True)
class HeadlineData:
    #: name -> (normalized locality, wc/cap, avg/cap)
    table: dict[str, tuple[float, float, float]]
    topology: str  # the run's torus, e.g. "8-ary 2-cube"

    def rows(self):
        return [(n, *vals) for n, vals in self.table.items()]

    def render(self) -> str:
        return render_table(
            f"Sections 5.2/5.4 headline metrics ({self.topology})",
            [
                "algorithm",
                "H_avg / H_min",
                "Theta_wc / capacity",
                "Theta_avg / capacity",
            ],
            self.rows(),
        )


def run(ctx: ExperimentContext, engine: Engine | None = None) -> HeadlineData:
    """Evaluate every algorithm the paper discusses, plus the LP-optimal
    worst-case design recovered as an explicit routing table.

    The three LP designs (2TURN, 2TURNA, WC-OPTIMAL) run as one engine
    batch, so they solve concurrently under a parallel engine and come
    back free from a warm cache.
    """
    engine = ensure_engine(engine)
    k, n = ctx.torus.k, ctx.torus.n
    two_turn, two_turn_avg, wc_opt = engine.run(
        [
            DesignTask(kind="twoturn", k=k, n=n, label="headline:2TURN"),
            DesignTask(
                kind="twoturn_avg",
                k=k,
                n=n,
                sample=tuple(ctx.design_sample),
                label="headline:2TURNA",
            ),
            DesignTask(kind="wc_opt", k=k, n=n, label="headline:wc-optimal"),
        ]
    )

    algs = standard_algorithms(ctx.torus)
    algs["IVAL"] = IVAL(ctx.torus)
    algs["2TURN"] = two_turn.routing(ctx.torus)
    algs["2TURNA"] = two_turn_avg.routing(ctx.torus)
    algs["WC-OPTIMAL"] = routing_from_flows(ctx.torus, wc_opt.flows, "WC-OPTIMAL")

    table = {}
    with obs.span("headline.score", algorithms=len(algs)):
        for name, alg in algs.items():
            log.debug("headline: scoring %s", name)
            m = evaluate_algorithm(
                alg,
                traffic_sample=ctx.eval_sample,
                capacity_load=ctx.capacity_load,
            )
            table[name] = (
                m.normalized_path_length,
                m.worst_case_vs_capacity,
                m.average_case_vs_capacity,
            )
    return HeadlineData(table=table, topology=ctx.torus.name)
