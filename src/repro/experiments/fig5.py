"""Figure 5: interpolated routing algorithms in the worst-case space.

Sweeps the interpolation factor between DOR and IVAL and between DOR and
2TURN, evaluating the *exact* worst-case throughput of each mixture
(flows interpolate linearly; the worst case is re-solved per point with
the assignment evaluator).  Also reports the paper's summary statistics:
the maximum distance of each interpolated family above the optimal
locality curve.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import obs
from repro.experiments.common import ExperimentContext, fast_mode, render_table
from repro.experiments.engine import DesignTask, Engine, ensure_engine
from repro.metrics import worst_case_load
from repro.routing import DimensionOrderRouting, IVAL, Interpolated

log = obs.get_logger(__name__)


@dataclasses.dataclass(frozen=True)
class Fig5Data:
    #: per family: list of (alpha, normalized length, wc throughput / cap)
    dor_ival: list[tuple[float, float, float]]
    dor_2turn: list[tuple[float, float, float]]
    #: optimal curve samples (normalized length, wc throughput / cap)
    optimal: list[tuple[float, float]]
    #: max % above optimal locality, per family
    max_gap_ival: float
    max_gap_2turn: float
    topology: str  # the run's torus, e.g. "8-ary 2-cube"

    def rows(self):
        rows = [("DOR~IVAL", a, h, th) for a, h, th in self.dor_ival]
        rows += [("DOR~2TURN", a, h, th) for a, h, th in self.dor_2turn]
        return rows

    def render(self) -> str:
        body = render_table(
            f"Figure 5: interpolated algorithms ({self.topology})",
            ["family", "alpha", "H_avg / H_min", "Theta_wc / capacity"],
            self.rows(),
        )
        return (
            f"{body}\n"
            f"max locality gap above optimal: DOR~IVAL {self.max_gap_ival:.1%}, "
            f"DOR~2TURN {self.max_gap_2turn:.1%}"
        )

    def plot(self) -> str:
        from repro.experiments.ascii_plot import ascii_plot

        return ascii_plot(
            "Figure 5 (interpolated algorithms)",
            {
                "optimal": [(th, h) for h, th in self.optimal],
                "DOR~IVAL": [(th, h) for _, h, th in self.dor_ival],
                "DOR~2TURN": [(th, h) for _, h, th in self.dor_2turn],
            },
            xlabel="Theta_wc / capacity",
            ylabel="H_avg / H_min",
        )


def _family(ctx, first, second, alphas):
    out = []
    with obs.span(
        "fig5.family", first=first.name, second=second.name, points=len(alphas)
    ):
        for a in alphas:
            mix = Interpolated(first, second, float(a))
            wc = worst_case_load(mix.canonical_flows, ctx.torus, ctx.group)
            out.append(
                (
                    float(a),
                    mix.average_path_length() / ctx.h_min,
                    ctx.capacity_load / wc.load,
                )
            )
    return out


def _max_gap(family, optimal_curve):
    """Max relative locality excess of a family over the optimal curve,
    compared at equal worst-case throughput (linear interpolation).

    Family points whose throughput falls outside the sampled support of
    the optimal curve are excluded: ``np.interp`` would silently clamp
    them to the nearest endpoint, comparing against an optimum for a
    *different* throughput and corrupting the gap statistic.  Returns
    ``nan`` when no family point lies inside the curve's support.
    """
    ths = np.asarray([th for _, th in optimal_curve])
    hs = np.asarray([h for h, _ in optimal_curve])
    order = np.argsort(ths)
    th_lo, th_hi = float(ths[order][0]), float(ths[order][-1])
    gaps = []
    for _, h, th in family:
        if not th_lo <= th <= th_hi:
            log.debug(
                "fig5 gap: skipping point at Theta=%g outside optimal "
                "curve support [%g, %g]", th, th_lo, th_hi,
            )
            continue
        h_opt = float(np.interp(th, ths[order], hs[order]))
        gaps.append(h / h_opt - 1.0)
    return float(max(gaps)) if gaps else float("nan")


def run(
    ctx: ExperimentContext,
    num_alphas: int = 11,
    curve_points: int = 15,
    engine: Engine | None = None,
) -> Fig5Data:
    """Compute Figure 5's two interpolation families plus gap stats."""
    if fast_mode():
        num_alphas = min(num_alphas, 5)
        curve_points = min(curve_points, 6)
    engine = ensure_engine(engine)
    alphas = np.linspace(0.0, 1.0, num_alphas)
    dor = DimensionOrderRouting(ctx.torus)
    ival = IVAL(ctx.torus)
    two_turn = engine.run_one(
        DesignTask(kind="twoturn", k=ctx.torus.k, n=ctx.torus.n, label="fig5:2TURN")
    ).routing(ctx.torus)

    dor_ival = _family(ctx, ival, dor, alphas)  # alpha weights IVAL
    dor_2turn = _family(ctx, two_turn, dor, alphas)

    h_lo = 1.0
    h_hi = max(h for _, h, _ in dor_ival) + 1e-6
    ratios = np.linspace(h_lo, h_hi, curve_points)
    results = engine.run(
        [
            DesignTask(
                kind="wc_point",
                k=ctx.torus.k,
                n=ctx.torus.n,
                ratio=float(r),
                sense="<=",
                label=f"fig5:curve@{r:.3f}",
            )
            for r in ratios
        ]
    )
    optimal = [
        (float(r), ctx.capacity_load / res.load)
        for r, res in zip(ratios, results)
    ]

    return Fig5Data(
        dor_ival=dor_ival,
        dor_2turn=dor_2turn,
        optimal=optimal,
        max_gap_ival=_max_gap(dor_ival, optimal),
        max_gap_2turn=_max_gap(dor_2turn, optimal),
        topology=ctx.torus.name,
    )
