"""Validation of the analytic throughput model against simulation.

Paper Section 2.1 defines throughput purely by edge congestion and
asserts (citing [5]) that an output-queued system achieves the bound.
This experiment measures, for several (algorithm, traffic) pairs, the
empirical saturation point of the simulator and compares it with
:math:`\\Theta(R, \\Lambda)` computed by the metrics layer.
"""

from __future__ import annotations

import dataclasses

from repro import obs
from repro.constants import DEFAULT_SIM_BACKEND
from repro.experiments.common import fast_mode, render_table
from repro.metrics.channel_load import canonical_max_load
from repro.routing import IVAL, DimensionOrderRouting, VAL
from repro.sim import saturation_throughput_batch
from repro.topology.symmetry import TranslationGroup
from repro.topology.torus import Torus
from repro.traffic import tornado, transpose, uniform

log = obs.get_logger(__name__)


@dataclasses.dataclass(frozen=True)
class SimValidationData:
    #: rows of (algorithm, traffic, analytic theta, sim lower, sim upper)
    rows_data: list[tuple[str, str, float, float, float]]

    def rows(self):
        return self.rows_data

    def render(self) -> str:
        return render_table(
            "Analytic vs. simulated saturation throughput",
            ["algorithm", "traffic", "analytic", "sim lower", "sim upper"],
            self.rows_data,
        )


def run(
    k: int = 4,
    cycles: int = 3000,
    seed: int = 7,
    sim_backend: str = DEFAULT_SIM_BACKEND,
    seeds: int | None = None,
    fault_schedule: tuple[tuple[int, int], ...] = (),
) -> SimValidationData:
    """Compare analytic and empirical saturation on a k-ary 2-cube.

    The default radix is small because the simulator is packet-exact;
    the analytic model is what scales.  All backends bracket through
    identical stability verdicts, so the reported brackets match across
    ``--sim-backend`` choices (the vectorized backend runs each
    refinement round of all five cases' brackets as one replica
    launch).  ``seeds`` (CLI
    ``--seeds``) averages each probe over an ensemble of that many
    consecutive seeds starting at ``seed``; ``fault_schedule`` (CLI
    ``--fault-schedule``) injects channel kills into every probe — the
    analytic column still describes the pristine torus, so expect the
    bracket to fall away from it as channels die.
    """
    if seeds is not None and seeds < 1:
        raise ValueError("seeds must be >= 1")
    if fast_mode():
        cycles = min(cycles, 1200)
    seed_list = (
        None if seeds is None else tuple(seed + i for i in range(seeds))
    )
    torus = Torus(k, 2)
    group = TranslationGroup(torus)
    cases = [
        (DimensionOrderRouting(torus), "uniform", uniform(torus.num_nodes)),
        (DimensionOrderRouting(torus), "tornado", tornado(torus)),
        (DimensionOrderRouting(torus), "transpose", transpose(torus)),
        (VAL(torus), "tornado", tornado(torus)),
        (IVAL(torus), "transpose", transpose(torus)),
    ]
    analytic = []
    for alg, traffic_name, lam in cases:
        with obs.span("sim.case", algorithm=alg.name, traffic=traffic_name):
            analytic.append(
                1.0 / canonical_max_load(torus, group, alg.canonical_flows, lam)
            )
    # Every case's bracket refines in the same launches, each replica
    # routing on its own case's (algorithm, traffic) table.
    ests = saturation_throughput_batch(
        cases=[(fault_schedule, (), alg, lam) for alg, _, lam in cases],
        cycles=cycles,
        warmup=cycles // 3,
        seed=seed,
        seeds=seed_list,
        backend=sim_backend,
    )
    rows = []
    for (alg, traffic_name, _), theta, est in zip(cases, analytic, ests):
        log.debug(
            "sim: %s/%s analytic=%.3f bracket=[%.3f, %.3f]",
            alg.name,
            traffic_name,
            theta,
            est.lower,
            est.upper,
        )
        rows.append(
            (alg.name, traffic_name, min(theta, 1.0), est.lower, est.upper)
        )
    return SimValidationData(rows_data=rows)
