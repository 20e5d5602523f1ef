"""Rotor sweep: phase count vs. guaranteed/saturation throughput.

For a round-robin rotor emulation of the complete digraph on ``k**2``
nodes (ROADMAP item 2), sweep the number of phases ``P`` and report,
per phase count and per oblivious scheme (VLB-on-rotor, ORN):

* the *guaranteed* throughput ``Theta_wc = 1 / gamma_bar`` from the
  phase-averaged assignment dual
  (:func:`repro.rotor.periodic_eval.periodic_worst_case_load`),
  computed as certified ``rotor_wc`` tasks through the shared engine —
  cache-keyed by schedule digest + scheme; and
* an empirical saturation bracket under uniform traffic, from the
  packet simulator driving the schedule's compiled ``link_schedule``
  through the selected backend.

Each scheme's routing depends only on the (deterministically
constructed) complete base digraph, not on the phase count, so one
algorithm object serves every ``P`` and the whole sweep runs through
one :func:`repro.sim.saturation_throughput_batch` call: per refinement
round, every (scheme, phase count) probe (× the seed ensemble) batches
into one replica launch over the schemes' stacked path tables, each
replica carrying its own per-phase ``link_schedule``.

``P = 1`` is the static complete graph (every channel always up) — the
baseline each rotation is judged against.
"""

from __future__ import annotations

import dataclasses

from repro import obs
from repro.constants import DEFAULT_SIM_BACKEND
from repro.experiments.common import fast_mode, render_table
from repro.experiments.engine import (
    ROTOR_SCHEMES,
    DesignTask,
    Engine,
    RotorSpec,
    ensure_engine,
)
from repro.rotor import (
    ORNRouting,
    RotorSchedule,
    VLBOnRotor,
    certify_periodic_worst_case,
    periodic_worst_case_load,
)
from repro.sim import saturation_throughput_batch
from repro.traffic import uniform

log = obs.get_logger(__name__)


@dataclasses.dataclass(frozen=True)
class RotorData:
    #: rows of (phases, scheme, theta_wc, sat lower, sat upper)
    rows_data: list[tuple[int, str, float, float, float]]
    k: int
    period: int

    def rows(self):
        return self.rows_data

    def render(self) -> str:
        body = render_table(
            f"Rotor sweep: throughput vs. phases "
            f"(n={self.k**2}, period={self.period})",
            ["phases", "scheme", "Theta_wc", "sat_lo", "sat_hi"],
            self.rows_data,
        )
        return f"{body}\nphases=1 is the static complete graph baseline"


def _scheme_algorithm(scheme: str, base, k: int):
    """Routing for ``scheme`` over the shared complete base digraph
    (phase-independent, so one object serves the whole sweep)."""
    if scheme == "VLBR":
        return VLBOnRotor(base)
    return ORNRouting(base, k=k)


def solve_rotor_wc(task: DesignTask):
    """Solve of the ``rotor_wc`` engine kind: a scheme's phase-averaged
    worst-case load, certified
    (:func:`repro.rotor.certify.certify_periodic_worst_case`) before it
    can reach the cache, so a bad evaluator never poisons an entry."""
    spec = task.spec
    schedule = spec.schedule(int(task.k))
    alg = _scheme_algorithm(spec.scheme, schedule.base, int(task.k))
    obs.metric_count("rotor.evaluations", scheme=spec.scheme)
    flows = alg.full_flows()
    result = periodic_worst_case_load(schedule, flows)
    report = certify_periodic_worst_case(schedule, flows, result)
    if not report.passed:
        raise ValueError(
            "periodic worst-case certificate failed\n" + report.render()
        )
    fields = {
        "scheme": spec.scheme,
        "num_phases": int(schedule.num_phases),
        "schedule_digest": schedule.digest(),
        "phase_loads": [float(r.load) for r in result.phase_results],
        "wc_channels": [int(r.channel) for r in result.phase_results],
    }
    return float(result.load), alg.average_path_length(), {}, fields


def run(
    k: int = 4,
    seed: int = 2003,
    engine: Engine | None = None,
    phases: int = 4,
    period: int = 16,
    scheme: str | None = None,
    sim_backend: str = DEFAULT_SIM_BACKEND,
    cycles: int = 3000,
    seeds: int | None = None,
) -> RotorData:
    """Sweep 1..``phases`` rotor phases on ``k**2`` nodes.

    ``period`` is the cycle budget for one full rotation; each phase
    count ``P`` divides it into ``max(1, period // P)``-cycle phases.
    ``scheme`` restricts the sweep to one of :data:`ROTOR_SCHEMES`
    (default: both).  ``seeds`` (CLI ``--seeds``) averages every
    saturation probe over an ensemble of that many consecutive seeds
    starting at ``seed``.
    """
    if phases < 1:
        raise ValueError("phases must be >= 1")
    if seeds is not None and seeds < 1:
        raise ValueError("seeds must be >= 1")
    if phases > k**2 - 1:
        raise ValueError(
            f"round-robin on {k**2} nodes supports at most {k**2 - 1} phases"
        )
    if period < 1:
        raise ValueError("period must be >= 1")
    schemes = ROTOR_SCHEMES if scheme is None else (scheme,)
    for s in schemes:
        if s not in ROTOR_SCHEMES:
            raise ValueError(f"unknown scheme {s!r}; choose from {ROTOR_SCHEMES}")
    iterations = 6
    if fast_mode():
        phases = min(phases, 2)
        cycles = min(cycles, 1200)
        iterations = 4
    engine = ensure_engine(engine)
    traffic = uniform(k**2)

    with obs.span(
        "rotor.sweep",
        k=int(k),
        phases=int(phases),
        period=int(period),
        backend=sim_backend,
    ):
        tasks = [
            DesignTask(
                kind="rotor_wc",
                k=k,
                spec=RotorSpec(s, p, phase_length=max(1, period // p)),
                label=f"rotor:{s}@P{p}",
            )
            for p in range(1, phases + 1)
            for s in schemes
        ]
        wc_results = engine.run(tasks)

        # Saturation brackets: one pooled prober call for every scheme
        # and phase count.  The round-robin base digraph is constructed
        # deterministically, so every phase count's link events index
        # the same channel ids and each (scheme, P) becomes a
        # ((), link_schedule, algorithm, traffic) case — one compiled
        # path table per scheme.
        base = RotorSchedule.round_robin(k**2, 1, max(1, period)).base
        seed_list = (
            None if seeds is None else tuple(seed + i for i in range(seeds))
        )
        algorithms = {s: _scheme_algorithm(s, base, k) for s in schemes}
        ests = saturation_throughput_batch(
            cases=[
                (
                    (),
                    t.spec.schedule(k).link_events(cycles),
                    algorithms[t.spec.scheme],
                    traffic,
                )
                for t in tasks
            ],
            cycles=cycles,
            warmup=cycles // 3,
            iterations=iterations,
            seed=seed,
            seeds=seed_list,
            backend=sim_backend,
        )

        rows = []
        for task, result, est in zip(tasks, wc_results, ests):
            theta_wc = 1.0 / result.load
            spec = task.spec
            with obs.span(
                "rotor.point",
                phases=int(spec.phases),
                scheme=spec.scheme,
                theta_wc=float(theta_wc),
            ) as sp:
                sp.set(sat_lo=float(est.lower), sat_hi=float(est.upper))
            obs.metric_count("rotor.cases", scheme=spec.scheme)
            rows.append(
                (
                    int(spec.phases),
                    spec.scheme,
                    float(theta_wc),
                    float(est.lower),
                    float(est.upper),
                )
            )

    return RotorData(rows_data=rows, k=int(k), period=int(period))
