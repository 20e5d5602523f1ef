"""Robustness sweep: failure count vs. guaranteed/saturation throughput.

The paper designs for a pristine torus; this experiment measures how
much of each algorithm's guarantee survives link failures.  For one
seeded, incrementally-grown random fault sequence (prefix ``f`` is the
network with ``f`` failed channels — each step is a real degradation of
the previous one) it reports, per failure count and per algorithm:

* the *guaranteed* throughput ``Theta_wc = 1 / gamma_wc`` of the
  rerouted algorithm, computed exactly with the general (assignment per
  channel) worst-case evaluator on the degraded network; and
* an empirical saturation bracket of the rerouted algorithm under
  uniform traffic, from the packet simulator on the degraded network.

Rerouting changes each fault prefix's path distribution (that load
concentration on the detour links is the thing being measured), so
every ``(failures, algorithm)`` case keeps its own rerouted algorithm
and its own compiled path table.  The cases still share kernel
launches: all brackets refine together through
:func:`repro.sim.saturation_throughput_batch`, whose every refinement
round runs the pending probe rates of every unfinished case × the
``--seeds`` ensemble as one launch over the stacked tables, each
replica routing on its own case's table and degraded channel set.
(Cycle-0 ``fault_schedule`` kills on one shared table were tried
instead, but dead channels *shed* load as ``lost`` packets rather than
concentrating it, so every bracket degenerated to the stable
``[1, 1]``.)

Worst-case evaluations run as ``fault_wc`` tasks through the shared
:class:`~repro.experiments.engine.Engine`, so they parallelize across
``--jobs`` workers and land in the persistent design cache keyed by the
fault-set digest.  A commodity disconnected by the reroute policy (DOR
under ``renormalize`` loses one on the first link failure) reports a
guaranteed throughput of 0 rather than failing the sweep.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import obs
from repro.constants import DEFAULT_SIM_BACKEND
from repro.experiments.common import fast_mode, render_table
from repro.experiments.engine import (
    FAULT_ALGORITHMS,
    DesignTask,
    Engine,
    FaultSpec,
    ensure_engine,
)
from repro.faults import (
    DisconnectedCommodityError,
    FaultSet,
    degrade,
    degrade_routing,
    random_faults,
)
from repro.metrics import general_worst_case_load
from repro.routing import IVAL, VAL, DimensionOrderRouting
from repro.routing.twoturn import design_2turn
from repro.sim import saturation_throughput_batch
from repro.topology.symmetry import TranslationGroup
from repro.topology.torus import Torus
from repro.traffic import uniform

log = obs.get_logger(__name__)


@dataclasses.dataclass(frozen=True)
class FaultsData:
    #: rows of (failures, algorithm, theta_wc, sat lower, sat upper)
    rows_data: list[tuple[int, str, float, float, float]]
    #: the failed-channel sequence the sweep walked (prefix per row count)
    fault_sequence: tuple[int, ...]
    reroute: str

    def rows(self):
        return self.rows_data

    def render(self) -> str:
        body = render_table(
            f"Fault sweep: throughput vs. failed channels ({self.reroute})",
            ["failures", "algorithm", "Theta_wc", "sat_lo", "sat_hi"],
            self.rows_data,
        )
        chans = ", ".join(str(c) for c in self.fault_sequence) or "none"
        return f"{body}\nfailed-channel sequence: {chans}"


def solve_fault_wc(task: DesignTask):
    """Solve of the ``fault_wc`` engine kind: a degraded routing's exact
    worst-case load.  A commodity the reroute policy disconnects (DOR
    under ``renormalize`` on any link failure) is a result, not an
    error: ``disconnected=True`` with load 0."""
    spec = task.spec
    torus = Torus(int(task.k), int(task.n), bandwidths=task.bandwidths or None)
    if spec.algorithm == "2TURN":
        design = design_2turn(torus, TranslationGroup(torus))
        base_alg, stats = design.routing, dict(design.model_stats)
    else:
        base_alg, stats = _PLAIN_ALGORITHMS[spec.algorithm](torus), {}
    degraded = degrade(torus, FaultSet(channels=spec.channels))
    routing = degrade_routing(base_alg, degraded, mode=spec.reroute)
    obs.metric_count(
        "faults.evaluations", algorithm=spec.algorithm, reroute=spec.reroute
    )
    doc = {"disconnected": True, "wc_channel": None, "num_faults": len(spec.channels)}
    try:
        wc = general_worst_case_load(degraded, routing.full_flows())
    except DisconnectedCommodityError:
        obs.metric_count("faults.disconnected", algorithm=spec.algorithm)
        # 0.0 for both: JSON (and the cache files) cannot hold inf/nan.
        return 0.0, 0.0, stats, doc
    doc.update(disconnected=False, wc_channel=int(wc.channel))
    return float(wc.load), mean_path_length(routing, degraded), stats, doc


def mean_path_length(routing, degraded) -> float:
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


#: The fault sweep's algorithms that need no design LP.
_PLAIN_ALGORITHMS = {"DOR": DimensionOrderRouting, "VAL": VAL, "IVAL": IVAL}


def _base_algorithms(torus: Torus, engine: Engine) -> dict:
    two_turn = engine.run_one(
        DesignTask(kind="twoturn", k=torus.k, n=torus.n, label="faults:2TURN")
    ).routing(torus)
    bases = {name: cls(torus) for name, cls in _PLAIN_ALGORITHMS.items()}
    return {**bases, "2TURN": two_turn}


def run(
    k: int = 4,
    seed: int = 2003,
    engine: Engine | None = None,
    failures: int = 3,
    reroute: str = "detour",
    sim_backend: str = DEFAULT_SIM_BACKEND,
    cycles: int = 3000,
    seeds: int | None = None,
) -> FaultsData:
    """Sweep 0..``failures`` failed channels on a k-ary 2-cube.

    The fault sequence is drawn once with connectivity-preserving
    rejection sampling (`repro.faults.random_faults`); failure count
    ``f`` uses its length-``f`` prefix, so each row's network is the
    previous row's with exactly one more dead channel.  ``seeds`` (CLI
    ``--seeds``) averages every saturation probe over an ensemble of
    that many consecutive seeds starting at ``seed``.
    """
    if failures < 0:
        raise ValueError("failures must be >= 0")
    if seeds is not None and seeds < 1:
        raise ValueError("seeds must be >= 1")
    iterations = 6
    if fast_mode():
        failures = min(failures, 2)
        cycles = min(cycles, 1200)
        iterations = 4
    engine = ensure_engine(engine)
    torus = Torus(k, 2)
    rng = np.random.default_rng(seed)
    sequence = random_faults(torus, rng, failures)
    bases = _base_algorithms(torus, engine)
    traffic = uniform(torus.num_nodes)

    with obs.span(
        "faults.sweep",
        k=int(k),
        failures=int(failures),
        reroute=reroute,
        backend=sim_backend,
    ):
        tasks = [
            DesignTask(
                kind="fault_wc",
                k=k,
                n=2,
                spec=FaultSpec(alg, sequence.channels[:f], reroute),
                label=f"faults:{alg}@{f}",
            )
            for f in range(failures + 1)
            for alg in FAULT_ALGORITHMS
        ]
        wc_results = engine.run(tasks)

        seed_list = (
            None if seeds is None else tuple(seed + i for i in range(seeds))
        )
        # Saturation brackets: one pooled prober call for every
        # connected case, each on its own rerouted algorithm.
        cases, case_rows = [], []
        for i, (task, result) in enumerate(zip(tasks, wc_results)):
            if not result.doc.get("disconnected"):
                degraded = degrade(torus, FaultSet(channels=task.spec.channels))
                routing = degrade_routing(
                    bases[task.spec.algorithm], degraded, mode=reroute
                )
                cases.append(((), (), routing, traffic))
                case_rows.append(i)
        ests = dict(
            zip(
                case_rows,
                saturation_throughput_batch(
                    cases=cases,
                    cycles=cycles,
                    warmup=cycles // 3,
                    iterations=iterations,
                    seed=seed,
                    seeds=seed_list,
                    backend=sim_backend,
                ),
            )
        )

        rows = []
        for i, (task, result) in enumerate(zip(tasks, wc_results)):
            f = len(task.spec.channels)
            alg = task.spec.algorithm
            disconnected = bool(result.doc.get("disconnected"))
            theta_wc = 0.0 if disconnected else 1.0 / result.load
            est = ests.get(i)
            sat_lo, sat_hi = (0.0, 0.0) if est is None else (est.lower, est.upper)
            with obs.span(
                "faults.case",
                failures=f,
                algorithm=alg,
                reroute=reroute,
                theta_wc=float(theta_wc),
                disconnected=disconnected,
            ) as sp:
                sp.set(sat_lo=float(sat_lo), sat_hi=float(sat_hi))
            obs.metric_count("faults.cases", algorithm=alg, reroute=reroute)
            rows.append((f, alg, float(theta_wc), float(sat_lo), float(sat_hi)))

    return FaultsData(
        rows_data=rows, fault_sequence=sequence.channels, reroute=reroute
    )
