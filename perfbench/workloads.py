"""The benchmark's workloads: set-up, one timed round, and output checks.

Each workload is closed-loop from one process: a single caller runs the
program's public operations back to back (engine ``jobs=1``), so a run
fits a 2-core machine and timings do not depend on a pool.

A workload has three parts:

* ``setup(seed, work)`` builds the inputs (topology, translation group,
  capacity LP, traffic samples).  It is timed as ``setup_s``.
* ``round(state, ledger)`` is one complete pass of the workload's
  pipeline; its duration is one ``wall_s`` sample.  Every call into the
  program goes through :meth:`Ledger.op`, which times it and counts it.
  A run makes at least ``min_rounds`` rounds.  The speed of a shared
  2-core machine drifts by up to ~25% over tens of seconds, so the
  15-20 s workloads run two rounds (~30 s) to average over more of the
  drift; design-k6 keeps one ~20 s round to bound the length of a run.
* ``verify(state, outputs, ledger)`` checks the outputs of the round,
  outside the timed region.  Every check is counted; a failing check
  marks the run incorrect and is never skipped.

Program functions are looked up on their module at call time
(``worst_case.design_worst_case``, not a name imported here), so the
traced run's wrappers (:mod:`probes`) see every call.
"""

from __future__ import annotations

import dataclasses
import itertools
import shutil
import sys
import tempfile
import time
import traceback

#: Relative tolerance for "reaches 50% of capacity" (2TURN's LP
#: optimum lands ~1e-7 below 0.5).
HALF_CAPACITY_TOL = 1e-6
#: Column generation must match the full LP's optimum to this.
COLGEN_MATCH_TOL = 1e-9
#: Finite runs see a growing backlog before the analytic saturation
#: point, so brackets sit up to ~9% below it at 1000 cycles; a bracket's
#: unstable end may sit this far below theta (room for shorter runs and
#: another RNG stream).
BRACKET_BELOW = 0.2


def hidden_overload(nodes: int, cycles: int) -> float:
    """Largest relative overload a single-seed run may still call stable.

    ``SimulationResult.stable`` accepts a backlog growth of
    ``max(2 N, m / 50)`` packets over the ``m`` measured cycles (the
    first third of a run is warm-up here), and one overloaded channel's
    growth has a standard deviation of about ``sqrt(m)`` packets.
    """
    measured = cycles - cycles // 3
    return (max(2 * nodes, measured // 50) + 3 * measured**0.5) / measured


class Ledger:
    """Operation accounting for one run.

    ``attempted``/``failed`` count program operations and checks alike.
    An operation that raises counts as failed; a check that fails counts
    as failed *and* clears :attr:`correct`.  ``samples`` holds the
    duration of every successful operation, by kind.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.samples: dict[str, list[float]] = {}
        self.checks: dict[str, int] = {}
        self.failures: list[str] = []

    def sample(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(float(seconds))

    def op(self, kind: str, fn, *args, label: str = "", **kwargs):
        """Run one operation; return its result, or ``None`` if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            text = str(exc).strip()
            first = text.splitlines()[0] if text else ""
            self.failures.append(f"{kind} {label}: {type(exc).__name__}: {first}")
            if not isinstance(exc, RuntimeError):  # not a program-reported failure
                traceback.print_exc(file=sys.stderr)
            return None
        self.sample(kind, time.perf_counter() - t0)
        return out

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.attempted += 1
        self.checks[name] = self.checks.get(name, 0) + 1
        if not passed:
            self.failed += 1
            self.correct = False
            self.failures.append(f"check {name}: {detail}")


class WorkDir:
    """Scratch directories inside the checkout, removed on close."""

    def __init__(self, root) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="work-", dir=root)

    def fresh(self) -> str:
        return tempfile.mkdtemp(dir=self.path)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def _bracket_check(ledger, lower, upper, theta, label, nodes, cycles) -> None:
    """``upper >= theta (1 - BRACKET_BELOW)`` and
    ``lower <= theta (1 + hidden_overload)``, theta capped at rate 1."""
    target = min(theta, 1.0)
    ok = lower <= target * (1 + hidden_overload(nodes, cycles)) and upper >= target * (
        1 - BRACKET_BELOW
    )
    ledger.check(
        "bracket-vs-theta",
        ok,
        f"{label}: bracket [{lower:.4f}, {upper:.4f}] vs theta {theta:.4f}",
    )


# ----------------------------------------------------------------------
# design-k6
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class DesignK6:
    """The paper's design pipeline on the k-ary 2-cube: 11 certified
    design tasks on a fresh cache, scoring, then the same tasks warm.

    The design sample has 4 matrices, not ``make_context``'s 25: with 25,
    ``twoturn_avg`` alone takes ~25 s (1.86M nonzeros) at k=6.
    """

    k: int = 6
    min_rounds: int = 1
    design_samples: int = 4
    eval_samples: int = 100
    wc_ratios: tuple = (1.0, 1.25, 1.5, 1.75, 2.0)
    avg_ratios: tuple = (1.0, 1.5, 2.0)
    checks = ("lp-certificates", "frontier-monotone", "half-capacity", "warm-matches-cold")

    def setup(self, seed: int, work: WorkDir):
        from repro.experiments import common
        from repro.experiments.engine import DesignTask

        ctx = common.make_context(
            k=self.k,
            seed=seed,
            eval_samples=self.eval_samples,
            design_samples=self.design_samples,
        )
        sample = tuple(ctx.design_sample)
        tasks = [
            DesignTask(kind="wc_point", k=self.k, ratio=r, sense="<=", label=f"wc@{r}")
            for r in self.wc_ratios
        ]
        tasks += [
            DesignTask(kind="avg_point", k=self.k, ratio=r, sample=sample, label=f"avg@{r}")
            for r in self.avg_ratios
        ]
        tasks += [
            DesignTask(kind="wc_opt", k=self.k, label="wc_opt"),
            DesignTask(kind="twoturn", k=self.k, label="twoturn"),
            DesignTask(kind="twoturn_avg", k=self.k, sample=sample, label="twoturn_avg"),
        ]
        return {"ctx": ctx, "tasks": tasks, "work": work}

    def round(self, st, ledger):
        from repro import routing
        from repro.cache import DesignCache
        from repro.core import recovery
        from repro.experiments import engine as engine_mod
        from repro.metrics import summary

        ctx, tasks = st["ctx"], st["tasks"]
        torus = ctx.torus
        engine = engine_mod.Engine(
            jobs=1, cache=DesignCache(st["work"].fresh()), certify=True
        )
        cold = {
            t.label: ledger.op("design", engine.run_one, t, label=t.label) for t in tasks
        }

        algs = routing.standard_algorithms(torus)
        algs["IVAL"] = routing.IVAL(torus)
        if cold["twoturn"] is not None:
            algs["2TURN"] = cold["twoturn"].routing(torus)
        if cold["twoturn_avg"] is not None:
            algs["2TURNA"] = cold["twoturn_avg"].routing(torus)
        if cold["wc_opt"] is not None:
            algs["WC-OPTIMAL"] = recovery.routing_from_flows(
                torus, cold["wc_opt"].flows, "WC-OPTIMAL"
            )
        scores = {
            name: ledger.op(
                "eval",
                summary.evaluate_algorithm,
                alg,
                traffic_sample=ctx.eval_sample,
                capacity_load=ctx.capacity_load,
                label=name,
            )
            for name, alg in algs.items()
        }
        warm = {
            t.label: ledger.op("warm", engine.run_one, t, label=t.label) for t in tasks
        }
        return {"cold": cold, "scores": scores, "warm": warm}

    def verify(self, st, out, ledger) -> None:
        from repro.verify.certificates import Certificate

        cold, scores, warm = out["cold"], out["scores"], out["warm"]
        for label, res in cold.items():
            docs = (res.doc.get("certificates") or []) if res is not None else []
            ok = bool(docs) and all(Certificate.from_doc(d).valid for d in docs)
            ledger.check("lp-certificates", ok, f"{label}: {len(docs)} certificates")
        frontier = [cold[f"wc@{r}"] for r in self.wc_ratios]
        ok = all(r is not None for r in frontier) and all(
            b.load <= a.load * (1 + 1e-9) for a, b in zip(frontier, frontier[1:])
        )
        ledger.check(
            "frontier-monotone",
            ok,
            "wc_point loads "
            + ", ".join("-" if r is None else f"{r.load:.9g}" for r in frontier),
        )
        for name in ("VAL", "IVAL", "2TURN", "WC-OPTIMAL"):
            m = scores.get(name)
            frac = None if m is None else m.worst_case_vs_capacity
            ledger.check(
                "half-capacity",
                frac is not None and frac >= 0.5 - HALF_CAPACITY_TOL,
                f"{name}: Theta_wc/capacity {frac}",
            )
        for label, res in warm.items():
            if res is not None and cold[label] is not None:
                ledger.check(
                    "warm-matches-cold",
                    res.cache_hit and res.load == cold[label].load,
                    f"{label}: warm {res.load!r} vs cold {cold[label].load!r}",
                )


# ----------------------------------------------------------------------
# colgen-hard
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ColgenHard:
    """Column generation where the cutting-plane loop has to work
    (locality-pinned small tori) and where it is one large master
    (unpinned k=12).  ``points`` are ``(k, ratio-or-None, full-LP load)``;
    the loads were measured with ``method="full"`` (k=12 is the known
    ``k/4`` optimum).  The workload has no random input, so the seed
    does not change it."""

    points: tuple = ((4, 1.25, 1.0625), (4, 1.5, 1.0), (4, 1.75, 1.0), (12, None, 3.0))
    min_rounds: int = 2
    checks = ("colgen-matches-full-lp", "colgen-certificate")

    def setup(self, seed: int, work: WorkDir):
        from repro.topology.symmetry import TranslationGroup
        from repro.topology.torus import Torus

        tori = {}
        for k, _, _ in self.points:
            if k not in tori:
                torus = Torus(k, 2)
                tori[k] = (torus, TranslationGroup(torus))
        return {"tori": tori}

    def round(self, st, ledger):
        from repro.core import worst_case
        from repro.verify import colgen

        out = []
        for k, ratio, _ in self.points:
            torus, group = st["tori"][k]
            label = f"k={k} ratio={ratio}"
            pin = {}
            if ratio is not None:
                pin = {
                    "locality_hops": ratio * torus.mean_min_distance(),
                    "locality_sense": "<=",
                }
            design = ledger.op(
                "design",
                worst_case.design_worst_case,
                torus,
                group=group,
                method="colgen",
                label=label,
                **pin,
            )
            report = None
            if design is not None:
                report = ledger.op(
                    "certify",
                    colgen.certify_colgen_design,
                    torus,
                    design.flows,
                    bound=design.worst_case_load,
                    lower_bound=design.colgen.lower_bound,
                    group=group,
                    lexicographic=design.colgen.stage2_iterations > 0,
                    label=label,
                )
            out.append((design, report))
        return out

    def verify(self, st, out, ledger) -> None:
        for (k, ratio, reference), (design, report) in zip(self.points, out):
            label = f"k={k} ratio={ratio}"
            load = None if design is None else design.worst_case_load
            ledger.check(
                "colgen-matches-full-lp",
                load is not None and abs(load - reference) <= COLGEN_MATCH_TOL,
                f"{label}: colgen {load!r} vs full LP {reference!r}",
            )
            ledger.check(
                "colgen-certificate",
                report is not None and report.passed,
                f"{label}: " + ("no report" if report is None else report.render()),
            )


# ----------------------------------------------------------------------
# faults-k4
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class FaultsK4:
    """The ``faults`` experiment's public ``run``: exact degraded
    worst case per (failures, algorithm) through the engine, then one
    saturation bracket per case on its own compiled tables.

    ``run``'s seed picks the fault sequence and the simulator seed.
    Round ``r`` of a run with seed ``s`` passes ``100 s + r``: the cost
    of a sweep depends on where the faults land, so each round walks its
    own sequence and ``wall_s`` averages over placements."""

    k: int = 4
    min_rounds: int = 2
    failures: int = 2
    cycles: int = 500
    checks = ("sim-conservation", "faults-invariants", "bracket-vs-theta")

    def setup(self, seed: int, work: WorkDir):
        from repro import routing, traffic
        from repro.core.capacity import solve_capacity
        from repro.topology.symmetry import TranslationGroup
        from repro.topology.torus import Torus

        torus = Torus(self.k, 2)
        group = TranslationGroup(torus)
        return {
            "seeds": itertools.count(100 * int(seed)),
            "torus": torus,
            "capacity_load": solve_capacity(torus, group).load,
            "traffic": traffic.uniform(torus.num_nodes),
            "bases": {
                "DOR": routing.DimensionOrderRouting(torus),
                "VAL": routing.VAL(torus),
                "IVAL": routing.IVAL(torus),
            },
            "theta": {},
            "work": work,
        }

    def round(self, st, ledger):
        from repro.cache import DesignCache
        from repro.experiments import engine as engine_mod
        from repro.experiments import faults

        engine = engine_mod.Engine(jobs=1, cache=DesignCache(st["work"].fresh()))
        data = ledger.op(
            "faults-run",
            faults.run,
            k=self.k,
            seed=next(st["seeds"]),
            engine=engine,
            failures=self.failures,
            reroute="detour",
            cycles=self.cycles,
        )
        for m in engine.metrics:
            if m.kind == "fault_wc" and not m.cache_hit:
                ledger.sample("eval", m.solve_time)
        return {"data": data, "engine": engine}

    def _theta(self, st, engine, alg, faulted) -> float:
        """Analytic uniform-traffic throughput of the rerouted algorithm
        (memoized: the intact torus and shared prefixes recur)."""
        from repro import faults
        from repro.experiments.engine import DesignTask
        from repro.metrics import channel_load

        key = (alg, faulted)
        if key not in st["theta"]:
            bases = st["bases"]
            if alg not in bases:  # 2TURN: the design the run just cached
                bases[alg] = engine.run_one(
                    DesignTask(kind="twoturn", k=self.k, n=2)
                ).routing(st["torus"])
            degraded = faults.degrade(st["torus"], faults.FaultSet(channels=faulted))
            rerouted = faults.degrade_routing(bases[alg], degraded, mode="detour")
            st["theta"][key] = channel_load.throughput(
                channel_load.general_max_load(
                    degraded.bandwidth, rerouted.full_flows(), st["traffic"]
                )
            )
        return st["theta"][key]

    def verify(self, st, out, ledger) -> None:
        """The invariants ``benchmarks/test_bench_faults.py`` asserts, VAL
        at half capacity on the intact torus, and every bracket against
        the analytic throughput of its rerouted algorithm."""
        data = out["data"]
        if data is None:
            ledger.check("faults-invariants", False, "faults run failed")
            return
        rows = data.rows()
        by_case = {(f, alg): (theta, lo, hi) for f, alg, theta, lo, hi in rows}
        ledger.check(
            "faults-invariants",
            len(rows) == (self.failures + 1) * 4
            and all(theta > 0.0 for _, _, theta, _, _ in rows),
            f"{len(rows)} rows, Theta_wc {[round(r[2], 6) for r in rows]}",
        )
        val0, dor0 = by_case[(0, "VAL")][0], by_case[(0, "DOR")][0]
        ledger.check("faults-invariants", val0 >= dor0, f"f=0: VAL {val0} vs DOR {dor0}")
        half = 0.5 / st["capacity_load"]
        ledger.check(
            "faults-invariants",
            val0 >= half * (1 - HALF_CAPACITY_TOL),
            f"f=0: VAL Theta_wc {val0} vs half capacity {half}",
        )
        for alg in ("DOR", "VAL", "IVAL", "2TURN"):
            worst, intact = by_case[(self.failures, alg)][2], by_case[(0, alg)][2]
            ledger.check(
                "faults-invariants",
                worst <= intact + 0.1,
                f"{alg}: sat_hi {worst} at f={self.failures} vs {intact} at f=0",
            )
        for f, alg, _, lo, hi in rows:
            theta = self._theta(st, out["engine"], alg, data.fault_sequence[:f])
            _bracket_check(ledger, lo, hi, theta, f"{alg}@{f}", self.k**2, self.cycles)


#: Workload name -> (full-size instance, tiny instance for smoke tests).
WORKLOADS = {
    "design-k6": (
        DesignK6(),
        DesignK6(k=4, design_samples=2, eval_samples=4, wc_ratios=(1.0, 2.0), avg_ratios=(1.5,)),
    ),
    "colgen-hard": (
        ColgenHard(),
        ColgenHard(points=((4, 1.75, 1.0), (4, None, 1.0)), min_rounds=1),
    ),
    "faults-k4": (FaultsK4(), FaultsK4(failures=1, cycles=150, min_rounds=1)),
}
