"""Worst-case-optimal routing design — LP (8), problem (10).

The worst-case channel load :math:`\\gamma_{wc}(R)` is the maximum,
over all permutations, of the maximum channel load.  Two equivalent
formulations are implemented behind one entry point:

* ``method="full"`` — the paper's polynomial conversion: per channel,
  the dual of the maximum-weight matching problem (Appendix) bounds
  every permutation at once through potentials ``u_s`` / ``v_d``.
* ``method="colgen"`` — lazy constraint (column/row) generation over
  the *primal* permutation rows: a restricted master problem carries
  only flow conservation plus a small seed of permutation rows, and a
  separation oracle (one exact Hungarian assignment per direction
  class, :func:`repro.metrics.worst_case_eval.separate_worst_case`)
  appends the most-violated adversarial permutation until none exceeds
  :data:`repro.constants.COLGEN_VIOLATION_TOL`.  Because the master is
  a relaxation (fewer rows) and termination proves the returned flows
  feasible for the *full* constraint set, the converged bound equals
  the full LP's optimum — see :mod:`repro.verify.colgen` for the
  machine-checked version of that argument.

``method="auto"`` picks column generation only for an unpinned,
single-stage design of at least
:data:`repro.constants.COLGEN_AUTO_NODE_THRESHOLD` nodes (radix 10 on
the 2-D torus), the one case where it beats the full LP on the orbit
quotient.  Pinned and lexicographic designs solve on the full LP at
every size.

A second, lexicographic stage recovers maximum locality among the
worst-case-optimal algorithms — the designs whose existence motivates
IVAL and 2TURN (Section 5.2).  Stage 2 re-solves the stage-1 full model
in place with ``w`` capped.  Column generation solves one stage only:
its cutting-plane anchor cannot close a locality objective, so
``method="colgen"`` with ``minimize_locality=True`` is rejected.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import obs
from repro.constants import (
    COLGEN_AUTO_NODE_THRESHOLD,
    COLGEN_MAX_ITERATIONS,
    COLGEN_VIOLATION_TOL,
    LEXICOGRAPHIC_SLACK,
    SOLVER_DUST,
)
from repro.core.flows import CanonicalFlowProblem
from repro.topology.symmetry import (
    TranslationGroup,
    stabilizer_maps,
    symmetrize_canonical_flows,
)
from repro.topology.torus import Torus

__all__ = [
    "LEXICOGRAPHIC_SLACK",
    "ColGenError",
    "ColGenStats",
    "DESIGN_METHODS",
    "RestrictedMasterProblem",
    "WorstCaseDesign",
    "design_worst_case",
    "resolve_design_method",
]

#: Strategies accepted by ``design_worst_case(method=...)``.
DESIGN_METHODS = ("auto", "full", "colgen")

#: Solver-name strings callers used to pass as ``method`` before the
#: parameter was split into strategy (``method``) and LP backend
#: (``solver``); caught with a pointed error instead of a KeyError.
_SOLVER_NAMES = ("highs", "highs-ds", "highs-ipm")


def resolve_design_method(
    method: str,
    num_nodes: int,
    locality_hops: float | None = None,
    minimize_locality: bool = False,
) -> str:
    """Resolve ``"auto"`` to ``"full"`` or ``"colgen"``.

    ``auto`` picks column generation only for an unpinned
    (``locality_hops is None``), single-stage design with
    ``num_nodes >= COLGEN_AUTO_NODE_THRESHOLD``; every pinned or
    lexicographic design goes to the full LP.  An explicit ``"colgen"``
    with ``minimize_locality`` raises: column generation has one stage.
    """
    if method in _SOLVER_NAMES:
        raise ValueError(
            f"method={method!r} is an LP solver name; pass it as solver=... "
            f"(method selects the formulation: {DESIGN_METHODS})"
        )
    if method not in DESIGN_METHODS:
        raise ValueError(
            f"unknown design method {method!r}; choose from {DESIGN_METHODS}"
        )
    if method == "colgen" and minimize_locality:
        raise ValueError(
            "method='colgen' solves single-stage designs only; use "
            "method='full' or 'auto' with minimize_locality=True"
        )
    if method != "auto":
        return method
    single_stage = locality_hops is None and not minimize_locality
    large = int(num_nodes) >= COLGEN_AUTO_NODE_THRESHOLD
    return "colgen" if single_stage and large else "full"


class ColGenError(RuntimeError):
    """Column generation stopped before reaching a certified optimum.

    The partial state rides on the exception — ``flows``, the master
    bound ``w`` and the residual ``max_violation`` — so callers (and
    the adversarial certificate tests) can inspect exactly what an
    unconverged master would have claimed.
    """

    def __init__(
        self,
        reason: str,
        iterations: int,
        rows_generated: int,
        bound: float,
        flows: np.ndarray,
        max_violation: float,
    ) -> None:
        super().__init__(
            f"column generation failed after {iterations} iterations "
            f"({rows_generated} rows generated, bound {bound:.9g}, "
            f"max violation {max_violation:.3e}): {reason}"
        )
        self.iterations = iterations
        self.rows_generated = rows_generated
        self.bound = float(bound)
        self.flows = flows
        self.max_violation = float(max_violation)


@dataclasses.dataclass(frozen=True)
class ColGenStats:
    """Shape of one converged column-generation run.

    ``oracle_load`` is the exact Hungarian worst case of the returned
    flows (measured by the final separation pass) and ``lower_bound`` is
    the restricted master's optimum — a valid lower bound on the full
    LP because the master is a relaxation.  Their relative gap is at
    most :data:`repro.constants.COLGEN_VIOLATION_TOL`, which is the
    machine-checkable optimality certificate
    (:func:`repro.verify.colgen.certify_colgen_design` re-derives it).
    ``rows_generated`` counts the rows added for oracle-separated
    permutations, each with its point-group orbit, and ``seeded_rows``
    the cyclic-shift adversaries; both count rows of the full master,
    not of its orbit quotient.  ``stage2_iterations`` is always 0: the
    loop has one stage, and the field stays for the cache docs and
    certificate rechecks of designs that ran a lexicographic stage 2.
    """

    iterations: int
    stage2_iterations: int
    rows_generated: int
    seeded_rows: int
    oracle_load: float
    lower_bound: float

    def to_doc(self) -> dict:
        return {
            "iterations": int(self.iterations),
            "stage2_iterations": int(self.stage2_iterations),
            "rows_generated": int(self.rows_generated),
            "seeded_rows": int(self.seeded_rows),
            "oracle_load": float(self.oracle_load),
            "lower_bound": float(self.lower_bound),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ColGenStats":
        return cls(
            iterations=int(doc["iterations"]),
            stage2_iterations=int(doc["stage2_iterations"]),
            rows_generated=int(doc["rows_generated"]),
            seeded_rows=int(doc["seeded_rows"]),
            oracle_load=float(doc["oracle_load"]),
            lower_bound=float(doc["lower_bound"]),
        )


@dataclasses.dataclass(frozen=True)
class WorstCaseDesign:
    """A worst-case-optimal (optionally locality-constrained) design.

    ``worst_case_load`` is the worst-case load of the *returned* flows:
    the LP bound variable ``w`` for a single-stage solve, or the exact
    re-measured load of the stage-2 flows for a lexicographic solve (the
    stage-2 model only caps ``w``, so its own ``w`` value need not be
    tight).  ``avg_path_length`` is in hops.  ``method`` records the
    formulation that produced the design (``"full"`` or ``"colgen"``);
    ``colgen`` carries the loop's :class:`ColGenStats` when lazy rows
    were used.  Use :func:`repro.core.recovery.routing_from_flows` to
    materialize the flows as a runnable routing algorithm.
    """

    flows: np.ndarray
    worst_case_load: float
    avg_path_length: float
    model_stats: dict
    method: str = "full"
    colgen: ColGenStats | None = None

    @property
    def worst_case_throughput(self) -> float:
        return 1.0 / self.worst_case_load


def _build(
    torus: Torus,
    group: TranslationGroup | None,
    locality_hops: float | None,
    locality_sense: str,
):
    prob = CanonicalFlowProblem(torus, group, name="worst-case-design")
    w = prob.model.add_variables("w", 1)
    prob.worst_case_constraints((int(w.indices()[0]), 1.0))
    if locality_hops is not None:
        prob.add_locality_constraint(locality_hops, locality_sense)
    prob.declare_point_symmetry()
    return prob, w


class RestrictedMasterProblem:
    """Restricted master of the column-generation worst-case design.

    Flow conservation (and the optional locality pin) plus an explicit,
    growing set of permutation rows: for direction-class representative
    :math:`\\hat c` and permutation :math:`\\pi`,

    .. math:: \\sum_s x_{\\pi(s)-s,\\, \\hat c - s} \\le b_{\\hat c}\\, w.

    Translation invariance makes the same row bound every channel of
    the class (with :math:`\\pi` translated), so one row per class
    covers the whole orbit — the same reduction the full formulation
    uses.  ``seed_rows`` installs the ``n-1`` cyclic-shift permutations
    per class (the classic torus adversaries, tornado included), which
    cuts the loop's first iterations; rows are deduplicated so a
    re-separated permutation is never added twice.

    The master is kept invariant under the torus point group
    (:func:`~repro.topology.symmetry.stabilizer_maps`): :meth:`add_row`
    adds a row's whole orbit :math:`(g(\\hat c), g \\circ \\pi \\circ
    g^{-1})`, and the seed set is closed already, so the model declares
    the group and every solve runs on its orbit quotient, the generated
    rows appended to it warm.  Its vertices are therefore
    point-symmetric.
    """

    def __init__(
        self,
        torus: Torus,
        group: TranslationGroup | None = None,
        locality_hops: float | None = None,
        locality_sense: str = "==",
        seed_rows: bool = True,
    ) -> None:
        self.torus = torus
        self.group = group if group is not None else TranslationGroup(torus)
        self.prob = CanonicalFlowProblem(
            torus, self.group, name="worst-case-colgen"
        )
        self.w = self.prob.model.add_variables("w", 1)
        self.w_col = int(self.w.indices()[0])
        if locality_hops is not None:
            self.prob.add_locality_constraint(locality_hops, locality_sense)
        self.prob.declare_point_symmetry()
        self.maps = stabilizer_maps(torus)
        self._keys: set[tuple[int, bytes]] = set()
        #: permutation rows, seeded then generated, in insertion order
        self.rows: list[tuple[int, np.ndarray]] = []
        self.seeded_rows = self._seed() if seed_rows else 0

    @property
    def model(self):
        return self.prob.model

    def _seed(self) -> int:
        # Shift by t maps to shift by g(t) under point map g, so the set
        # of all shifts per class is closed: no orbit to add.
        return self._append(
            (rep, self.group.node_sum[:, t])
            for rep in map(int, self.torus.class_representatives())
            for t in range(1, self.torus.num_nodes)
        )

    def add_row(self, channel: int, permutation: np.ndarray) -> int:
        """Append the point-group orbit of one permutation row; returns
        how many of its rows were new (0 if all were present)."""
        return self.add_rows([(channel, permutation)])

    def add_rows(self, rows) -> int:
        """Append the point-group orbits of ``(channel, permutation)``
        rows as one batch; returns how many rows were new."""
        images = []
        for channel, permutation in rows:
            perm = np.asarray(permutation, dtype=np.int64)
            for g in self.maps:
                # (g∘π∘g⁻¹)(g(s)) = g(π(s))
                image = np.empty_like(perm)
                image[g.node_map] = g.node_map[perm]
                images.append((int(g.channel_map[int(channel)]), image))
        return self._append(images)

    def _append(self, rows) -> int:
        """Append the ``(channel, permutation)`` rows not yet present as
        one batch; returns how many that was."""
        fresh = []
        for channel, perm in rows:
            key = (int(channel), perm.tobytes())
            if key not in self._keys:
                self._keys.add(key)
                fresh.append((int(channel), perm))
        if not fresh:
            return 0
        torus, group = self.torus, self.group
        n, ncls = torus.num_nodes, torus.num_classes
        channels = np.array([c for c, _ in fresh])
        perms = np.stack([p for _, p in fresh])
        sources = np.arange(n)
        t = group.node_diff[perms, sources]  # commodity d - s per source
        node = channels[:, None] // ncls
        chan_from_s = group.node_diff[node, sources] * ncls + channels[:, None] % ncls
        cols = np.hstack(
            [self.prob.x.index(t, chan_from_s), np.full((len(fresh), 1), self.w_col)]
        )
        vals = np.hstack(
            [np.ones((len(fresh), n)), -torus.bandwidth[channels][:, None]]
        )
        self.model.add_le_batch(
            np.repeat(np.arange(len(fresh)), n + 1),
            cols.ravel(),
            vals.ravel(),
            np.zeros(len(fresh)),
        )
        self.rows.extend(fresh)
        return len(fresh)

    def solve(self, solver: str = "highs-ds", attrs: dict | None = None):
        """Solve the current master; returns ``(solution, w, flows)``."""
        sol = self.model.solve(method=solver, attrs=attrs)
        return sol, float(sol[self.w][0]), self.prob.flows_from(sol)


def _heuristic_anchor_flows(
    torus: Torus, locality_hops: float | None, locality_sense: str
) -> list[np.ndarray]:
    """Closed-form warm-start flows for the column-generation loop.

    VAL (uniform-random-intermediate routing) attains the optimal
    worst-case throughput on uniform tori, so on the classic instances
    it closes the primal side of the loop outright; under a locality
    pin the VAL/DOR interpolation hitting the pinned ``H_avg`` plays
    the same role.  These are *heuristics only*: the loop measures each
    candidate with the exact oracle and keeps whatever the master plus
    separation can beat, so a useless anchor costs one Hungarian pass
    and changes nothing else.
    """
    from repro.routing.dor import DimensionOrderRouting
    from repro.routing.valiant import VAL

    try:
        val = np.asarray(VAL(torus).canonical_flows, dtype=np.float64)
    except Exception:  # non-toroidal or unroutable corner case
        return []
    if locality_hops is None:
        return [val]
    hops = float(locality_hops)
    n = torus.num_nodes
    h_val = float(val.sum() / n)
    if locality_sense == "<=" and h_val <= hops:
        return [val]
    dor = np.asarray(
        DimensionOrderRouting(torus).canonical_flows, dtype=np.float64
    )
    h_dor = float(dor.sum() / n)
    if h_dor != h_val and min(h_dor, h_val) <= hops <= max(h_dor, h_val):
        alpha = (hops - h_dor) / (h_val - h_dor)
        return [alpha * val + (1.0 - alpha) * dor]
    return []


def _stage_loop(
    master: RestrictedMasterProblem,
    solver: str,
    tol: float,
    limit: int,
    anchor: tuple[np.ndarray, float] | None,
):
    """The stabilized cutting-plane loop (Ben-Ameur/Neto in-out).

    The master is a relaxation, so its optimum ``w`` is a valid lower
    bound on the full LP.  The primal side keeps an *anchor*
    ``(x̄, w̄)`` — flows paired with their exact oracle-measured
    worst-case load, hence feasible for the full constraint set by
    construction.  Each iteration separates the master vertex (a row
    already in the master cannot be violated there, so progress is
    guaranteed: either a genuinely new row is added or the vertex is
    proven feasible) and tries to improve the anchor with the vertex and
    the vertex/anchor midpoint.  Both are point-symmetric — the master
    solves on its orbit quotient and the anchor is symmetrized before
    the loop — which is what averaging over the point group would give
    (it never increases the worst-case load).  The loop ends when the
    anchor load meets the master bound within ``tol`` or the vertex
    itself passes separation exactly.

    Returns ``(flows, load, lower_bound, iterations)``.
    """
    from repro.metrics.worst_case_eval import separate_worst_case

    torus, group = master.torus, master.group
    x_bar, w_bar = anchor if anchor is not None else (None, np.inf)
    iteration = 0
    w_m = np.inf
    while iteration < limit:
        iteration += 1
        sol, w_m, _clipped = master.solve(
            solver,
            attrs={
                "colgen_stage": 1,
                "colgen_iteration": iteration,
                "rows_generated": len(master.rows) - master.seeded_rows,
            },
        )
        x_m = np.asarray(sol[master.prob.x])
        if x_bar is not None and w_bar <= w_m + tol * max(1.0, abs(w_m)):
            return x_bar, w_bar, w_m, iteration
        # Kelley cut at the master vertex; exact feasibility ends the
        # loop (the vertex then optimizes the full problem).
        sep_m = separate_worst_case(torus, group, x_m, w_m, tol)
        if sep_m.satisfied:
            return x_m, float(sep_m.max_load), w_m, iteration
        added = master.add_rows(
            (v.channel, v.permutation) for v in sep_m.violations
        )
        # Anchor candidates: the vertex, whose load separation just
        # measured (its rows violated at the anchor's bound, which is at
        # least w_m, were just added), and the vertex/anchor midpoint.
        candidates = [(x_m, sep_m)]
        if x_bar is not None:
            candidates.append((0.5 * (x_m + x_bar), None))
        for z, sep_z in candidates:
            if sep_z is None:
                sep_z = separate_worst_case(torus, group, z, w_bar, tol)
                added += master.add_rows(
                    (v.channel, v.permutation) for v in sep_z.violations
                )
            load_z = float(sep_z.max_load)
            if x_bar is None or load_z < w_bar:
                x_bar, w_bar = z, load_z
        if added == 0:
            # Cannot happen while the vertex fails separation (its
            # violated rows are provably absent from the master), so
            # reaching this means numerical contradiction — stop loudly
            # rather than loop forever.
            raise ColGenError(
                "separation re-proposed rows already in the master "
                "(numerical stall; try a tighter LP solver)",
                iterations=iteration,
                rows_generated=len(master.rows) - master.seeded_rows,
                bound=w_m,
                flows=x_bar if x_bar is not None else x_m,
                max_violation=max(v.violation for v in sep_m.violations),
            )
    raise ColGenError(
        f"no convergence within {limit} iterations",
        iterations=iteration,
        rows_generated=len(master.rows) - master.seeded_rows,
        bound=w_m,
        flows=x_bar if x_bar is not None else np.zeros_like(master.prob.x.indices(), dtype=float),
        max_violation=float(w_bar - w_m),
    )


def _design_colgen(
    torus: Torus,
    group: TranslationGroup,
    locality_hops: float | None,
    locality_sense: str,
    solver: str | None,
    tol: float,
    max_iterations: int | None,
) -> WorstCaseDesign:
    # Dual simplex by default: every master re-solve returns a vertex-
    # exact basic solution, so the oracle's termination test is clean
    # (IPM's 1e-8-feasible iterates can leave un-addable "violations").
    solver = "highs-ds" if solver is None else solver
    limit = COLGEN_MAX_ITERATIONS if max_iterations is None else int(max_iterations)
    if limit < 1:
        raise ValueError(f"max_iterations must be >= 1, got {limit}")
    from repro.metrics.worst_case_eval import separate_worst_case

    master = RestrictedMasterProblem(
        torus, group, locality_hops, locality_sense
    )
    master.model.set_objective(master.w.indices(), [1.0])
    with obs.span(
        "colgen.design",
        nodes=int(torus.num_nodes),
        classes=int(torus.num_classes),
        seeded_rows=master.seeded_rows,
    ) as sp:
        anchor = None
        for flows in _heuristic_anchor_flows(
            torus, locality_hops, locality_sense
        ):
            # The VAL/DOR blend is not point-symmetric; the loop's other
            # candidates are, so symmetrize it once here.
            flows = symmetrize_canonical_flows(torus, flows, master.maps)
            load = float(
                separate_worst_case(torus, group, flows, np.inf, tol).max_load
            )
            if anchor is None or load < anchor[1]:
                anchor = (flows, load)
        flows, wc_load, lower_bound, iterations = _stage_loop(
            master, solver, tol, limit, anchor=anchor
        )
        # Return clipped flows with their exact oracle load so the
        # design is self-consistent.
        flows = np.clip(flows, 0.0, None)
        wc_load = float(
            separate_worst_case(torus, group, flows, np.inf, tol).max_load
        )
        sp.set(
            iterations=iterations,
            rows_generated=len(master.rows) - master.seeded_rows,
            bound=float(wc_load),
        )
    obs.metric_count("colgen.solves")
    obs.metric_count("colgen.iterations", iterations)
    obs.metric_count(
        "colgen.rows_generated", len(master.rows) - master.seeded_rows
    )
    stats = ColGenStats(
        iterations=iterations,
        stage2_iterations=0,
        rows_generated=len(master.rows) - master.seeded_rows,
        seeded_rows=master.seeded_rows,
        oracle_load=float(wc_load),
        lower_bound=float(lower_bound),
    )
    return WorstCaseDesign(
        flows=flows,
        worst_case_load=float(wc_load),
        avg_path_length=float(flows.sum() / torus.num_nodes),
        model_stats=master.model.stats(),
        method="colgen",
        colgen=stats,
    )


def design_worst_case(
    torus: Torus,
    locality_hops: float | None = None,
    locality_sense: str = "==",
    minimize_locality: bool = False,
    group: TranslationGroup | None = None,
    method: str = "auto",
    solver: str | None = None,
    colgen_tol: float | None = None,
    max_iterations: int | None = None,
) -> WorstCaseDesign:
    """Design a routing algorithm minimizing worst-case channel load.

    Parameters
    ----------
    torus:
        Target topology.
    locality_hops:
        Optional average-path-length side constraint ``H_avg = L``
        (problem (10)); in hops, not normalized.
    locality_sense:
        ``'=='`` (the paper's formulation) or ``'<='``.
    minimize_locality:
        Run a second, lexicographic solve that minimizes ``H_avg``
        subject to the optimal ``w`` — the "optimal locality at maximum
        worst-case throughput" point of Figures 1 and 4.  Full LP only;
        ``method="colgen"`` rejects it.
    group:
        Reused translation tables (built on demand).
    method:
        ``"full"`` (matching-dual LP), ``"colgen"`` (lazy permutation
        rows + separation oracle), or ``"auto"`` (colgen only for an
        unpinned, single-stage design of at least
        :data:`repro.constants.COLGEN_AUTO_NODE_THRESHOLD` nodes; see
        :func:`resolve_design_method`).
        Both formulations reach the same optimum; the differential
        suite pins them to each other at ``1e-9``.
    solver:
        HiGHS solver, named as a ``linprog`` method; defaults to
        ``"highs-ipm"`` for the full LP and ``"highs-ds"`` for
        column-generation masters.
    colgen_tol:
        Separation tolerance override
        (:data:`repro.constants.COLGEN_VIOLATION_TOL`).
    max_iterations:
        Column-generation iteration cap override
        (:data:`repro.constants.COLGEN_MAX_ITERATIONS`); exceeding it
        raises :class:`ColGenError` carrying the partial design.
    """
    resolved = resolve_design_method(
        method, torus.num_nodes, locality_hops, minimize_locality
    )
    if group is None:
        group = TranslationGroup(torus)
    if resolved == "colgen":
        return _design_colgen(
            torus,
            group,
            locality_hops,
            locality_sense,
            solver,
            COLGEN_VIOLATION_TOL if colgen_tol is None else float(colgen_tol),
            max_iterations,
        )

    solver = "highs-ipm" if solver is None else solver
    prob, w = _build(torus, group, locality_hops, locality_sense)
    prob.model.set_objective(w.indices(), [1.0])
    sol = prob.model.solve(method=solver)
    wc_load = float(sol[w][0])

    if minimize_locality:
        # Stage 2 re-solves the stage-1 model in place (cap w, swap the
        # objective), so it runs at the re-solve primal tolerance.  A
        # rebuilt model solved cold at the 1e-7 default left flows
        # breaking conservation by ~1e-7 at k>=5, which the cached
        # doc's recheck rejects.
        prob.model.set_bounds(
            w, ub=wc_load * (1 + LEXICOGRAPHIC_SLACK) + SOLVER_DUST
        )
        cols, vals = prob.locality_terms()
        prob.model.set_objective(cols, vals)
        sol = prob.model.solve(method=solver)

    flows = prob.flows_from(sol)
    if minimize_locality:
        # Report the load actually achieved by the stage-2 flows, not
        # the stage-1 bound: the returned design must be self-consistent
        # (flows, load and model_stats all from the same solve).
        from repro.metrics.worst_case_eval import worst_case_load

        wc_load = worst_case_load(flows, torus, group).load
    return WorstCaseDesign(
        flows=flows,
        worst_case_load=wc_load,
        avg_path_length=float(flows.sum() / torus.num_nodes),
        model_stats=prob.model.stats(),
        method="full",
    )
