"""General-topology routing design (no symmetry reduction).

The paper's Section 4 formulation before symmetry is applied: one flow
variable per (commodity, channel) with a commodity per ordered node
pair — :math:`CN^2` variables and :math:`N^3` conservation constraints.
This is what the "future work" application to other topologies needs
(meshes are not vertex-transitive), and it doubles as an independent
cross-check of the symmetric machinery: on a torus, both formulations
must reach identical optima.

Problem sizes grow fast (the paper notes CPLEX topping out at a few
million nonzeros); keep networks small (N up to a few dozen).  The
single-stage worst-case design additionally supports
``method="colgen"`` — the lazy-constraint counterpart of
:mod:`repro.core.worst_case`, generating the matching-dual block of a
channel only once the separation oracle proves the channel can carry a
worst-case-critical load (see :class:`GeneralRestrictedMaster`).
``method="auto"`` resolves by the same rule as the torus design
(:func:`repro.core.worst_case.resolve_design_method`), and the
lexicographic ``minimize_locality`` design is full-LP only.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import obs
from repro.constants import (
    COLGEN_GENERAL_VIOLATION_TOL,
    COLGEN_MAX_ITERATIONS,
    LEXICOGRAPHIC_SLACK,
    SOLVER_DUST,
)
from repro.core.worst_case import ColGenError, ColGenStats, resolve_design_method
from repro.lp import LinearModel
from repro.topology.network import Network


class GeneralFlowProblem:
    """All-commodity flow LP skeleton for an arbitrary directed network."""

    def __init__(self, network: Network, name: str = "general-design") -> None:
        self.network = network
        self.model = LinearModel(name)
        n, c = network.num_nodes, network.num_channels
        #: x[s, d, ch] — expected crossings of channel ch by commodity (s, d)
        self.x = self.model.add_variables("flow", (n, n, c))
        diag = self.x.indices()[np.arange(n), np.arange(n), :]
        self.model.fix_variables(diag.ravel(), 0.0)
        self._add_conservation()

    def _add_conservation(self) -> None:
        net = self.network
        n, c = net.num_nodes, net.num_channels
        pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
        pair_row = {pair: i for i, pair in enumerate(pairs)}

        ch = np.arange(c)
        rows, cols, vals = [], [], []
        rhs = np.zeros(len(pairs) * n)
        for (s, d), base in pair_row.items():
            cols.append(self.x.index(s, d, ch))
            rows.append(base * n + net.channel_src[ch])
            vals.append(np.ones(c))
            cols.append(self.x.index(s, d, ch))
            rows.append(base * n + net.channel_dst[ch])
            vals.append(-np.ones(c))
            rhs[base * n + s] += 1.0
            rhs[base * n + d] -= 1.0
        self.model.add_eq_batch(
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(vals),
            rhs,
        )

    # ------------------------------------------------------------------
    def locality_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(cols, vals)`` of ``H_avg`` (eq. 5): total flow / N^2."""
        cols = self.x.indices().ravel()
        return cols, np.full(cols.shape, 1.0 / self.network.num_nodes**2)

    def add_uniform_load_constraints(self, gamma_col: int) -> None:
        """:math:`\\gamma_c(R, U) \\le b_c \\gamma` for every channel."""
        net = self.network
        n, c = net.num_nodes, net.num_channels
        rows = np.broadcast_to(
            np.arange(c), (n * n, c)
        ).T.ravel()
        cols = self.x.indices().reshape(n * n, c).T.ravel()
        vals = np.full(rows.shape, 1.0 / n)
        g_rows = np.arange(c)
        g_cols = np.full(c, gamma_col)
        g_vals = -net.bandwidth
        self.model.add_le_batch(
            np.concatenate([rows, g_rows]),
            np.concatenate([cols, g_cols]),
            np.concatenate([vals, g_vals]),
            np.zeros(c),
        )

    def add_channel_worst_case_block(self, channel: int, w_col: int) -> None:
        """Matching-dual worst-case block (LP (8)) for one channel.

        Potentials ``u_s`` / ``v_d`` with ``x_{s,d,c} <= v_d - u_s`` and
        the tie row ``sum(v) - sum(u) = b_c w`` bound *every* permutation
        load on the channel at once.
        """
        net, model = self.network, self.model
        n = net.num_nodes
        ch = int(channel)
        s_grid = np.repeat(np.arange(n), n)
        d_grid = np.tile(np.arange(n), n)
        pair_rows = np.arange(n * n)
        u = model.add_variables(f"u[{ch}]", n, lb=-np.inf)
        v = model.add_variables(f"v[{ch}]", n, lb=-np.inf)
        x_cols = self.x.index(s_grid, d_grid, np.full(n * n, ch))
        model.add_le_batch(
            np.concatenate([pair_rows] * 3),
            np.concatenate([x_cols, v.offset + d_grid, u.offset + s_grid]),
            np.concatenate(
                [np.ones(n * n), -np.ones(n * n), np.ones(n * n)]
            ),
            np.zeros(n * n),
        )
        model.add_eq(
            np.concatenate([v.indices(), u.indices(), [w_col]]),
            np.concatenate(
                [np.ones(n), -np.ones(n), [-net.bandwidth[ch]]]
            ),
            0.0,
        )

    def add_worst_case_constraints(self, w_col: int) -> None:
        """Matching-dual worst-case constraints (LP (8)), per channel."""
        for ch in range(self.network.num_channels):
            self.add_channel_worst_case_block(ch, w_col)

    def flows_from(self, solution) -> np.ndarray:
        """Extract the ``(N, N, C)`` flow tensor, clipping solver dust."""
        return np.clip(solution[self.x], 0.0, None)


@dataclasses.dataclass(frozen=True)
class GeneralDesign:
    """Result of a general-topology design solve.

    ``method`` records the formulation (``"full"`` or ``"colgen"``;
    capacity solves always report ``"full"``), and ``colgen`` carries
    the loop's :class:`repro.core.worst_case.ColGenStats` when lazy
    permutation rows were used.
    """

    flows: np.ndarray
    objective_load: float
    avg_path_length: float
    method: str = "full"
    colgen: ColGenStats | None = None


class GeneralRestrictedMaster:
    """Restricted master of the general-topology lazy worst-case LP.

    Without translation invariance there is no class structure to make
    individual permutation rows cheap (each cut names one channel, and
    pure Kelley cutting crawls — tens of expensive master re-solves on
    even a 4-ary 2-cube), so the general master generates constraints
    at *channel* granularity instead: when the separation oracle finds
    a channel whose exact worst-case load exceeds the master bound, the
    channel's complete matching-dual block (LP (8): potentials plus
    :math:`N^2` pair rows) is appended, bounding every permutation on
    that channel at once.  A covered channel can never be separated
    again, so the loop terminates after at most ``C`` block additions —
    in practice two or three master solves.  Channels that never carry
    a critical load never pay for their block, which is where the
    restricted master stays smaller than the full LP.
    """

    def __init__(
        self, network: Network, locality_hops: float | None = None
    ) -> None:
        self.network = network
        self.prob = GeneralFlowProblem(network, name="general-colgen")
        self.w = self.prob.model.add_variables("w", 1)
        self.w_col = int(self.w.indices()[0])
        if locality_hops is not None:
            cols, vals = self.prob.locality_terms()
            self.prob.model.add_eq(cols, vals, float(locality_hops))
        #: channels whose worst-case block has been generated, in order
        self.channels: list[int] = []
        self._covered: set[int] = set()
        self.seeded_blocks = 0

    @property
    def model(self) -> LinearModel:
        return self.prob.model

    def add_channel(self, channel: int) -> bool:
        """Generate one channel's dual block; ``False`` if present."""
        ch = int(channel)
        if ch in self._covered:
            return False
        self._covered.add(ch)
        self.prob.add_channel_worst_case_block(ch, self.w_col)
        self.channels.append(ch)
        return True

    def seed(self, tol: float) -> int:
        """Pre-generate blocks for every channel shortest paths load.

        Starting from an empty master costs one near-full-size re-solve
        per wave of discovered channels (the first vertex is arbitrary,
        so its violated set is arbitrary too).  A single Hungarian pass
        over deterministic shortest-path flows identifies every channel
        that realistically carries worst-case load, collapsing the loop
        to one or two master solves; channels the seed misses are still
        caught by the oracle afterwards, so this is purely a warm start.
        """
        from repro.metrics.worst_case_eval import separate_general_worst_case
        from repro.routing.shortest import ShortestPathRouting

        try:
            flows = ShortestPathRouting(self.network).full_flows()
        except Exception:  # disconnected or otherwise unroutable
            return 0
        sep = separate_general_worst_case(self.network, flows, 0.0, tol)
        added = sum(self.add_channel(v.channel) for v in sep.violations)
        self.seeded_blocks += added
        return added

    def solve(self, solver: str = "highs-ipm", attrs: dict | None = None):
        """Solve the current master; returns ``(solution, w, flows)``."""
        sol = self.model.solve(method=solver, attrs=attrs)
        return sol, float(sol[self.w][0]), self.prob.flows_from(sol)


def _general_stage_loop(
    master: GeneralRestrictedMaster,
    solver: str,
    tol: float,
    limit: int,
):
    """The lazy-constraint loop on an arbitrary network.

    Solve the restricted master, separate its exact worst case with
    :func:`repro.metrics.worst_case_eval.separate_general_worst_case`,
    and append the dual block of every violated channel.  The master is
    a relaxation (a subset of channels constrained), so on termination
    — no channel's exact Hungarian load exceeds the master's own bound
    beyond ``tol`` — the master optimum is simultaneously a lower bound
    and achieved by the returned flows: the full LP's optimum.

    Returns ``(flows, load, lower_bound, iterations)``.
    """
    from repro.metrics.worst_case_eval import separate_general_worst_case

    net = master.network
    iteration = 0
    w_m = np.inf
    while iteration < limit:
        iteration += 1
        sol, w_m, _clipped = master.solve(
            solver,
            attrs={
                "colgen_stage": 1,
                "colgen_iteration": iteration,
                "rows_generated": len(master.channels)
                - master.seeded_blocks,
            },
        )
        x_m = np.asarray(sol[master.prob.x])
        sep = separate_general_worst_case(net, x_m, w_m, tol)
        if sep.satisfied:
            return x_m, float(sep.max_load), w_m, iteration
        added = sum(master.add_channel(v.channel) for v in sep.violations)
        if added == 0:
            # Every violated channel already carries its exact block, so
            # its master load cannot exceed b_c * w beyond the solver's
            # own primal feasibility residual: the LP solution is looser
            # than the separation tolerance.  Stop loudly rather than
            # loop forever.
            raise ColGenError(
                "separation flagged channels whose blocks are already "
                "in the master (solver tolerance looser than the "
                "separation tolerance; try solver='highs-ds')",
                iterations=iteration,
                rows_generated=len(master.channels) - master.seeded_blocks,
                bound=w_m,
                flows=x_m,
                max_violation=max(v.violation for v in sep.violations),
            )
    raise ColGenError(
        f"no convergence within {limit} iterations",
        iterations=iteration,
        rows_generated=len(master.channels) - master.seeded_blocks,
        bound=w_m,
        flows=np.zeros((net.num_nodes, net.num_nodes, net.num_channels)),
        max_violation=np.inf,
    )


def _design_general_colgen(
    network: Network,
    locality_hops: float | None,
    solver: str | None,
    tol: float,
    max_iterations: int | None,
) -> GeneralDesign:
    solver = "highs-ipm" if solver is None else solver
    limit = (
        COLGEN_MAX_ITERATIONS if max_iterations is None else int(max_iterations)
    )
    if limit < 1:
        raise ValueError(f"max_iterations must be >= 1, got {limit}")
    from repro.metrics.worst_case_eval import separate_general_worst_case

    master = GeneralRestrictedMaster(network, locality_hops)
    master.model.set_objective(master.w.indices(), [1.0])
    master.seed(tol)
    n = network.num_nodes
    with obs.span(
        "colgen.general",
        nodes=int(n),
        channels=int(network.num_channels),
        seeded_blocks=master.seeded_blocks,
    ) as sp:
        flows, wc_load, lower_bound, iterations = _general_stage_loop(
            master, solver, tol, limit
        )
        flows = np.clip(flows, 0.0, None)
        wc_load = float(
            separate_general_worst_case(network, flows, np.inf, tol).max_load
        )
        sp.set(
            iterations=iterations,
            rows_generated=len(master.channels) - master.seeded_blocks,
            bound=float(wc_load),
        )
    obs.metric_count("colgen.general_solves")
    obs.metric_count("colgen.iterations", iterations)
    obs.metric_count(
        "colgen.rows_generated", len(master.channels) - master.seeded_blocks
    )
    stats = ColGenStats(
        iterations=iterations,
        stage2_iterations=0,
        rows_generated=len(master.channels) - master.seeded_blocks,
        seeded_rows=master.seeded_blocks,
        oracle_load=float(wc_load),
        lower_bound=float(lower_bound),
    )
    return GeneralDesign(
        flows=flows,
        objective_load=float(wc_load),
        avg_path_length=float(flows.sum() / n**2),
        method="colgen",
        colgen=stats,
    )


def solve_general_capacity(network: Network, method: str = "highs-ipm") -> GeneralDesign:
    """Capacity (problem (6)) on an arbitrary network."""
    prob = GeneralFlowProblem(network, name="general-capacity")
    gamma = prob.model.add_variables("gamma", 1)
    prob.add_uniform_load_constraints(int(gamma.indices()[0]))
    prob.model.set_objective(gamma.indices(), [1.0])
    sol = prob.model.solve(method=method)
    flows = prob.flows_from(sol)
    return GeneralDesign(
        flows=flows,
        objective_load=float(sol[gamma][0]),
        avg_path_length=float(flows.sum() / network.num_nodes**2),
    )


def design_general_worst_case(
    network: Network,
    locality_hops: float | None = None,
    minimize_locality: bool = False,
    method: str = "auto",
    solver: str | None = None,
    colgen_tol: float | None = None,
    max_iterations: int | None = None,
) -> GeneralDesign:
    """Worst-case-optimal design (LP (8)) on an arbitrary network.

    ``method`` selects the formulation (``"full"``, ``"colgen"``, or
    ``"auto"``, resolved as in :func:`repro.core.worst_case.design_worst_case`;
    ``"colgen"`` rejects ``minimize_locality``)
    and ``solver`` the HiGHS solver, named as a ``linprog`` method
    (``"highs-ipm"`` by default for both formulations; dual simplex is an
    order of magnitude slower on these CN^2-variable models).  ``colgen_tol`` /
    ``max_iterations`` override the loop's tolerance and iteration-cap
    constants.
    """
    resolved = resolve_design_method(
        method, network.num_nodes, locality_hops, minimize_locality
    )
    if resolved == "colgen":
        return _design_general_colgen(
            network,
            locality_hops,
            solver,
            COLGEN_GENERAL_VIOLATION_TOL
            if colgen_tol is None
            else float(colgen_tol),
            max_iterations,
        )
    solver = "highs-ipm" if solver is None else solver

    prob = GeneralFlowProblem(network, name="general-worst-case")
    w = prob.model.add_variables("w", 1)
    prob.add_worst_case_constraints(int(w.indices()[0]))
    if locality_hops is not None:
        cols, vals = prob.locality_terms()
        prob.model.add_eq(cols, vals, float(locality_hops))
    prob.model.set_objective(w.indices(), [1.0])
    sol = prob.model.solve(method=solver)
    wc_load = float(sol[w][0])

    if minimize_locality:
        # Stage 2 re-solves the stage-1 model in place (cap w, swap the
        # objective) instead of rebuilding it, as the torus full LP in
        # repro.core.worst_case does.
        prob.model.set_bounds(
            w, ub=wc_load * (1 + LEXICOGRAPHIC_SLACK) + SOLVER_DUST
        )
        cols, vals = prob.locality_terms()
        prob.model.set_objective(cols, vals)
        sol = prob.model.solve(method=solver)

    flows = prob.flows_from(sol)
    return GeneralDesign(
        flows=flows,
        objective_load=wc_load,
        avg_path_length=float(flows.sum() / network.num_nodes**2),
        method="full",
    )
