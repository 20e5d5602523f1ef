"""Canonical-source multicommodity-flow skeleton (paper Section 4).

Instead of a probability per path (exponentially many), the LP carries
one flow variable per (commodity, channel) pair, with flow conservation
at every node.  Vertex symmetry of the torus cuts the commodity space to
destinations of a single canonical source (node 0): ``x[t, c]`` is the
expected number of times a packet of the canonical commodity ``(0, t)``
crosses channel ``c``.  Commodity ``(s, s+t)`` then crosses channel
``c + s`` equally often, so every metric of every commodity is a lookup
into this one ``(N, C)`` table.

Restricting to translation-invariant algorithms loses nothing: all cost
functions in the paper are convex and translation-invariant, so
averaging any solution over the translation group preserves feasibility
and never increases cost (the symmetry argument of Section 4).

The same argument applies to the torus point group (the signed
coordinate permutations fixing node 0,
:func:`~repro.topology.symmetry.stabilizer_maps`).  A design model whose
objective, bounds and constraints it permutes among themselves —
capacity and the worst-case LP (8), with or without a locality pin —
declares it (:meth:`CanonicalFlowProblem.declare_point_symmetry`), and
the LP layer solves the orbit quotient and lifts the optimum and its
certificate back (:mod:`repro.lp.quotient`).  Sampled average-case
models do not declare: their sample breaks the symmetry.
"""

from __future__ import annotations

import numpy as np

from repro.lp import LinearModel, VariableBlock
from repro.topology.symmetry import TranslationGroup, point_group_generators
from repro.topology.torus import Torus


def declare_point_group(model, torus, potentials, images) -> bool:
    """Declare the torus point group on a design model, so it solves on
    its orbit quotient; returns whether it was declared.

    Declares :func:`~repro.topology.symmetry.point_group_generators`
    (bandwidth-preserving, so heterogeneous tori are covered).  The
    matching potentials ``u[rep][s]``, ``v[rep][d]`` of LP (8) (the
    ``(rep, u, v)`` blocks in ``potentials``) move to
    ``u[g(rep)][g(s)]``, ``v[g(rep)][g(d)]``; ``images(g)`` gives
    ``(cols, image_cols)`` for the formulation's own routing variables,
    or ``None`` when map ``g`` does not carry them onto themselves; every
    other column is fixed.  The LP layer checks that the model really is
    invariant.  Other Cayley topologies (the hypercube) solve unreduced.
    Call after the last constraint that involves new variables.
    """
    if not isinstance(torus, Torus):
        return False
    maps = point_group_generators(torus)
    out = np.tile(np.arange(model.num_variables), (len(maps), 1))
    by_rep = {rep: (u, v) for rep, u, v in potentials}
    for i, g in enumerate(maps):
        own = images(g)
        if own is None:
            return False
        out[i, own[0]] = own[1]
        for rep, u, v in potentials:
            u_img, v_img = by_rep[int(g.channel_map[rep])]
            out[i, u.indices()] = u_img.offset + g.node_map
            out[i, v.indices()] = v_img.offset + g.node_map
    model.declare_symmetry(out)
    return True


class CanonicalFlowProblem:
    """LP skeleton shared by the capacity / worst-case / average-case
    design problems: flow variables plus conservation constraints.

    Parameters
    ----------
    torus:
        Vertex-transitive target topology.
    group:
        Precomputed translation tables (built on demand if omitted).
    name:
        Model name for diagnostics.
    """

    def __init__(
        self,
        torus: Torus,
        group: TranslationGroup | None = None,
        name: str = "routing-design",
    ) -> None:
        self.torus = torus
        self.group = group if group is not None else TranslationGroup(torus)
        self.model = LinearModel(name)
        n, c = torus.num_nodes, torus.num_channels
        #: flow variables x[t, c] for canonical commodities (0, t)
        self.x: VariableBlock = self.model.add_variables("flow", (n, c))
        #: ``(rep, u, v)`` potential blocks of :meth:`worst_case_constraints`
        self.potentials: list[tuple[int, VariableBlock, VariableBlock]] = []
        # commodity 0 -> 0 carries no flow
        self.model.fix_variables(self.x.indices()[0], 0.0)
        self._add_conservation()

    # ------------------------------------------------------------------
    def _add_conservation(self) -> None:
        """Flow conservation: for every commodity ``t != 0`` and node
        ``v``, (flow out) - (flow in) = [v == 0] - [v == t]."""
        torus = self.torus
        n, c = torus.num_nodes, torus.num_channels
        dests = np.arange(1, n)

        # entries: (+1 at (t, src[ch]), -1 at (t, dst[ch])) for all t, ch
        ch = np.arange(c)
        t_grid = np.repeat(dests, c)  # (n-1)*c
        ch_grid = np.tile(ch, n - 1)
        cols = self.x.index(t_grid, ch_grid)
        rows_out = (t_grid - 1) * n + torus.channel_src[ch_grid]
        rows_in = (t_grid - 1) * n + torus.channel_dst[ch_grid]

        rhs = np.zeros((n - 1) * n)
        rhs[(dests - 1) * n + 0] = 1.0  # source emits one unit
        rhs[(dests - 1) * n + dests] = -1.0  # destination absorbs it

        self.model.add_eq_batch(
            np.concatenate([rows_out, rows_in]),
            np.concatenate([cols, cols]),
            np.concatenate([np.ones_like(cols, dtype=float), -np.ones_like(cols, dtype=float)]),
            rhs,
        )

    # ------------------------------------------------------------------
    # Reusable linear forms
    # ------------------------------------------------------------------
    def locality_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(cols, vals)`` of the average-path-length form (eq. 5).

        Every unit of flow is one expected hop, so
        ``H_avg = sum(x) / N``.
        """
        cols = self.x.indices().ravel()
        vals = np.full(cols.shape, 1.0 / self.torus.num_nodes)
        return cols, vals

    def add_locality_constraint(self, hops: float, sense: str = "==") -> None:
        """Constrain ``H_avg`` (in hops) — the side constraint of
        problems (10) and (15).  ``sense`` may be '==' or '<='."""
        cols, vals = self.locality_terms()
        if sense == "==":
            self.model.add_eq(cols, vals, float(hops))
        elif sense == "<=":
            self.model.add_le(cols, vals, float(hops))
        else:
            raise ValueError(f"sense must be '==' or '<=', got {sense!r}")

    def uniform_load_terms(self, cls: int) -> tuple[np.ndarray, np.ndarray]:
        """``(cols, vals)`` of :math:`\\gamma_c(R, U)` for channels of
        direction class ``cls``.

        Under uniform traffic every channel of a class carries the same
        load: summing the canonical flows over the whole class and all
        destinations and dividing by N.
        """
        members = self.torus.class_members(cls)
        cols = self.x.indices()[:, members].ravel()
        vals = np.full(cols.shape, 1.0 / self.torus.num_nodes)
        return cols, vals

    def worst_case_constraints(self, bound_cols_val: tuple[int, float]) -> None:
        """Install the matching-dual worst-case constraints of LP (8).

        For each representative channel :math:`\\hat c` (one per
        direction class — translation invariance makes the classes
        equivalent), adds potentials ``u_s``, ``v_d`` with

        .. math:: x_{d-s, \\hat c - s} \\le v_d - u_s \\quad \\forall s, d

        and ties the potential gap to the bound variable:
        :math:`\\sum_d v_d - \\sum_s u_s = b_{\\hat c} \\, w`.

        Parameters
        ----------
        bound_cols_val:
            ``(column, coefficient)`` of the load-bound variable ``w``
            (coefficient lets callers scale, e.g. for interpolations).
        """
        torus, group, model = self.torus, self.group, self.model
        n = torus.num_nodes
        ncls = torus.num_classes
        w_col, w_coef = bound_cols_val
        for rep in torus.class_representatives():
            rep = int(rep)
            u = model.add_variables(f"u[{rep}]", n, lb=-np.inf)
            v = model.add_variables(f"v[{rep}]", n, lb=-np.inf)
            self.potentials.append((rep, u, v))

            # constraint grid over (s, t): d = s + t
            s_grid = np.repeat(np.arange(n), n)
            t_grid = np.tile(np.arange(n), n)
            d_grid = group.node_sum[s_grid, t_grid]
            # canonical channel seen from source s: rep - s
            node = rep // ncls
            chan_from_s = group.node_diff[node, s_grid] * ncls + rep % ncls

            rows = np.arange(n * n)
            x_cols = self.x.index(t_grid, chan_from_s)
            v_cols = v.offset + d_grid
            u_cols = u.offset + s_grid
            model.add_le_batch(
                np.concatenate([rows, rows, rows]),
                np.concatenate([x_cols, v_cols, u_cols]),
                np.concatenate(
                    [np.ones(n * n), -np.ones(n * n), np.ones(n * n)]
                ),
                np.zeros(n * n),
            )
            # sum(v) - sum(u) - b*w = 0
            model.add_eq(
                np.concatenate([v.indices(), u.indices(), [w_col]]),
                np.concatenate(
                    [np.ones(n), -np.ones(n), [-torus.bandwidth[rep] * w_coef]]
                ),
                0.0,
            )

    def average_case_constraints(
        self, sample, bound_block: VariableBlock
    ) -> None:
        """Install the sampled average-case load constraints (eq. 9).

        For sample matrix :math:`\\Lambda_j` and every channel ``c``:

        .. math::
            \\sum_{s,d} \\lambda_{s,d}\\, x_{d-s, c-s} \\le b_c\\, m_j

        Rows stay sparse because the samplers produce sparse matrices
        (Birkhoff combinations of a few permutations).
        """
        torus, group, model = self.torus, self.group, self.model
        n, c = torus.num_nodes, torus.num_channels
        if bound_block.size != len(sample):
            raise ValueError("bound block must have one variable per sample")
        for j, lam in enumerate(sample):
            s_nz, d_nz = np.nonzero(lam)
            vals_nz = lam[s_nz, d_nz]
            t_nz = group.node_diff[d_nz, s_nz]
            # For every canonical channel c' and every nonzero (s, d):
            # network channel row = chan_shift[c', s], variable x[t, c'].
            cprime = np.arange(c)
            rows = group.chan_shift[:, s_nz]  # (c, nnz)
            cols = self.x.index(
                np.broadcast_to(t_nz, (c, t_nz.shape[0])),
                np.broadcast_to(cprime[:, None], (c, t_nz.shape[0])),
            )
            vals = np.broadcast_to(vals_nz, (c, vals_nz.shape[0]))
            # bound variable entries: row per channel
            m_rows = np.arange(c)
            m_cols = np.full(c, bound_block.offset + j)
            m_vals = -torus.bandwidth
            model.add_le_batch(
                np.concatenate([rows.ravel(), m_rows]),
                np.concatenate([cols.ravel(), m_cols]),
                np.concatenate([vals.ravel().astype(float), m_vals]),
                np.zeros(c),
            )

    def declare_point_symmetry(self) -> None:
        """Declare the torus point group on the model
        (:func:`declare_point_group`): flow ``x[t, c]`` maps to
        ``x[g(t), g(c)]``."""
        flow = self.x.indices()
        declare_point_group(
            self.model,
            self.torus,
            self.potentials,
            lambda g: (flow.ravel(), flow[g.node_map][:, g.channel_map].ravel()),
        )

    # ------------------------------------------------------------------
    def flows_from(self, solution) -> np.ndarray:
        """Extract the ``(N, C)`` canonical flow table from a solution,
        clipping solver dust below zero."""
        return np.clip(solution[self.x], 0.0, None)
