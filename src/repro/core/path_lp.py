"""LPs over explicit, restricted path sets (paper Sections 5.2, 5.4).

2TURN abandons a closed-form *algorithm* description but keeps a
closed-form description of its allowed *paths*; the optimal weighting of
those paths is then just the basic routing-design LP (1) with
``R(q) = 0`` outside the set.  This module provides that machinery for
any canonical-source path family: per-destination probability variables,
the worst-case matching-dual constraints, the sampled average-case
constraints, and the locality form.
"""

from __future__ import annotations

import numpy as np

from repro.constants import FEASIBILITY_ATOL
from repro.core.flows import declare_point_group
from repro.lp import LinearModel, VariableBlock
from repro.routing.paths import Path, path_channels
from repro.topology.symmetry import TranslationGroup
from repro.topology.torus import Torus


class PathSetLP:
    """Routing-design LP restricted to an explicit path set.

    Parameters
    ----------
    torus:
        Vertex-transitive topology; paths are given for source node 0
        and extended to all sources by translation.
    paths_by_dest:
        ``{destination: [path, ...]}`` for every destination ``1..N-1``.
        Paths must start at node 0 and end at the destination.
    """

    def __init__(
        self,
        torus: Torus,
        paths_by_dest: dict[int, list[Path]],
        group: TranslationGroup | None = None,
        name: str = "path-design",
    ) -> None:
        self.torus = torus
        self.group = group if group is not None else TranslationGroup(torus)

        paths: list[Path] = []
        dests: list[int] = []
        for t in range(1, torus.num_nodes):
            plist = paths_by_dest.get(t, [])
            if not plist:
                raise ValueError(f"no candidate paths for destination {t}")
            for p in plist:
                if p[0] != 0 or p[-1] != t:
                    raise ValueError(f"path {p} is not a 0->{t} path")
                paths.append(tuple(p))
                dests.append(t)
        self.paths = paths
        self.dest = np.asarray(dests, dtype=np.int64)
        self.lengths = np.asarray([len(p) - 1 for p in paths], dtype=np.float64)

        # channel incidence: crossing list (path_id, channel) pairs, plus
        # groupings by channel and by destination for constraint assembly
        pid_list: list[int] = []
        chan_list: list[int] = []
        for pid, p in enumerate(paths):
            for c in path_channels(torus, p):
                pid_list.append(pid)
                chan_list.append(c)
        self._cross_pid = np.asarray(pid_list, dtype=np.int64)
        self._cross_chan = np.asarray(chan_list, dtype=np.int64)

        order = np.argsort(self._cross_chan, kind="stable")
        sorted_chan = self._cross_chan[order]
        starts = np.searchsorted(sorted_chan, np.arange(torus.num_channels))
        ends = np.searchsorted(
            sorted_chan, np.arange(torus.num_channels), side="right"
        )
        self._by_channel = [
            self._cross_pid[order[s:e]] for s, e in zip(starts, ends)
        ]

        by_dest: dict[int, tuple[list[int], list[int]]] = {}
        for pid, c in zip(pid_list, chan_list):
            t = int(self.dest[pid])
            by_dest.setdefault(t, ([], []))
            by_dest[t][0].append(pid)
            by_dest[t][1].append(c)
        self._by_dest = {
            t: (np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
            for t, (a, b) in by_dest.items()
        }

        self.model = LinearModel(name)
        self.weights: VariableBlock = self.model.add_variables(
            "R", len(paths)
        )
        #: ``(rep, u, v)`` potential blocks of :meth:`add_worst_case`
        self.potentials: list[tuple[int, VariableBlock, VariableBlock]] = []
        # sum_{p in P_{0,t}} R(p) = 1 for every destination
        dest_row = {
            t: i for i, t in enumerate(sorted(set(self.dest.tolist())))
        }
        rows = np.asarray([dest_row[int(t)] for t in self.dest])
        self.model.add_eq_batch(
            rows,
            self.weights.indices(),
            np.ones(len(paths)),
            np.ones(len(dest_row)),
        )

    # ------------------------------------------------------------------
    @property
    def num_paths(self) -> int:
        return len(self.paths)

    def locality_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(cols, vals)`` of the average-path-length form (eq. 5)."""
        return (
            self.weights.indices(),
            self.lengths / self.torus.num_nodes,
        )

    def add_locality_constraint(self, hops: float, sense: str = "==") -> None:
        """Pin or bound ``H_avg`` (in hops)."""
        cols, vals = self.locality_terms()
        if sense == "==":
            self.model.add_eq(cols, vals, float(hops))
        elif sense == "<=":
            self.model.add_le(cols, vals, float(hops))
        else:
            raise ValueError(f"sense must be '==' or '<=', got {sense!r}")

    # ------------------------------------------------------------------
    def add_worst_case(self, w_col: int) -> None:
        """Matching-dual worst-case constraints (LP (8)) over the path set.

        The flow of commodity ``(s, d)`` on representative channel
        :math:`\\hat c` is the total weight of destination-``(d-s)``
        paths crossing canonical channel :math:`\\hat c - s`.
        """
        torus, group, model = self.torus, self.group, self.model
        n = torus.num_nodes
        ncls = torus.num_classes
        for rep in torus.class_representatives():
            rep = int(rep)
            u = model.add_variables(f"u[{rep}]", n, lb=-np.inf)
            v = model.add_variables(f"v[{rep}]", n, lb=-np.inf)
            self.potentials.append((rep, u, v))

            rows_parts, cols_parts, vals_parts = [], [], []
            rep_node, rep_cls = rep // ncls, rep % ncls
            for cprime in torus.class_members(rep_cls):
                pids = self._by_channel[int(cprime)]
                if pids.size == 0:
                    continue
                s = int(group.node_diff[rep_node, int(cprime) // ncls])
                d = group.node_sum[s, self.dest[pids]]
                rows_parts.append(s * n + d)
                cols_parts.append(self.weights.offset + pids)
                vals_parts.append(np.ones(pids.size))
            # potential terms for every (s, d) pair
            s_grid = np.repeat(np.arange(n), n)
            d_grid = np.tile(np.arange(n), n)
            pair_rows = np.arange(n * n)
            rows_parts += [pair_rows, pair_rows]
            cols_parts += [v.offset + d_grid, u.offset + s_grid]
            vals_parts += [-np.ones(n * n), np.ones(n * n)]

            model.add_le_batch(
                np.concatenate(rows_parts),
                np.concatenate(cols_parts),
                np.concatenate(vals_parts),
                np.zeros(n * n),
            )
            model.add_eq(
                np.concatenate([v.indices(), u.indices(), [w_col]]),
                np.concatenate(
                    [np.ones(n), -np.ones(n), [-torus.bandwidth[rep]]]
                ),
                0.0,
            )

    def add_average_case(self, sample, bound_block: VariableBlock) -> None:
        """Sampled average-case load constraints (eq. 9) over the path set."""
        torus, group, model = self.torus, self.group, self.model
        c = torus.num_channels
        if bound_block.size != len(sample):
            raise ValueError("bound block must have one variable per sample")
        for j, lam in enumerate(sample):
            s_nz, d_nz = np.nonzero(lam)
            vals_nz = lam[s_nz, d_nz]
            t_nz = group.node_diff[d_nz, s_nz]
            rows_parts, cols_parts, vals_parts = [], [], []
            for s, t, val in zip(s_nz, t_nz, vals_nz):
                if t == 0:
                    continue  # self-traffic loads nothing
                pids, chans = self._by_dest[int(t)]
                rows_parts.append(group.chan_shift[chans, s])
                cols_parts.append(self.weights.offset + pids)
                vals_parts.append(np.full(pids.size, val))
            rows_parts.append(np.arange(c))
            cols_parts.append(np.full(c, bound_block.offset + j))
            vals_parts.append(-torus.bandwidth)
            model.add_le_batch(
                np.concatenate(rows_parts),
                np.concatenate(cols_parts),
                np.concatenate(vals_parts),
                np.zeros(c),
            )

    def declare_point_symmetry(self) -> bool:
        """Declare the torus point group on the model
        (:func:`~repro.core.flows.declare_point_group`) if the path set is
        closed under it, path ``p`` mapping to ``g(p)``; returns whether
        it was declared."""
        pid = {p: i for i, p in enumerate(self.paths)}

        def images(g):
            node = g.node_map.tolist()
            image = [pid.get(tuple(node[v] for v in p)) for p in self.paths]
            if None in image:
                return None
            return self.weights.indices(), self.weights.offset + np.asarray(image)

        return declare_point_group(self.model, self.torus, self.potentials, images)

    # ------------------------------------------------------------------
    def table_from(
        self, solution, prune: float = FEASIBILITY_ATOL
    ) -> dict[int, list]:
        """Convert a solution into a ``{dest: [(path, prob), ...]}`` table."""
        weights = solution[self.weights]
        table: dict[int, list] = {}
        for pid, w in enumerate(weights):
            if w > prune:
                table.setdefault(int(self.dest[pid]), []).append(
                    (self.paths[pid], float(w))
                )
        return table
