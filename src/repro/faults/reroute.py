"""Routing degradation policies: renormalize and detour.

A :class:`DegradedRouting` adapts an oblivious routing algorithm that
was designed for the pristine network to a degraded one, and is itself
an ordinary :class:`~repro.routing.base.ObliviousRouting` — so the
general worst-case evaluator, the packet simulator and the
``repro.verify`` invariants all run on the degraded instance unchanged.

Two policies (paper-agnostic, standard practice in fault studies):

* ``renormalize`` — drop every path that crosses a failed channel or
  visits a failed node from the pair's distribution and renormalize the
  surviving probabilities.  Honest about coverage: a commodity whose
  whole distribution died raises :class:`DisconnectedCommodityError`
  (deterministic single-path algorithms like DOR lose commodities on
  the *first* link failure).
* ``detour`` — splice a deterministic shortest-path detour (BFS
  distances on the degraded network, smallest-node-id tie-break) around
  every failed hop, then remove the loops the splice may create
  (paper Figure 3 machinery).  Always yields a full distribution as
  long as the degraded network is connected.

Failures break translation invariance, so degraded routings always use
the general ``(N, N, C)`` flow representation.

Both policies work on the base routing's flat
:class:`~repro.routing.path_table.PathTable` and produce the degraded
routing's own table, which ``full_flows``, the exact evaluator and the
simulator's path compile all read (``path_distribution`` is a view of
it).  Only paths that cross a failed channel — about one in eight at two
failed links on a 4-ary 2-cube — are spliced, with one BFS detour per
distinct failed hop; every other path is taken as is (``renormalize``)
or with its loops removed (``detour``).  The detour policy then merges
identical paths per commodity and sorts them, with the same float
operations, in the same order, as a per-pair dictionary merge would.
A surviving commodity the policy cannot route gets an empty row and a
recorded reason, and only it raises :class:`DisconnectedCommodityError`.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np

from repro.faults.model import DegradedNetwork
from repro.routing.base import ObliviousRouting
from repro.routing.path_table import PathTable, channel_lookup, offsets, ranges
from repro.routing.paths import Path

#: Supported reroute policies (CLI ``--reroute`` choices).
REROUTE_MODES = ("renormalize", "detour")


class DisconnectedCommodityError(RuntimeError):
    """A commodity has no surviving path under the reroute policy."""


class DegradedRouting(ObliviousRouting):
    """An oblivious routing adapted to a degraded network.

    Parameters
    ----------
    base_routing:
        The algorithm designed for the pristine network; its
        :meth:`~repro.routing.base.ObliviousRouting.path_table` is read
        once, when this routing's own table is first needed.
    degraded:
        The masked network produced by :func:`repro.faults.degrade`.
    mode:
        One of :data:`REROUTE_MODES`.
    """

    translation_invariant = False

    def __init__(
        self,
        base_routing: ObliviousRouting,
        degraded: DegradedNetwork,
        mode: str = "detour",
    ) -> None:
        if mode not in REROUTE_MODES:
            raise ValueError(
                f"unknown reroute mode {mode!r}; choose from {REROUTE_MODES}"
            )
        if degraded.base is not base_routing.network:
            raise ValueError(
                "degraded network was not derived from the base routing's "
                f"network ({degraded.base!r} vs {base_routing.network!r})"
            )
        super().__init__(degraded, name=f"{base_routing.name}+{mode}")
        self.base_routing = base_routing
        self.mode = mode
        self._degraded = degraded

    # ------------------------------------------------------------------
    def path_distribution(self, src: int, dst: int) -> list[tuple[Path, float]]:
        if src == dst:
            return [((src,), 1.0)]
        net = self._degraded
        if not (net.alive[src] and net.alive[dst]):
            raise DisconnectedCommodityError(
                f"commodity ({src}, {dst}) has a failed endpoint"
            )
        row = src * net.num_nodes + dst
        if row in self._lost:
            raise DisconnectedCommodityError(self._lost[row])
        return self.path_table().distribution(row)

    def full_flows(self) -> np.ndarray:
        """``(N, N, C)`` flows over surviving commodities.

        Raises :class:`DisconnectedCommodityError` for the first
        surviving commodity the policy cannot route.
        """
        if self._lost:
            raise DisconnectedCommodityError(self._lost[min(self._lost)])
        return super().full_flows()

    # ------------------------------------------------------------------
    @cached_property
    def _path_table(self) -> PathTable:
        return self._rerouted[0]

    @cached_property
    def _lost(self) -> dict[int, str]:
        """Why each surviving commodity the policy cannot route is lost,
        by row."""
        return self._rerouted[1]

    @cached_property
    def _rerouted(self) -> tuple[PathTable, dict[int, str]]:
        """The degraded table, derived from the base routing's, and
        :attr:`_lost`.

        Rows of commodities with a failed endpoint, and of lost
        commodities, are empty, so they carry no flow.
        """
        net = self._degraded
        table = self.base_routing.path_table()
        # A failed node takes its channels down with it, so checking
        # channels finds every path through one too.
        entry_path = np.repeat(np.arange(table.num_paths), table.hops)
        hit = np.zeros(table.num_paths, dtype=bool)
        hit[entry_path[net.channel_map[table.channels] < 0]] = True
        rows = table.path_rows
        src, dst = np.divmod(rows, net.num_nodes)
        routed = (src == dst) | (net.alive[src] & net.alive[dst])
        if self.mode == "renormalize":
            return self._renormalize(table.select_paths(routed & ~hit))
        ids, spliced, lost = self._splice(table, np.flatnonzero(routed & hit))
        routed &= ~np.isin(rows, list(lost))
        out = (
            table.without_loops()
            .replace_paths(ids, spliced)
            .select_paths(routed)
        )
        return _merge_sorted(net, out), lost

    def _renormalize(self, kept: PathTable) -> tuple[PathTable, dict[int, str]]:
        net = self._degraded
        total = np.bincount(
            kept.path_rows, weights=kept.prob, minlength=kept.num_rows
        )
        src, dst = np.divmod(np.arange(kept.num_rows), net.num_nodes)
        dead = (total <= 0.0) & net.alive[src] & net.alive[dst]
        lost = {
            int(row): f"{self.base_routing.name}: every path of commodity "
            f"({int(src[row])}, {int(dst[row])}) crosses a fault; "
            "renormalize cannot reroute it (try reroute='detour')"
            for row in np.flatnonzero(dead)
        }
        kept = kept.select_paths(~dead[kept.path_rows])
        return (
            dataclasses.replace(
                kept,
                prob=kept.prob / total[kept.path_rows],
                channels=net.channel_map[kept.channels],
            ),
            lost,
        )

    def _splice(
        self, table: PathTable, ids: np.ndarray
    ) -> tuple[np.ndarray, PathTable, dict[int, str]]:
        """Paths ``ids`` of ``table`` rerouted around the faults.

        Each path is walked along its surviving nodes (dead
        intermediates are skipped; endpoints are alive because their
        row is routed).  Between consecutive distinct waypoints the
        planned hop is kept if its channel survived, otherwise the
        deterministic shortest detour is spliced in.  The splices may
        create loops, which are then removed (paper Figure 3 machinery).

        A waypoint that no detour reaches loses its path's whole
        commodity.  Returns the ids of the paths of the other
        commodities, their new paths (one row, in that order) and,
        by row, why each lost commodity is lost — naming, as a per-pair
        walk would, the first unreachable waypoint in path order.
        """
        net = self._degraded
        n = net.num_nodes
        node_len = np.diff(table.node_ptr)[ids]
        nodes = table.nodes[ranges(table.node_ptr[ids], node_len)]
        owner = np.repeat(np.arange(ids.size), node_len)
        alive = net.alive[nodes]
        nodes, owner = nodes[alive], owner[alive]
        head = np.ones(nodes.size, dtype=bool)
        head[1:] = owner[1:] != owner[:-1]
        step = head.copy()
        step[1:] |= nodes[1:] != nodes[:-1]
        nodes, owner, head = nodes[step], owner[step], head[step]
        gap = np.roll(nodes, 1) * n + nodes
        bridged = ~head & (channel_lookup(net)[gap] < 0)
        cut = bridged & (net.distance_matrix().ravel()[gap] < 0)
        owner_row = table.path_rows[ids]
        lost: dict[int, str] = {}
        for pos in np.flatnonzero(cut).tolist():
            row = int(owner_row[owner[pos]])
            if row not in lost:
                a, b = divmod(int(gap[pos]), n)
                lost[row] = (
                    f"commodity {divmod(row, n)}: no surviving route from "
                    f"{a} to {b} (faults: {net.faults.describe()})"
                )
        if lost:
            keep = ~np.isin(owner_row, list(lost))
            ids = ids[keep]
            at = keep[owner]
            renumber = np.cumsum(keep) - 1
            nodes, owner = nodes[at], renumber[owner[at]]
            gap, bridged = gap[at], bridged[at]
        bridged = np.flatnonzero(bridged)
        # A waypoint contributes itself, a bridged one the whole detour
        # that ends with it; detours are stored after the waypoints.
        gaps, which = np.unique(gap[bridged], return_inverse=True)
        detours = [self._shortest_hops(*divmod(int(g), n)) for g in gaps]
        detour_len = np.asarray([len(h) for h in detours], dtype=np.int64)
        store = np.concatenate(
            [nodes, np.asarray([v for h in detours for v in h], dtype=np.int64)]
        )
        start = np.arange(nodes.size)
        length = np.ones(nodes.size, dtype=np.int64)
        start[bridged] = nodes.size + offsets(detour_len)[which]
        length[bridged] = detour_len[which]
        spliced = PathTable.from_nodes(
            self.base_routing.network,
            np.asarray([0, ids.size]),
            np.zeros(ids.size),
            offsets(np.bincount(np.repeat(owner, length), minlength=ids.size)),
            store[ranges(start, length)],
        ).without_loops()
        return ids, spliced, lost

    def _shortest_hops(self, src: int, dst: int) -> list[int]:
        """Nodes after ``src`` on the deterministic shortest detour.

        Follows BFS distances on the degraded network, breaking ties
        toward the smallest next-hop node id, so reroutes are
        reproducible across runs and backends.
        """
        net = self._degraded
        dist = net.distance_matrix()
        hops: list[int] = []
        cur = src
        while cur != dst:
            step = [
                int(v)
                for v in net.neighbors(cur)
                if dist[v, dst] == dist[cur, dst] - 1
            ]
            cur = min(step)
            hops.append(cur)
        return hops

    # ------------------------------------------------------------------
    def validate(self, pairs=None, tol=None) -> None:
        """Base-class validation restricted to surviving commodities."""
        if pairs is None:
            alive = [int(v) for v in self._degraded.alive_nodes]
            anchor = alive[0]
            pairs = [(anchor, d) for d in alive]
            n = len(alive)
            pairs += [(s, alive[(i * 2 + 1) % n]) for i, s in enumerate(alive)]
        if tol is None:
            super().validate(pairs)
        else:
            super().validate(pairs, tol)


def degrade_routing(
    base_routing: ObliviousRouting,
    degraded: DegradedNetwork,
    mode: str = "detour",
) -> DegradedRouting:
    """Adapt ``base_routing`` to ``degraded`` under reroute ``mode``."""
    return DegradedRouting(base_routing, degraded, mode)


def _merge_sorted(degraded: DegradedNetwork, table: PathTable) -> PathTable:
    """Per row: merge identical paths, sort them, renormalize.

    Reproduces, float for float, the per-commodity dictionary merge
    ``merged[path] += w`` in table order, ``total = sum(merged.values())``
    in first-occurrence order, and ``[(path, w / total) for path, w in
    sorted(merged.items())]``.  ``np.bincount`` adds its weights in input
    order, which is what keeps every sum bit-identical.  Channels are
    renumbered into ``degraded``'s (the paths avoid every failed one).
    """
    group, rep = table.path_groups()
    weight = np.bincount(group, weights=table.prob)
    group_rows = table.path_rows[rep]
    by_seen = np.argsort(rep)
    total = np.bincount(
        group_rows[by_seen], weights=weight[by_seen], minlength=table.num_rows
    )
    merged = table.take_paths(
        offsets(np.bincount(group_rows, minlength=table.num_rows)), rep
    )
    return dataclasses.replace(
        merged,
        prob=weight / total[group_rows],
        channels=degraded.channel_map[merged.channels],
    )
