"""Valiant's algorithm (VAL) and the improved variant IVAL (Section 5.2).

VAL [3] routes every packet minimally (DOR) to a uniformly random
intermediate node, then minimally on to the destination.  Load is exactly
balanced — VAL attains the optimal worst-case throughput of half
capacity — but paths average twice the minimal length.

IVAL keeps VAL's two phases but (a) reverses the dimension order in the
second phase, which maximizes the chance that the concatenated path
contains a *loop* (a node revisit, Figure 3), and (b) removes those
loops.  Loop removal only ever lowers channel loads, so the worst-case
throughput is preserved while the average path length drops from 2x to
about 1.61x minimal on the 8-ary 2-cube.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np

from repro.routing import paths as pathmod
from repro.routing.base import ObliviousRouting
from repro.routing.dor import DimensionOrderRouting
from repro.routing.path_table import TranslatedTable, offsets, ranges
from repro.routing.paths import Path
from repro.topology.torus import Torus


class Valiant(ObliviousRouting):
    """Two-phase randomized routing through a uniform intermediate.

    Parameters
    ----------
    torus:
        Target torus.
    reverse_second_phase:
        Use reversed dimension order in phase 2 (IVAL's trick).
    remove_loops:
        Remove loops from the concatenated paths (IVAL).  Identical
        post-removal paths are merged, so the returned distribution has
        unique support.
    """

    translation_invariant = True
    # Intermediates are walked in absolute node order, so a pair's list
    # is a reordering of its canonical translate; ``_translated_table``
    # reproduces that order.
    canonical_order = False

    def __init__(
        self,
        torus: Torus,
        reverse_second_phase: bool = False,
        remove_loops: bool = False,
        name: str = "VAL",
    ) -> None:
        super().__init__(torus, name)
        self._phase1 = DimensionOrderRouting(torus)
        order2 = (
            tuple(reversed(range(torus.n))) if reverse_second_phase else None
        )
        self._phase2 = DimensionOrderRouting(torus, order=order2)
        self._remove_loops = remove_loops
        # Each pair's distribution walks all N intermediates, so without
        # a memo every phase distribution would be rebuilt N times.
        self._phase_memo: tuple[dict, dict] = ({}, {})

    def _phase_distribution(self, phase: int, src: int, dst: int):
        memo = self._phase_memo[phase]
        key = (src, dst)
        if key not in memo:
            routing = self._phase2 if phase else self._phase1
            # A slice of DOR's table, which translates its canonical rows
            # instead of building every pair's paths node by node.
            memo[key] = routing.path_table().distribution(
                src * self.network.num_nodes + dst
            )
        return memo[key]

    def path_distribution(self, src: int, dst: int) -> list[tuple[Path, float]]:
        if src == dst:
            return [((src,), 1.0)]
        n = self.network.num_nodes
        acc: dict[Path, float] = {}
        for mid in range(n):
            for p1, q1 in self._phase_distribution(0, src, mid):
                for p2, q2 in self._phase_distribution(1, mid, dst):
                    path = pathmod.concatenate(p1, p2)
                    if self._remove_loops:
                        path = pathmod.remove_loops(path)
                    acc[path] = acc.get(path, 0.0) + q1 * q2 / n
        return list(acc.items())

    @cached_property
    def _translated_table(self) -> TranslatedTable:
        """``path_distribution``'s lists from canonical generation blocks.

        Block ``(t, m)`` holds the paths ``path_distribution(0, t)``
        generates through intermediate ``m``.  Pair ``(s, d)`` walks
        intermediates ``0..N-1``, i.e. blocks ``(d - s, mid - s)`` in
        ``mid`` order; merging identical paths in that order gives its
        list exactly, weights summed in the same order.
        """
        n = self.network.num_nodes
        group = self._translation_group
        first, second = self._phase1.path_table(), self._phase2.path_table()
        # Block (t, m) pairs every phase-1 path 0 -> m with every phase-2
        # path m -> t, phase-1 major; block (0, 0) is the zero-hop path.
        t, m = np.divmod(np.arange(n * n), n)
        c2 = second.row_counts[m * n + t]
        size = np.where(t == 0, m == 0, first.row_counts[m] * c2)
        block = np.repeat(np.arange(n * n), size)
        local = np.arange(block.size) - offsets(size)[block]
        generated = first.concatenated(
            first.row_ptr[m[block]] + local // c2[block],
            second,
            second.row_ptr[m[block] * n + t[block]] + local % c2[block],
            offsets(size),
        )
        generated = dataclasses.replace(
            generated, prob=np.where(t[block] == 0, 1.0, generated.prob / n)
        )
        if self._remove_loops:
            generated = generated.without_loops()
        src = np.repeat(np.arange(n), n)
        dest = group.node_diff[np.tile(np.arange(n), n), src]
        # mid - s for every mid, per pair: the pair's blocks in walk order
        offset = group.node_diff[np.arange(n)[None, :], src[:, None]]
        rows = (dest[:, None] * n + offset).ravel()
        counts = generated.row_counts[rows]
        path = ranges(generated.row_ptr[rows], counts)
        return TranslatedTable(
            generated,
            offsets(counts.reshape(n * n, n).sum(axis=1)),
            path,
            generated.prob[path],
        ).merged()

    @cached_property
    def canonical_flows(self) -> np.ndarray:
        # Without loop removal a path is a phase-1 path to a uniform
        # intermediate m plus the phase-2 path from m, so flows are the
        # convolution x[d] = (1/N) sum_m (x1[m] + shift_m(x2[d - m])),
        # row 0 zero.  Loop removal is not linear: IVAL enumerates.
        if self._remove_loops:
            return super().canonical_flows
        group = self._translation_group
        n, c = self.network.num_nodes, self.network.num_channels
        # Each nonzero x2[t, ch] lands on row m + t, channel ch + m, for
        # every intermediate m.
        t, ch = np.nonzero(self._phase2.canonical_flows)
        cells = group.node_sum[:, t] * c + group.chan_shift[ch].T
        weights = np.broadcast_to(self._phase2.canonical_flows[t, ch], cells.shape)
        flows = np.bincount(
            cells.ravel(), weights=weights.ravel(), minlength=n * c
        ).reshape(n, c)
        flows += self._phase1.canonical_flows.sum(axis=0)
        flows /= n
        flows[0] = 0.0
        flows.setflags(write=False)
        return flows


def VAL(torus: Torus) -> Valiant:
    """Valiant's algorithm as evaluated in the paper (DOR both phases)."""
    return Valiant(torus, name="VAL")


def IVAL(torus: Torus) -> Valiant:
    """Improved Valiant: reversed second-phase dimension order plus loop
    removal (Section 5.2)."""
    return Valiant(
        torus, reverse_second_phase=True, remove_loops=True, name="IVAL"
    )
