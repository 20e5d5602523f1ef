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

from functools import cached_property

import numpy as np

from repro.routing import paths as pathmod
from repro.routing.base import ObliviousRouting
from repro.routing.dor import DimensionOrderRouting
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
            memo[key] = routing.path_distribution(src, dst)
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
