"""Network capacity — problem (6) of the paper.

Capacity is the maximum throughput under uniform traffic, i.e. the
reciprocal of the minimum achievable :math:`\\gamma_{max}(R, U)` over
all oblivious routing algorithms.  Its value normalizes every
throughput the paper reports ("fraction of capacity").
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.flows import CanonicalFlowProblem
from repro.topology.symmetry import TranslationGroup
from repro.topology.torus import Torus


@dataclasses.dataclass(frozen=True)
class CapacityResult:
    """Solution of the capacity problem.

    ``load`` is the optimal uniform channel load :math:`\\gamma^*_U`;
    ``throughput = 1 / load`` is the network capacity; ``flows`` is a
    canonical flow table of a capacity-achieving routing algorithm.
    """

    load: float
    flows: np.ndarray

    @property
    def throughput(self) -> float:
        return 1.0 / self.load


def solve_capacity(
    torus: Torus, group: TranslationGroup | None = None
) -> CapacityResult:
    """Solve problem (6): minimize :math:`\\gamma_{max}(R, U)`.

    On a k-ary n-cube the optimum is the classic :math:`k/8` per
    dimension for even radix and :math:`(k^2-1)/(8k)` for odd radix,
    both attained by minimal routing — used as cross-checks in the test
    suite.
    """
    prob = CanonicalFlowProblem(torus, group, name="capacity")
    gamma = prob.model.add_variables("gamma", 1)
    for cls in range(torus.num_classes):
        cols, vals = prob.uniform_load_terms(cls)
        rep_bandwidth = torus.bandwidth[torus.class_representatives()[cls]]
        prob.model.add_le(
            np.concatenate([cols, gamma.indices()]),
            np.concatenate([vals, [-rep_bandwidth]]),
            0.0,
        )
    prob.model.set_objective(gamma.indices(), [1.0])
    prob.declare_point_symmetry()
    sol = prob.model.solve()
    return CapacityResult(load=float(sol[gamma][0]), flows=prob.flows_from(sol))


def torus_capacity_load(torus: Torus) -> float:
    """Closed-form optimal uniform load of a k-ary n-cube.

    Each of the ``2n`` direction classes carries, per ring, a mean
    minimal distance of ``k/4`` (even) or ``(k^2-1)/(4k)`` (odd) hops
    per node spread over ``2k`` directed ring channels — giving
    ``k/8`` resp. ``(k^2-1)/(8k)``.  Used to validate the LP.
    """
    k = torus.k
    if k % 2 == 0:
        return k / 8.0
    return (k * k - 1) / (8.0 * k)
