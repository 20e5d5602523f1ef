"""Average-case-optimal routing design — eq. (9), problem (15).

Averaging throughput over all doubly-stochastic matrices is intractable
(Section 3.3), so the paper (a) samples a finite random subset ``X`` and
(b) swaps the harmonic mean of throughputs for the arithmetic mean of
maximum channel loads, which is linear-programmable: one auxiliary
variable ``m_j`` per sample upper-bounds every channel's load under
:math:`\\Lambda_j`, and the objective is their mean.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.constants import LEXICOGRAPHIC_SLACK, SOLVER_DUST
from repro.core.flows import CanonicalFlowProblem
from repro.topology.symmetry import TranslationGroup
from repro.topology.torus import Torus
from repro.traffic.doubly_stochastic import DesignSample, close_under_point_group


@dataclasses.dataclass(frozen=True)
class AverageCaseDesign:
    """An average-case-optimal (optionally locality-constrained) design.

    ``average_load`` is the sample mean of :math:`\\gamma_{max}` under
    the *design* sample; evaluating on an independent sample (as the
    experiments do) is the honest measure of average-case throughput.
    """

    flows: np.ndarray
    average_load: float
    avg_path_length: float
    model_stats: dict

    @property
    def average_throughput(self) -> float:
        return 1.0 / self.average_load


def _build(
    torus: Torus,
    group: TranslationGroup | None,
    sample: DesignSample,
    locality_hops: float | None,
    locality_sense: str,
):
    """The model (15) over ``sample``; returns the problem and its
    one-variable ``mean`` block (the objective), declared under the
    point group when the sample is closed."""
    prob = CanonicalFlowProblem(torus, group, name="average-case-design")
    bounds = prob.model.add_variables("m", len(sample))
    mean = prob.model.add_variables("mean", 1)
    prob.average_case_constraints(sample, bounds, mean)
    if locality_hops is not None:
        prob.add_locality_constraint(locality_hops, locality_sense)
    prob.declare_point_symmetry(sample=(bounds, sample))
    return prob, mean


def design_average_case(
    torus: Torus,
    sample: Sequence[np.ndarray],
    locality_hops: float | None = None,
    locality_sense: str = "==",
    minimize_locality: bool = False,
    group: TranslationGroup | None = None,
    method: str = "highs-ipm",
) -> AverageCaseDesign:
    """Design a routing algorithm minimizing mean max channel load.

    On a torus the sample is closed under the point group first
    (:func:`~repro.traffic.close_under_point_group`), so the LP solves
    on its orbit quotient and the design is point-symmetric; its
    ``average_load`` is then also its mean load over ``sample`` itself.

    Parameters
    ----------
    torus:
        Target topology.
    sample:
        The set ``X`` of doubly-stochastic matrices (|X| = 100 at paper
        scale; sparse Birkhoff samples keep the LP tractable).
    locality_hops, locality_sense:
        Optional ``H_avg`` side constraint as in problem (15).
    minimize_locality:
        Lexicographic stage 2: minimize ``H_avg`` subject to the optimal
        average load — the 2TURNA construction applies this over its
        restricted path set (Section 5.4).  Re-solves the stage-1 model
        in place with the mean capped.
    """
    if len(sample) == 0:
        raise ValueError("average-case design needs a nonempty sample")
    if group is None:
        group = TranslationGroup(torus)
    closed = close_under_point_group(sample, torus)
    prob, mean = _build(torus, group, closed, locality_hops, locality_sense)
    prob.model.set_objective(mean.indices(), [1.0])
    sol = prob.model.solve(method=method)
    avg_load = float(sol.objective)

    if minimize_locality:
        prob.model.set_bounds(
            mean, ub=avg_load * (1 + LEXICOGRAPHIC_SLACK) + SOLVER_DUST
        )
        prob.model.set_objective(*prob.locality_terms())
        sol = prob.model.solve(method=method)

    flows = prob.flows_from(sol)
    return AverageCaseDesign(
        flows=flows,
        average_load=avg_load,
        avg_path_length=float(flows.sum() / torus.num_nodes),
        model_stats=prob.model.stats(),
    )
