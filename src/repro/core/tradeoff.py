"""Locality-versus-throughput tradeoff sweeps (Figures 1, 4 and 6).

Each point of the paper's optimal tradeoff curves is one LP solve with a
pinned average path length; sweeping the pin traces the Pareto frontier
of feasible oblivious routing algorithms.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.core.average_case import design_average_case
from repro.core.worst_case import design_worst_case
from repro.topology.symmetry import TranslationGroup
from repro.topology.torus import Torus


@dataclasses.dataclass(frozen=True)
class TradeoffPoint:
    """One point of an optimal tradeoff curve.

    ``normalized_length`` is ``H_avg / H_min`` (vertical axis);
    ``load`` is the optimized cost (worst-case or sample-average max
    channel load), so ``1 / load`` is the throughput (horizontal axis
    after normalizing by capacity).
    """

    normalized_length: float
    load: float

    @property
    def throughput(self) -> float:
        return 1.0 / self.load


def worst_case_tradeoff(
    torus: Torus,
    normalized_lengths: Sequence[float],
    group: TranslationGroup | None = None,
    locality_sense: str = "==",
    method: str = "auto",
    solver: str | None = None,
) -> list[TradeoffPoint]:
    """Optimal worst-case throughput at each pinned locality (Fig. 1).

    ``normalized_lengths`` are multiples of the minimal average path
    length (e.g. ``numpy.linspace(1.0, 2.0, 21)``).  ``method`` picks
    the worst-case formulation (``"auto"``/``"full"``/``"colgen"``, see
    :func:`repro.core.worst_case.design_worst_case`); ``solver`` the LP
    backend.
    """
    if group is None:
        group = TranslationGroup(torus)
    h_min = torus.mean_min_distance()
    points = []
    for ratio in normalized_lengths:
        design = design_worst_case(
            torus,
            locality_hops=float(ratio) * h_min,
            locality_sense=locality_sense,
            group=group,
            method=method,
            solver=solver,
        )
        points.append(
            TradeoffPoint(normalized_length=float(ratio), load=design.worst_case_load)
        )
    return points


def average_case_tradeoff(
    torus: Torus,
    sample: Sequence[np.ndarray],
    normalized_lengths: Sequence[float],
    group: TranslationGroup | None = None,
    locality_sense: str = "==",
    method: str = "highs-ipm",
) -> list[TradeoffPoint]:
    """Optimal average-case throughput at each pinned locality (Fig. 6)."""
    if group is None:
        group = TranslationGroup(torus)
    h_min = torus.mean_min_distance()
    points = []
    for ratio in normalized_lengths:
        design = design_average_case(
            torus,
            sample,
            locality_hops=float(ratio) * h_min,
            locality_sense=locality_sense,
            group=group,
            method=method,
        )
        points.append(
            TradeoffPoint(normalized_length=float(ratio), load=design.average_load)
        )
    return points


def locality_range_at_worst_case(
    torus: Torus,
    worst_case_load_bound: float,
    group: TranslationGroup | None = None,
    solver: str = "highs-ipm",
) -> tuple[float, float]:
    """Locality span of the feasible region at a worst-case level.

    Figure 1 shades the set of *feasible* algorithms; at a given
    worst-case load bound the achievable normalized path lengths form an
    interval.  Both endpoints are LPs: minimize / maximize ``H_avg``
    subject to the worst-case constraints with ``w`` capped.
    """
    if group is None:
        group = TranslationGroup(torus)
    from repro.core.worst_case import _build

    h_min = torus.mean_min_distance()
    endpoints = []
    for sign in (+1.0, -1.0):
        prob, w = _build(torus, group, None, "==")
        prob.model.set_bounds(w, ub=float(worst_case_load_bound))
        cols, vals = prob.locality_terms()
        prob.model.set_objective(cols, sign * vals)
        sol = prob.model.solve(method=solver)
        endpoints.append(sign * sol.objective / h_min)
    return endpoints[0], endpoints[1]


def optimal_locality_at_max_worst_case(
    torus: Torus,
    group: TranslationGroup | None = None,
    solver: str | None = None,
) -> float:
    """Normalized locality of the best worst-case-optimal algorithm —
    the "optimal" series of Figure 4 (about 1.48 for the 8-ary 2-cube,
    Section 5.2).  A lexicographic design, so it always solves the full
    LP."""
    design = design_worst_case(
        torus, minimize_locality=True, group=group, solver=solver
    )
    return design.avg_path_length / torus.mean_min_distance()
