"""Interpolated routing algorithms (paper Section 5.3, eqs. 11-14).

Because oblivious routing algorithms are probability distributions over
paths, any convex combination of two algorithms is again a valid
algorithm: route with :math:`R_1` with probability :math:`\\alpha`, else
with :math:`R_2`.  Path length interpolates linearly (eq. 12) while
worst-case channel load is bounded by the interpolation of the
endpoints' loads (eq. 13) — with equality whenever the endpoints share a
worst-case permutation, as DOR and IVAL do (footnote 5).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.routing.base import ObliviousRouting
from repro.routing.paths import Path


class Interpolated(ObliviousRouting):
    """Convex combination ``alpha * first + (1 - alpha) * second``."""

    def __init__(
        self,
        first: ObliviousRouting,
        second: ObliviousRouting,
        alpha: float,
        name: str | None = None,
    ) -> None:
        if first.network is not second.network:
            raise ValueError("interpolated algorithms must share a network")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        super().__init__(
            first.network,
            name or f"{first.name}~{second.name}@{alpha:.2f}",
        )
        self.first = first
        self.second = second
        self.alpha = float(alpha)
        self.translation_invariant = (
            first.translation_invariant and second.translation_invariant
        )
        self.canonical_order = first.canonical_order and second.canonical_order

    def path_distribution(self, src: int, dst: int) -> list[tuple[Path, float]]:
        acc: dict[Path, float] = {}
        for path, prob in self.first.path_distribution(src, dst):
            acc[path] = acc.get(path, 0.0) + self.alpha * prob
        for path, prob in self.second.path_distribution(src, dst):
            acc[path] = acc.get(path, 0.0) + (1.0 - self.alpha) * prob
        return list(acc.items())

    @cached_property
    def canonical_flows(self) -> np.ndarray:
        # Flows are linear in the distribution, so interpolate directly
        # instead of re-walking every path (eq. 11 applied to loads).
        flows = (
            self.alpha * self.first.canonical_flows
            + (1.0 - self.alpha) * self.second.canonical_flows
        )
        flows.setflags(write=False)
        return flows


def sweep(
    first: ObliviousRouting,
    second: ObliviousRouting,
    alphas,
) -> list[Interpolated]:
    """The family of interpolations at each ``alpha`` (Figure 5's curves)."""
    return [Interpolated(first, second, float(a)) for a in alphas]
