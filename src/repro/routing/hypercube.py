"""Oblivious routing algorithms on the hypercube.

E-cube routing [15-17 setting] fixes differing address bits in
ascending dimension order — the hypercube's dimension-order routing.
Its worst-case throughput is notoriously poor (the
:math:`\\Omega(\\sqrt{N})` congestion lower bound for deterministic
oblivious routing); Valiant's two-phase randomization repairs it, just
as on the torus.
"""

from __future__ import annotations

from repro.routing.base import ObliviousRouting
from repro.routing.paths import Path
from repro.topology.hypercube import Hypercube


class ECube(ObliviousRouting):
    """Deterministic ascending-dimension bit-fixing routing."""

    translation_invariant = True

    def __init__(self, cube: Hypercube, name: str = "ECUBE") -> None:
        super().__init__(cube, name)

    def path_distribution(self, src: int, dst: int) -> list[tuple[Path, float]]:
        if src == dst:
            return [((src,), 1.0)]
        nodes = [src]
        cur = src
        diff = src ^ dst
        dim = 0
        while diff:
            if diff & 1:
                cur ^= 1 << dim
                nodes.append(cur)
            diff >>= 1
            dim += 1
        return [(tuple(nodes), 1.0)]


class HypercubeValiant(ObliviousRouting):
    """Two-phase Valiant routing on the hypercube: e-cube to a uniform
    random intermediate, then e-cube to the destination."""

    translation_invariant = True
    # Intermediates are walked in absolute node order.
    canonical_order = False

    def __init__(self, cube: Hypercube, name: str = "VAL") -> None:
        super().__init__(cube, name)
        self._ecube = ECube(cube)

    def path_distribution(self, src: int, dst: int) -> list[tuple[Path, float]]:
        if src == dst:
            return [((src,), 1.0)]
        n = self.network.num_nodes
        acc: dict[Path, float] = {}
        for mid in range(n):
            (p1, _), = self._ecube.path_distribution(src, mid)
            (p2, _), = self._ecube.path_distribution(mid, dst)
            path = p1 + p2[1:]
            acc[path] = acc.get(path, 0.0) + 1.0 / n
        return list(acc.items())
