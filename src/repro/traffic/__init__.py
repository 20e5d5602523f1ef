"""Traffic patterns (paper Sections 2.3, 3.1, 3.3).

A traffic pattern :math:`\\Lambda` is a doubly-stochastic ``N x N``
matrix: entry :math:`\\lambda_{s,d}` is the fraction of source ``s``'s
unit injection bandwidth destined for node ``d``.  Worst-case analysis
only needs permutation matrices (by [11], cited in Section 3.2);
average-case analysis samples the doubly-stochastic (Birkhoff) polytope.

This package provides the uniform pattern, the classic permutations used
in the torus-routing literature, random permutations, and two samplers
for random doubly-stochastic matrices.
"""

from repro.traffic.patterns import (
    uniform,
    permutation_matrix,
    transpose,
    tornado,
    complement,
    bit_reverse,
    shuffle,
    neighbor,
    named_patterns,
)
from repro.traffic.doubly_stochastic import (
    birkhoff_sample,
    sinkhorn_sample,
    sample_traffic_set,
    validate_doubly_stochastic,
    DesignSample,
    close_under_point_group,
)
from repro.traffic.permutations import random_permutation, random_permutations

__all__ = [
    "uniform",
    "permutation_matrix",
    "transpose",
    "tornado",
    "complement",
    "bit_reverse",
    "shuffle",
    "neighbor",
    "named_patterns",
    "birkhoff_sample",
    "sinkhorn_sample",
    "sample_traffic_set",
    "validate_doubly_stochastic",
    "DesignSample",
    "close_under_point_group",
    "random_permutation",
    "random_permutations",
]
