"""Random doubly-stochastic traffic matrices (paper Section 3.3).

The average-case cost function (9) averages the maximum channel load over
a random, finite subset ``X`` of the doubly-stochastic (Birkhoff)
polytope.  The paper does not pin down the sampling distribution — only
that |X| = 100 samples approximate the average well — so two samplers are
provided:

* :func:`birkhoff_sample` — a Dirichlet-weighted convex combination of a
  few random permutation matrices.  Samples are *sparse* (at most
  ``r * N`` nonzeros), which keeps the average-case LP rows sparse; this
  is the default used by the experiments.
* :func:`sinkhorn_sample` — iterative proportional fitting of a positive
  random matrix; produces dense interior points of the polytope.

Both samplers hit every face/interior region relevant to the paper's
qualitative results; EXPERIMENTS.md records which was used where.

A design LP solves on its torus point-group quotient only if its sample
is closed under that group: :func:`close_under_point_group` adds every
image ``Λ∘g`` and records the sample permutation each generator induces
(:class:`DesignSample`).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.constants import FEASIBILITY_ATOL, SOLVER_DUST
from repro.topology.symmetry import point_group_generators, stabilizer_maps
from repro.topology.torus import Torus


def validate_doubly_stochastic(
    mat: np.ndarray, tol: float = FEASIBILITY_ATOL
) -> None:
    """Raise :class:`ValueError` unless ``mat`` is doubly-stochastic.

    Checks nonnegativity and unit row/column sums to tolerance ``tol``
    (the definition in paper Section 2.3).
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"traffic matrix must be square, got {mat.shape}")
    if (mat < -tol).any():
        raise ValueError("traffic matrix has negative entries")
    if not np.allclose(mat.sum(axis=1), 1.0, atol=tol):
        raise ValueError("traffic matrix row sums differ from 1")
    if not np.allclose(mat.sum(axis=0), 1.0, atol=tol):
        raise ValueError("traffic matrix column sums differ from 1")


def birkhoff_sample(
    rng: np.random.Generator,
    num_nodes: int,
    num_permutations: int = 8,
) -> np.ndarray:
    """Random convex combination of random permutation matrices.

    By Birkhoff's theorem (paper Appendix, [32]) every doubly-stochastic
    matrix is such a combination; sampling a few terms with
    Dirichlet(1, ..., 1) weights yields sparse random traffic.
    """
    if num_permutations < 1:
        raise ValueError("need at least one permutation")
    weights = rng.dirichlet(np.ones(num_permutations))
    mat = np.zeros((num_nodes, num_nodes))
    rows = np.arange(num_nodes)
    for w in weights:
        mat[rows, rng.permutation(num_nodes)] += w
    return mat


def sinkhorn_sample(
    rng: np.random.Generator,
    num_nodes: int,
    iterations: int = 1000,
    tol: float = SOLVER_DUST,
) -> np.ndarray:
    """Doubly-stochastic matrix via Sinkhorn-Knopp balancing.

    Starts from an i.i.d. exponential random matrix (strictly positive,
    so convergence is guaranteed) and alternately normalizes rows and
    columns until the worst residual over *both* axes is within ``tol``
    of one.  An earlier version checked only the row residual and then
    re-normalized rows after the loop, which silently re-broke the
    column sums; the result is now validated before it is returned, and
    failure to converge raises instead of returning an unbalanced
    matrix.
    """
    mat = rng.exponential(1.0, size=(num_nodes, num_nodes))
    for _ in range(iterations):
        mat /= mat.sum(axis=1, keepdims=True)
        mat /= mat.sum(axis=0, keepdims=True)
        residual = max(
            np.abs(mat.sum(axis=1) - 1.0).max(),
            np.abs(mat.sum(axis=0) - 1.0).max(),
        )
        if residual < tol:
            break
    else:
        raise RuntimeError(
            f"Sinkhorn balancing did not reach tol={tol:g} in "
            f"{iterations} iterations (residual {residual:g})"
        )
    validate_doubly_stochastic(mat, tol=max(tol, FEASIBILITY_ATOL))
    return mat


def sample_traffic_set(
    rng: np.random.Generator,
    num_nodes: int,
    count: int,
    method: str = "birkhoff",
    num_permutations: int = 8,
) -> list[np.ndarray]:
    """Sample the set ``X`` of traffic matrices for the average-case
    cost function (paper eq. 9; |X| = 100 in Section 5.4)."""
    if count < 1:
        raise ValueError("sample count must be positive")
    if method == "birkhoff":
        return [
            birkhoff_sample(rng, num_nodes, num_permutations) for _ in range(count)
        ]
    if method == "sinkhorn":
        return [sinkhorn_sample(rng, num_nodes) for _ in range(count)]
    raise ValueError(f"unknown sampling method {method!r}")


@dataclasses.dataclass(frozen=True)
class DesignSample:
    """The sample ``X`` of an average-case design LP.

    ``weights[j]`` is matrix ``j``'s share of the mean the LP minimizes
    (``1/|X|`` each for a sample taken as drawn).  ``perms`` is ``None``
    unless the sample is closed under the torus point group; then
    ``perms[i, j]`` is the index of matrix ``j`` carried by generator
    ``i`` of :func:`~repro.topology.symmetry.point_group_generators`.
    """

    matrices: list[np.ndarray]
    weights: np.ndarray
    perms: np.ndarray | None = None

    @classmethod
    def of(cls, sample: Sequence[np.ndarray]) -> "DesignSample":
        """``sample`` as drawn: equal weights, not closed."""
        if len(sample) == 0:
            raise ValueError("a design sample needs at least one matrix")
        return cls(list(sample), np.full(len(sample), 1.0 / len(sample)))

    def __len__(self) -> int:
        return len(self.matrices)


def _image(mat: np.ndarray, node_map: np.ndarray) -> np.ndarray:
    """``Λ∘g``: traffic from ``g(s)`` to ``g(d)`` is ``Λ[s, d]``."""
    out = np.empty_like(mat)
    out[np.ix_(node_map, node_map)] = mat
    return out


def close_under_point_group(sample: Sequence[np.ndarray], torus) -> DesignSample:
    """Close a design sample under the torus point group, deduplicated.

    Holds ``Λ∘g`` for every ``Λ`` in ``sample`` and every map ``g`` of
    :func:`~repro.topology.symmetry.stabilizer_maps` (each distinct matrix
    once, first images first).  Matrix ``j`` weighs the share of
    ``(Λ, g)`` pairs that land on it, so for a point-symmetric routing
    (whose :math:`\\gamma_{max}(\\Lambda\\circ g)` equals
    :math:`\\gamma_{max}(\\Lambda)`) the weighted mean over the closed
    sample is the plain mean over ``sample``.  A ``torus`` that is not a
    :class:`~repro.topology.torus.Torus` (the hypercube) gets ``sample``
    as drawn.
    """
    if not isinstance(torus, Torus):
        return DesignSample.of(sample)
    if len(sample) == 0:
        raise ValueError("a design sample needs at least one matrix")
    maps = stabilizer_maps(torus)
    index: dict[bytes, int] = {}
    matrices: list[np.ndarray] = []
    counts: list[int] = []
    for lam in sample:
        lam = np.asarray(lam, dtype=np.float64) + 0.0  # fold -0.0 into 0.0
        for g in maps:
            img = _image(lam, g.node_map)
            j = index.setdefault(img.tobytes(), len(matrices))
            if j == len(matrices):
                matrices.append(img)
                counts.append(0)
            counts[j] += 1
    perms = np.asarray(
        [
            [index[_image(mat, g.node_map).tobytes()] for mat in matrices]
            for g in point_group_generators(torus)
        ],
        dtype=np.int64,
    ).reshape(-1, len(matrices))
    weights = np.asarray(counts, dtype=np.float64) / (len(sample) * len(maps))
    return DesignSample(matrices, weights, perms)
