"""Orbit quotient of an LP that is invariant under column permutations.

If permuting the columns by each map of a group ``G`` carries the
objective, the bounds and the set of rows (with their right-hand sides)
onto themselves, then averaging any optimum over ``G`` gives an optimum
that is constant on every column orbit.  Such a point is ``x = P y``
with ``P`` the column-to-orbit indicator, so the LP can be solved over
``y`` alone: the quotient has the columns of ``A P`` (one per orbit,
cost summed over the orbit, bounds of any member) and one row per row
orbit, because the rows of one orbit coincide in ``A P``.

Lifting back is exact: ``x = y[orbit]``; a row's value is its orbit's
row value; a row's dual is its orbit's dual divided by the orbit size.
That dual is constant on row orbits, so the reduced costs are constant
on column orbits (each one the quotient's reduced cost over the orbit
size) and every dual sign condition and the dual objective carry over:
a certificate of the quotient optimum is a certificate of the full LP.

Invariance is checked, not assumed: each row section is hashed under
each map (an order-free sum of 64-bit mixes of ``(column key, value)``
pairs), rows are matched by sorted hash and the match is then confirmed
by exact comparison, which also yields the row permutations whose
orbits are the row orbits.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_RHS_SALT = np.uint64(0x9E3779B97F4A7C15)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64 (wrapping), in place:
    ``z`` must be a fresh array (one temporary instead of five)."""
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def _bits(values: np.ndarray) -> np.ndarray:
    # +0.0 folds -0.0 into 0.0 so equal values hash equally.
    return (np.asarray(values, dtype=np.float64) + 0.0).view(np.uint64)


def _row_hashes(a, rhs_hash: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Per-row order-free hash of ``(keys[col], value)`` pairs plus rhs."""
    entry = _mix(_bits(a.data))
    entry ^= keys[a.indices]
    entry = _mix(entry)
    entry[a.data == 0] = 0
    sums = np.concatenate([[np.uint64(0)], np.cumsum(entry, dtype=np.uint64)])
    return sums[a.indptr[1:]] - sums[a.indptr[:-1]] + rhs_hash


def _components(size: int, perms: list[np.ndarray]):
    """``(label per element, first element per label, label sizes)`` of the
    orbits the permutations generate.

    Each element pulls the smallest label among its images until nothing
    changes; a permutation's inverse is one of its powers, so this reaches
    the whole orbit and leaves every element labelled by its orbit's
    smallest member.
    """
    label = np.arange(size)
    while True:
        pulled = label
        for p in perms:
            pulled = np.minimum(pulled, pulled[p])
        if np.array_equal(pulled, label):
            break
        label = pulled
    rep, label = np.unique(label, return_inverse=True)
    return label, rep, np.bincount(label)


@dataclasses.dataclass(frozen=True)
class _Section:
    """Row orbits of one constraint section (``<=`` or ``==`` rows)."""

    label: np.ndarray  # row -> row orbit
    rep: np.ndarray  # row orbit -> representative row
    size: np.ndarray  # row orbit -> row count

    @classmethod
    def of(cls, a, rhs, maps: np.ndarray, keys: np.ndarray, section: str):
        if a is None:
            empty = np.zeros(0, dtype=np.int64)
            return cls(empty, empty, empty)
        a = a.tocsr()
        rhs_hash = _mix(_bits(rhs) ^ _RHS_SALT)
        base = _row_hashes(a, rhs_hash, keys)
        order = np.argsort(base, kind="stable")
        perms = []
        for g, sigma in enumerate(maps):
            image_hash = _row_hashes(a, rhs_hash, keys[sigma])
            image_order = np.argsort(image_hash, kind="stable")
            pi = np.empty_like(order)
            pi[image_order] = order
            # Row i carried by the map must be row pi[i], exactly.
            image = sp.csr_matrix(
                (a.data, sigma[a.indices], a.indptr), shape=a.shape
            )
            if (
                not np.array_equal(base[order], image_hash[image_order])
                or (image != a[pi]).nnz
                or not np.array_equal(rhs[pi], rhs)
            ):
                raise ValueError(
                    f"declared column map {g} does not carry the {section} "
                    "rows onto themselves"
                )
            perms.append(pi)
        return cls(*_components(a.shape[0], perms))

    def quotient(self, a, orbit_of_col: np.ndarray, num_orbits: int):
        """Rows of ``A P`` for each row orbit's representative."""
        if a is None:
            return sp.csr_matrix((0, num_orbits))
        reps = a.tocsr()[self.rep]
        q = sp.csr_matrix(
            (reps.data, orbit_of_col[reps.indices], reps.indptr),
            shape=(self.rep.size, num_orbits),
        )
        q.sum_duplicates()
        q.eliminate_zeros()
        return q

    def lift(self, values: np.ndarray, duals: np.ndarray):
        """Full rows' values and duals from their orbits'."""
        return values[self.label], (duals / self.size)[self.label]


@dataclasses.dataclass(frozen=True)
class Orbits:
    """Column and row orbits of a model under its declared column maps.

    Holds index arrays only — never a copy of the constraint matrix.
    """

    col: np.ndarray  # column -> column orbit
    rep: np.ndarray  # column orbit -> representative column
    size: np.ndarray  # column orbit -> column count
    ub: _Section
    eq: _Section

    @classmethod
    def of(cls, maps: np.ndarray, assembled) -> "Orbits":
        """Orbits of ``assembled`` (a ``LinearModel._assemble`` tuple)
        under ``maps``; ``ValueError`` unless every map carries each row
        section with its rhs onto itself (:meth:`columns` checks the
        objective and bounds).
        """
        c, a_ub, b_ub, a_eq, b_eq, _ = assembled
        n = c.shape[0]
        keys = np.random.default_rng(0x5EED).integers(
            0, 2**63, size=n, dtype=np.int64
        ).view(np.uint64)
        col, rep, size = _components(n, list(maps))
        return cls(
            col,
            rep,
            size,
            _Section.of(a_ub, b_ub, maps, keys, "<="),
            _Section.of(a_eq, b_eq, maps, keys, "=="),
        )

    @property
    def num_rows(self) -> int:
        return int(self.ub.rep.size + self.eq.rep.size)

    def columns(self, c, lb, ub):
        """Quotient objective and bounds; ``ValueError`` unless the full
        ones are constant on every column orbit."""
        for name, vec in (("objective", c), ("lower bounds", lb), ("upper bounds", ub)):
            if not np.array_equal(vec[self.rep][self.col], vec):
                raise ValueError(
                    f"the {name} are not invariant under the declared column maps"
                )
        return c[self.rep] * self.size, lb[self.rep], ub[self.rep]

    def matrix(self, a_ub, a_eq):
        """The quotient's ``<=`` then ``==`` rows, column-wise."""
        m = self.rep.size
        return sp.vstack(
            [self.ub.quotient(a_ub, self.col, m), self.eq.quotient(a_eq, self.col, m)],
            format="csc",
        )

    def lift(self, x, row_value, row_dual):
        """``(x, ub values, eq values, ub duals, eq duals)`` of the full
        model from a quotient solution (rows: ``<=`` orbits, then ``==``)."""
        k = self.ub.rep.size
        ub_value, ub_dual = self.ub.lift(row_value[:k], row_dual[:k])
        eq_value, eq_dual = self.eq.lift(row_value[k:], row_dual[k:])
        return x[self.col], ub_value, eq_value, ub_dual, eq_dual
