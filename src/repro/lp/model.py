"""Incremental sparse LP model builder.

Each batch of constraints is stored as one CSR block as it is added, and
a section's blocks are joined into one at solve time (and kept joined) —
the standard trick for assembling large sparse systems without quadratic
copying, at 12 bytes a nonzero instead of 24 for int64 COO triplets.
The routing-design LPs of the paper reach hundreds of thousands of rows
and millions of nonzeros at paper scale (Section 4 puts the practical
CPLEX limit at "a few million nonzero terms"); HiGHS handles the same
sizes comfortably.

A model solves through one HiGHS instance that it keeps (SciPy's bundled
binding): later solves push only what changed, and simplex restarts from
the previous basis, which makes column generation's many master re-solves
cheap.

A formulation whose model is invariant under column permutations (the
torus point group acting on a design LP) declares them with
:meth:`LinearModel.declare_symmetry`; HiGHS then holds the much smaller
orbit quotient (:mod:`repro.lp.quotient`), and solutions, duals and the
solve observer's certificates are lifted back to the full model.
"""

from __future__ import annotations

import dataclasses
import math
import time
import typing
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.constants import COLGEN_VIOLATION_TOL
from repro.lp.quotient import Orbits
from repro.lp.solve import LPError, LPSolution

#: Oldest SciPy whose bundled HiGHS binding exposes ``_Highs``.
SCIPY_FLOOR = "1.15"

try:
    from scipy.optimize._highspy import _core as _highs
    from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

    _highs._Highs
except (ImportError, AttributeError) as exc:  # pragma: no cover - old SciPy
    raise ImportError(
        "repro.lp drives HiGHS through SciPy's bundled binding "
        f"scipy.optimize._highspy._core._Highs; it needs scipy>={SCIPY_FLOOR}"
    ) from exc

#: ``linprog`` method name -> HiGHS ``solver`` option (``None``: HiGHS
#: chooses).
_SOLVERS = {"highs": None, "highs-ds": "simplex", "highs-ipm": "ipm"}

#: ``linprog``'s post-solve feasibility tolerance, ``sqrt(1e-9) * 10``.
_CHECK_TOL = math.sqrt(1e-9) * 10


def _first_solve_options(method: str):
    """The HiGHS options ``linprog(method=method)`` sets."""
    yield "presolve", "on"
    if _SOLVERS[method] is not None:
        yield "solver", _SOLVERS[method]
    yield "highs_debug_level", int(_highs.HighsDebugLevel.kHighsDebugLevelNone)
    yield "log_to_console", False
    yield "output_flag", False
    yield "simplex_strategy", int(
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    )


@dataclasses.dataclass
class _Held:
    """A model's HiGHS instance and what it holds: sizes at load time, how
    many ``<=`` rows it has, the objective and bounds it last got (the
    quotient's, under a declared symmetry) and the model's orbits."""

    highs: object
    num_vars: int
    eq_rows: int
    first_ub_rows: int
    ub_rows: int
    cost: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    orbits: Orbits | None = None


class _Row(typing.NamedTuple):
    """A one-row batch in CSR form (sorted columns, duplicates summed).

    Column generation appends its rows one at a time; building a SciPy
    matrix for each would cost more than the rest of the append.
    """

    data: np.ndarray
    indices: np.ndarray

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def indptr(self) -> np.ndarray:
        return np.array([0, self.data.size])


#: Post-solve observer: called as ``hook(model, solution, assembled)``
#: after every successful solve, where ``assembled`` is the
#: ``(c, a_ub, b_ub, a_eq, b_eq, bounds)`` tuple the solver consumed.
#: Installed by :mod:`repro.verify.certificates` to extract optimality
#: certificates without this layer depending on the verifier.
_SOLVE_OBSERVER = None


def set_solve_observer(hook):
    """Install (or clear, with ``None``) the post-solve observer.

    Returns the previously installed observer so callers can restore it.
    """
    global _SOLVE_OBSERVER
    previous = _SOLVE_OBSERVER
    _SOLVE_OBSERVER = hook
    return previous


@dataclasses.dataclass(frozen=True)
class VariableBlock:
    """Handle to a contiguous block of decision variables.

    Blocks are n-dimensional: ``block[i, j]`` (via :meth:`index`) maps a
    multi-index to the flat column id used in constraints.
    """

    name: str
    offset: int
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def indices(self) -> np.ndarray:
        """All flat column ids of the block, shaped like the block."""
        return np.arange(self.offset, self.offset + self.size).reshape(self.shape)

    def index(self, *multi_index) -> int | np.ndarray:
        """Flat column id(s) for a (possibly vectorized) multi-index."""
        return self.offset + np.ravel_multi_index(multi_index, self.shape)


class LinearModel:
    """A minimize-objective linear program under incremental construction.

    Examples
    --------
    >>> m = LinearModel()
    >>> x = m.add_variables("x", 2)
    >>> m.add_ge([x.index(0), x.index(1)], [1.0, 1.0], 1.0)   # x0 + x1 >= 1
    >>> m.set_objective([x.index(0), x.index(1)], [1.0, 2.0])
    >>> sol = m.solve()
    >>> float(sol.objective)
    1.0
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self._num_vars = 0
        self._blocks: dict[str, VariableBlock] = {}
        self._lb = np.zeros(0, dtype=np.float64)
        self._ub = np.zeros(0, dtype=np.float64)
        # One CSR block per appended batch (as wide as the model was when
        # it was added; a `_Row` for one row), joined into one block per
        # section at solve time.
        self._eq_batches: list[sp.csr_matrix | _Row] = []
        self._eq_rhs: list[np.ndarray] = []
        self._num_eq_rows = 0
        self._ub_batches: list[sp.csr_matrix | _Row] = []
        self._ub_rhs: list[np.ndarray] = []
        self._num_ub_rows = 0
        self._nnz = 0
        self._obj_cols: list[np.ndarray] = []
        self._obj_vals: list[np.ndarray] = []
        self._symmetry: np.ndarray | None = None
        self._held: _Held | None = None

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return self._num_vars

    @property
    def num_constraints(self) -> int:
        return self._num_eq_rows + self._num_ub_rows

    def add_variables(
        self,
        name: str,
        shape: int | Sequence[int],
        lb: float = 0.0,
        ub: float = math.inf,
    ) -> VariableBlock:
        """Add a named block of variables with uniform bounds.

        The default bounds ``[0, inf)`` match the nonnegativity of path
        probabilities / flows; pass ``lb=-inf`` for free variables such as
        the matching potentials ``u`` and ``v`` of the worst-case LP (8).
        """
        if name in self._blocks:
            raise ValueError(f"variable block {name!r} already exists")
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        else:
            shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in shape):
            raise ValueError(f"block {name!r} has non-positive dimension: {shape}")
        block = VariableBlock(name=name, offset=self._num_vars, shape=shape)
        self._num_vars += block.size
        self._blocks[name] = block
        self._lb = np.concatenate([self._lb, np.full(block.size, lb)])
        self._ub = np.concatenate([self._ub, np.full(block.size, ub)])
        return block

    def block(self, name: str) -> VariableBlock:
        """Look up a variable block by name."""
        return self._blocks[name]

    def set_bounds(self, block: VariableBlock, lb=None, ub=None) -> None:
        """Override bounds for an entire block (scalar or per-element)."""
        span = slice(block.offset, block.offset + block.size)
        if lb is not None:
            self._lb[span] = lb
        if ub is not None:
            self._ub[span] = ub

    def fix_variables(self, cols, values) -> None:
        """Pin individual variables to exact values via equal bounds."""
        cols = np.atleast_1d(np.asarray(cols, dtype=np.int64))
        values = np.broadcast_to(np.asarray(values, dtype=np.float64), cols.shape)
        self._lb[cols] = values
        self._ub[cols] = values

    def declare_symmetry(self, column_maps) -> None:
        """Declare column permutations the model is invariant under.

        ``column_maps[g, j]`` is the image of column ``j`` under map
        ``g``; variables added later are fixed by every map.  Each solve
        that loads the model checks that every map carries the objective,
        the bounds and the rows with their rhs onto themselves (raising
        ``ValueError`` otherwise) and passes HiGHS the orbit quotient;
        appended rows reload it.  For use by formulations that know their
        model's symmetry — the solution is an optimum of the full model
        either way.
        """
        maps = np.asarray(column_maps, dtype=np.int64)
        n = self._num_vars
        if maps.ndim != 2 or maps.shape[1] != n or not np.array_equal(
            np.sort(maps, axis=1), np.broadcast_to(np.arange(n), maps.shape)
        ):
            raise ValueError(
                f"column maps must be permutations of the model's {n} columns"
            )
        self._symmetry = maps
        self._held = None

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    @staticmethod
    def _as_triplet(cols, vals):
        cols = np.atleast_1d(np.asarray(cols, dtype=np.int64))
        vals = np.atleast_1d(np.asarray(vals, dtype=np.float64))
        if vals.shape == (1,) and cols.shape != (1,):
            vals = np.broadcast_to(vals, cols.shape).copy()
        if cols.shape != vals.shape:
            raise ValueError(f"cols {cols.shape} and vals {vals.shape} mismatch")
        return cols, vals

    def add_eq(self, cols, vals, rhs: float) -> None:
        """Add a single equality row ``sum(vals * x[cols]) == rhs``."""
        cols, vals = self._as_triplet(cols, vals)
        rows = np.zeros(cols.shape[0], dtype=np.int64)
        self.add_eq_batch(rows, cols, vals, np.asarray([rhs], dtype=np.float64))

    def add_le(self, cols, vals, rhs: float) -> None:
        """Add a single row ``sum(vals * x[cols]) <= rhs``."""
        cols, vals = self._as_triplet(cols, vals)
        rows = np.zeros(cols.shape[0], dtype=np.int64)
        self.add_le_batch(rows, cols, vals, np.asarray([rhs], dtype=np.float64))

    def add_ge(self, cols, vals, rhs: float) -> None:
        """Add a single row ``sum(vals * x[cols]) >= rhs``."""
        cols, vals = self._as_triplet(cols, vals)
        self.add_le(cols, -vals, -float(rhs))

    def add_eq_batch(self, rows, cols, vals, rhs) -> None:
        """Bulk-add equality rows from COO triplets.

        ``rows`` are batch-local (0-based within this call); ``rhs`` has
        one entry per batch-local row.  Duplicate ``(row, col)`` entries
        are summed.
        """
        self._eq_batches.append(self._check_batch(rows, cols, vals, rhs))
        self._eq_rhs.append(np.atleast_1d(np.asarray(rhs, dtype=np.float64)))
        self._num_eq_rows += self._eq_rhs[-1].shape[0]
        self._nnz += self._eq_batches[-1].nnz

    def add_le_batch(self, rows, cols, vals, rhs) -> None:
        """Bulk-add ``<=`` rows from COO triplets (see :meth:`add_eq_batch`)."""
        self._ub_batches.append(self._check_batch(rows, cols, vals, rhs))
        self._ub_rhs.append(np.atleast_1d(np.asarray(rhs, dtype=np.float64)))
        self._num_ub_rows += self._ub_rhs[-1].shape[0]
        self._nnz += self._ub_batches[-1].nnz

    def add_ge_batch(self, rows, cols, vals, rhs) -> None:
        """Bulk-add ``>=`` rows (negated into ``<=`` form)."""
        rows = np.asarray(rows, dtype=np.int64)
        vals = -np.asarray(vals, dtype=np.float64)
        rhs = -np.asarray(rhs, dtype=np.float64)
        self.add_le_batch(rows, cols, vals, rhs)

    def _check_batch(self, rows, cols, vals, rhs):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows/cols/vals must have identical shapes")
        if rows.size and (rows.min() < 0 or rows.max() >= rhs.shape[0]):
            raise ValueError("batch row index out of range of rhs")
        if cols.size and (cols.min() < 0 or cols.max() >= self._num_vars):
            raise ValueError("column index out of range; add variables first")
        if rhs.shape[0] == 1:
            cols, inv = np.unique(cols, return_inverse=True)
            return _Row(np.bincount(inv.ravel(), vals.ravel(), cols.size), cols)
        return sp.csr_matrix(
            (vals.ravel(), (rows.ravel(), cols.ravel())),
            shape=(rhs.shape[0], self._num_vars),
        )

    # ------------------------------------------------------------------
    # Objective and solve
    # ------------------------------------------------------------------
    def set_objective(self, cols, vals) -> None:
        """Set (replacing) the minimization objective ``sum(vals * x[cols])``."""
        cols, vals = self._as_triplet(cols, vals)
        self._obj_cols = [cols]
        self._obj_vals = [vals]

    def add_objective_terms(self, cols, vals) -> None:
        """Accumulate additional terms into the objective."""
        cols, vals = self._as_triplet(cols, vals)
        self._obj_cols.append(cols)
        self._obj_vals.append(vals)

    def _objective(self) -> np.ndarray:
        c = np.zeros(self._num_vars)
        if self._obj_cols:
            np.add.at(
                c, np.concatenate(self._obj_cols), np.concatenate(self._obj_vals)
            )
        return c

    def _stack(self, batches, rhs_parts, first_row: int = 0):
        """One section's rows from ``first_row`` on as one CSR block as
        wide as the model, and their rhs (``None, None`` when there are
        none).

        A whole section's joined block replaces its batches, so the rows
        are held once and a later call (a warm re-solve's certificate)
        returns the same arrays without copying."""
        n = self._num_vars
        parts, rhs, start = [], [], 0
        for block, part in zip(batches, rhs_parts):
            lo = max(first_row - start, 0)
            start += part.shape[0]
            if lo < part.shape[0]:
                parts.append(block[lo:] if lo else block)
                rhs.append(part[lo:])
        if not parts:
            return None, None
        if len(parts) == 1 and sp.issparse(parts[0]) and parts[0].shape[1] == n:
            mat, rhs = parts[0], rhs[0]
        else:
            # Stack the CSR arrays (blocks added before later variables
            # are narrower; their column indices hold as they are).
            offsets = np.cumsum([0] + [b.nnz for b in parts])
            indptr = np.concatenate(
                [[0]] + [b.indptr[1:] + off for b, off in zip(parts, offsets)]
            )
            mat = sp.csr_matrix(
                (
                    np.concatenate([b.data for b in parts]),
                    np.concatenate([b.indices for b in parts]),
                    indptr,
                ),
                shape=(indptr.size - 1, n),
            )
            rhs = np.concatenate(rhs)
        if first_row == 0:
            batches[:], rhs_parts[:] = [mat], [rhs]
        return mat, rhs

    def _assemble(self):
        """The model as ``(c, a_ub, b_ub, a_eq, b_eq, bounds)`` — the
        arguments ``scipy.optimize.linprog`` would take."""
        a_ub, b_ub = self._stack(self._ub_batches, self._ub_rhs)
        a_eq, b_eq = self._stack(self._eq_batches, self._eq_rhs)
        bounds = np.column_stack([self._lb, self._ub])
        return self._objective(), a_ub, b_ub, a_eq, b_eq, bounds

    def _column_maps(self) -> np.ndarray:
        """The declared maps over the current columns (later ones fixed)."""
        maps = self._symmetry
        extra = np.arange(maps.shape[1], self._num_vars)
        return np.hstack([maps, np.broadcast_to(extra, (maps.shape[0], extra.size))])

    def _load(self, method: str):
        """Pass the whole model to a fresh HiGHS instance; returns the
        :meth:`_assemble` tuple it was built from.

        Without a declared symmetry the instance gets exactly what
        ``linprog`` would build — ``<=`` rows then equality rows,
        column-wise, with ``linprog``'s options — so a first solve is
        bit-identical to ``linprog``'s.  With one it gets the checked
        orbit quotient of that model, with the same options.
        """
        n = self._num_vars
        assembled = self._assemble()
        c, a_ub, b_ub, a_eq, b_eq, _ = assembled
        b_ub = np.zeros(0) if b_ub is None else b_ub
        b_eq = np.zeros(0) if b_eq is None else b_eq
        orbits = None
        if self._symmetry is not None:
            orbits = Orbits.of(self._column_maps(), assembled)
            cost, lb, ub = orbits.columns(c, self._lb, self._ub)
            a = orbits.matrix(a_ub, a_eq)
            b_ub, b_eq = b_ub[orbits.ub.rep], b_eq[orbits.eq.rep]
        else:
            cost, lb, ub = c, self._lb, self._ub
            blocks = [a for a in (a_ub, a_eq) if a is not None]
            a = (
                sp.vstack(blocks, format="csc") if blocks else sp.csc_matrix((0, n))
            )
        lp = _highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = cost.shape[0]
        lp.num_row_ = lp.a_matrix_.num_row_ = a.shape[0]
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.col_cost_ = cost
        lp.col_lower_ = lb
        lp.col_upper_ = ub
        lp.row_lower_ = np.concatenate([np.full(b_ub.shape[0], -np.inf), b_eq])
        lp.row_upper_ = np.concatenate([b_ub, b_eq])
        lp.a_matrix_.start_ = a.indptr
        lp.a_matrix_.index_ = a.indices
        lp.a_matrix_.value_ = a.data
        highs = _highs._Highs()
        for option, value in _first_solve_options(method):
            highs.setOptionValue(option, value)
        highs.passModel(lp)
        self._held = _Held(
            highs=highs,
            num_vars=n,
            eq_rows=self._num_eq_rows,
            first_ub_rows=self._num_ub_rows,
            ub_rows=self._num_ub_rows,
            cost=cost,
            lb=lb.copy(),
            ub=ub.copy(),
            orbits=orbits,
        )
        return assembled

    def _push_changes(self) -> None:
        """Bring the held HiGHS model up to date with new ``<=`` rows and
        objective and bound changes only, keeping its basis (a declared
        symmetry gets only the quotient's changes, after checking that
        they keep the model invariant)."""
        held = self._held
        highs = held.highs
        a_new, b_new = self._stack(
            self._ub_batches, self._ub_rhs, first_row=held.ub_rows
        )
        if a_new is not None:
            highs.addRows(
                a_new.shape[0],
                np.full(a_new.shape[0], -np.inf),
                b_new,
                a_new.nnz,
                a_new.indptr[:-1].astype(np.int32),
                a_new.indices.astype(np.int32),
                a_new.data,
            )
            held.ub_rows = self._num_ub_rows
        c, lb, ub = self._objective(), self._lb, self._ub
        if held.orbits is not None:
            c, lb, ub = held.orbits.columns(c, lb, ub)
        cols = np.flatnonzero(c != held.cost).astype(np.int32)
        if cols.size:
            highs.changeColsCost(cols.size, cols, c[cols])
            held.cost = c
        cols = np.flatnonzero((lb != held.lb) | (ub != held.ub)).astype(np.int32)
        if cols.size:
            highs.changeColsBounds(cols.size, cols, lb[cols], ub[cols])
            held.lb, held.ub = lb.copy(), ub.copy()
        # Re-solves tighten the primal tolerance to the separation
        # tolerance (HiGHS's minimum): at the 1e-7 default a warm vertex
        # can violate its own rows by more than separation allows, and
        # column generation would re-propose rows the master already holds.
        highs.setOptionValue("primal_feasibility_tolerance", COLGEN_VIOLATION_TOL)

    def _run(self):
        """Run HiGHS; ``(status, message, iterations, solution-or-None)``
        with SciPy's status codes and ``linprog``'s feasibility re-check,
        both on the full model (a quotient solution is lifted first)."""
        held = self._held
        highs = held.highs
        highs.run()
        model_status = highs.getModelStatus()
        info = highs.getInfo()
        iterations = int(info.simplex_iteration_count or info.ipm_iteration_count)
        status, message = _highs_to_scipy_status_message(
            model_status, highs.modelStatusToString(model_status)
        )
        if status != 0:
            return status, message, iterations, None
        result = highs.getSolution()
        x = np.array(result.col_value)
        row_value = np.array(result.row_value)
        row_dual = np.array(result.row_dual)
        if held.orbits is not None:
            x, ub_value, eq_value, ub_dual, eq_dual = held.orbits.lift(
                x, row_value, row_dual
            )
        else:
            # HiGHS rows: the <= rows present at load, the equality rows,
            # then every <= row appended since.
            k, e = held.first_ub_rows, held.eq_rows
            ub_rows = np.r_[0:k, k + e : row_value.shape[0]]
            ub_value, ub_dual = row_value[ub_rows], row_dual[ub_rows]
            eq_value, eq_dual = row_value[k : k + e], row_dual[k : k + e]
        b_ub = np.concatenate(self._ub_rhs) if self._ub_rhs else np.zeros(0)
        b_eq = np.concatenate(self._eq_rhs) if self._eq_rhs else np.zeros(0)
        tol = _CHECK_TOL
        if not (
            np.all(np.isfinite(x))
            and np.all((x >= self._lb - tol) & (x <= self._ub + tol))
            and np.all(b_ub - ub_value >= -tol)
            and np.all(np.abs(b_eq - eq_value) <= tol)
        ):
            message = f"The solution violates the constraints by over {tol:.2E}."
            return 4, message, iterations, None
        solution = LPSolution(
            objective=float(info.objective_function_value),
            x=x,
            eq_duals=eq_dual if eq_dual.size else None,
            ub_duals=ub_dual if ub_dual.size else None,
            iterations=iterations,
        )
        return status, message, iterations, solution

    def solve(self, method: str = "highs", attrs: dict | None = None) -> LPSolution:
        """Solve the model; raise :class:`LPError` unless optimal.

        ``method`` picks the HiGHS solver as ``linprog`` does
        (``"highs"``, ``"highs-ds"`` or ``"highs-ipm"``); the first solve
        is bit-identical to ``linprog``'s.  The model keeps its HiGHS
        instance: a re-solve after appending ``<=`` rows, changing the
        objective or changing bounds pushes only that change (the span's
        ``warm`` attr).  Simplex then restarts from the previous basis;
        interior point solves the held model afresh.  A model that gained
        variables or equality rows since is passed again whole, and later
        ``method`` values are ignored until then.  Under a declared
        symmetry (:meth:`declare_symmetry`) HiGHS holds the orbit
        quotient instead: the span gains ``orbit_rows``/``orbit_cols``
        (``rows``/``cols``/``nnz`` stay the full model's), only objective
        and bound changes re-solve warm, and the returned solution, its
        duals and the solve observer's certificate are the full model's,
        lifted from the quotient optimum.  ``attrs`` adds extra
        attributes to the ``lp.solve`` span — column generation tags every
        master re-solve with its iteration and generated-row count, so
        traces show the loop's shape.
        """
        if method not in _SOLVERS:
            raise ValueError(
                f"unknown LP method {method!r}; choose from {tuple(_SOLVERS)}"
            )
        stats = self.stats()
        t0 = time.perf_counter()
        held = self._held
        warm = (
            held is not None
            and held.num_vars == self._num_vars
            and held.eq_rows == self._num_eq_rows
            and (held.orbits is None or held.first_ub_rows == self._num_ub_rows)
        )
        with obs.span(
            "lp.solve",
            model=self.name,
            method=method,
            rows=stats["eq_rows"] + stats["ub_rows"],
            cols=stats["variables"],
            nnz=stats["nonzeros"],
            warm=warm,
            **(attrs or {}),
        ) as sp_solve:
            assembled = None
            if warm:
                self._push_changes()
            else:
                assembled = self._load(method)
            orbits = self._held.orbits
            if orbits is not None:
                sp_solve.set(
                    orbit_rows=orbits.num_rows, orbit_cols=int(orbits.rep.size)
                )
            status, message, iterations, solution = self._run()
            sp_solve.set(status=status, iterations=iterations)
        obs.metric_count("lp.solves", status=status)
        obs.metric_count("lp.iterations", iterations)
        obs.metric_observe("lp.nonzeros", stats["nonzeros"])
        obs.metric_observe(
            "lp.rows", stats["eq_rows"] + stats["ub_rows"]
        )
        obs.metric_observe(
            "lp.solve_seconds", time.perf_counter() - t0, volatile=True
        )
        if status != 0:
            raise LPError(status, message, model=self.name, stats=stats)
        if _SOLVE_OBSERVER is not None:
            _SOLVE_OBSERVER(self, solution, assembled or self._assemble())
        return solution

    def stats(self) -> dict:
        """Model-size summary used in logs and reports."""
        return {
            "name": self.name,
            "variables": self._num_vars,
            "eq_rows": self._num_eq_rows,
            "ub_rows": self._num_ub_rows,
            "nonzeros": self._nnz,
        }
