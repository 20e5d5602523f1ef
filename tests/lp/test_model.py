"""Unit tests for the LP modelling layer."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.lp import LinearModel, LPError


class TestVariables:
    def test_block_indexing(self):
        m = LinearModel()
        x = m.add_variables("x", (3, 4))
        assert x.size == 12
        assert x.index(1, 2) == 6
        assert m.num_variables == 12

    def test_multiple_blocks_offset(self):
        m = LinearModel()
        x = m.add_variables("x", 5)
        y = m.add_variables("y", (2, 2))
        assert y.offset == 5
        assert y.index(1, 1) == 5 + 3

    def test_block_lookup(self):
        m = LinearModel()
        x = m.add_variables("x", 2)
        assert m.block("x") is x

    def test_duplicate_name_rejected(self):
        m = LinearModel()
        m.add_variables("x", 2)
        with pytest.raises(ValueError, match="already exists"):
            m.add_variables("x", 3)

    def test_bad_shape_rejected(self):
        m = LinearModel()
        with pytest.raises(ValueError, match="non-positive"):
            m.add_variables("x", (2, 0))

    def test_indices_shape(self):
        m = LinearModel()
        x = m.add_variables("x", (2, 3))
        assert x.indices().shape == (2, 3)
        assert x.indices()[1, 0] == 3


class TestSolve:
    def test_simple_min(self):
        # min x0 + 2 x1  s.t.  x0 + x1 >= 1, x >= 0
        m = LinearModel()
        x = m.add_variables("x", 2)
        m.add_ge(x.indices(), [1.0, 1.0], 1.0)
        m.set_objective(x.indices(), [1.0, 2.0])
        sol = m.solve()
        assert sol.objective == pytest.approx(1.0)
        assert sol[x][0] == pytest.approx(1.0)
        assert sol[x][1] == pytest.approx(0.0)

    def test_equality_constraint(self):
        m = LinearModel()
        x = m.add_variables("x", 2)
        m.add_eq(x.indices(), [1.0, 1.0], 2.0)
        m.set_objective(x.indices(), [3.0, 1.0])
        sol = m.solve()
        assert sol.objective == pytest.approx(2.0)
        assert sol[x][1] == pytest.approx(2.0)

    def test_le_constraint_and_maximization_via_negation(self):
        # max x  s.t. x <= 4  ==  min -x
        m = LinearModel()
        x = m.add_variables("x", 1)
        m.add_le(x.indices(), [1.0], 4.0)
        m.set_objective(x.indices(), [-1.0])
        sol = m.solve()
        assert sol[x][0] == pytest.approx(4.0)

    def test_free_variables(self):
        m = LinearModel()
        x = m.add_variables("x", 1, lb=-math.inf)
        m.add_ge(x.indices(), [1.0], -5.0)
        m.set_objective(x.indices(), [1.0])
        sol = m.solve()
        assert sol[x][0] == pytest.approx(-5.0)

    def test_infeasible_raises(self):
        m = LinearModel()
        x = m.add_variables("x", 1)
        m.add_le(x.indices(), [1.0], -1.0)  # x <= -1 with x >= 0
        m.set_objective(x.indices(), [1.0])
        with pytest.raises(LPError) as err:
            m.solve()
        assert err.value.status == 2

    def test_unbounded_raises(self):
        m = LinearModel()
        x = m.add_variables("x", 1)
        m.set_objective(x.indices(), [-1.0])
        with pytest.raises(LPError):
            m.solve()

    def test_batch_rows(self):
        # x_i >= i for i in 0..3, min sum x
        m = LinearModel()
        x = m.add_variables("x", 4)
        rows = np.arange(4)
        m.add_ge_batch(rows, x.indices(), np.ones(4), np.arange(4, dtype=float))
        m.set_objective(x.indices(), np.ones(4))
        sol = m.solve()
        assert np.allclose(sol[x], [0, 1, 2, 3])

    def test_eq_batch(self):
        m = LinearModel()
        x = m.add_variables("x", (2, 2))
        # row sums equal 1
        rows = np.repeat(np.arange(2), 2)
        cols = x.indices().ravel()
        m.add_eq_batch(rows, cols, np.ones(4), np.ones(2))
        m.set_objective(cols, [1.0, 2.0, 2.0, 1.0])
        sol = m.solve()
        assert sol.objective == pytest.approx(2.0)
        assert sol[x].sum(axis=1) == pytest.approx([1.0, 1.0])

    def test_fix_variables(self):
        m = LinearModel()
        x = m.add_variables("x", 2)
        m.fix_variables(x.index(0), 3.0)
        m.add_ge(x.indices(), [1.0, 1.0], 5.0)
        m.set_objective(x.indices(), [1.0, 1.0])
        sol = m.solve()
        assert sol[x][0] == pytest.approx(3.0)
        assert sol[x][1] == pytest.approx(2.0)

    def test_set_bounds(self):
        m = LinearModel()
        x = m.add_variables("x", 2)
        m.set_bounds(x, lb=1.0, ub=2.0)
        m.set_objective(x.indices(), [1.0, 1.0])
        sol = m.solve()
        assert np.allclose(sol[x], [1.0, 1.0])

    def test_duals_of_tight_constraint(self):
        # min x s.t. x >= 3: dual of the (converted <=) row is -1.
        m = LinearModel()
        x = m.add_variables("x", 1)
        m.add_ge(x.indices(), [1.0], 3.0)
        m.set_objective(x.indices(), [1.0])
        sol = m.solve()
        assert sol.ub_duals is not None
        assert sol.ub_duals[0] == pytest.approx(-1.0)

    def test_value_helper(self):
        m = LinearModel()
        x = m.add_variables("x", 2)
        m.add_eq(x.indices(), [1.0, 1.0], 3.0)
        m.set_objective(x.indices(), [1.0, 2.0])
        sol = m.solve()
        assert sol.value(x.indices(), [1.0, 1.0]) == pytest.approx(3.0)


class TestValidation:
    def test_column_out_of_range(self):
        m = LinearModel()
        m.add_variables("x", 2)
        with pytest.raises(ValueError, match="out of range"):
            m.add_le([5], [1.0], 1.0)

    def test_shape_mismatch(self):
        m = LinearModel()
        x = m.add_variables("x", 3)
        with pytest.raises(ValueError, match="mismatch"):
            m.add_le(x.indices(), [1.0, 2.0], 1.0)

    def test_batch_row_out_of_range(self):
        m = LinearModel()
        x = m.add_variables("x", 2)
        with pytest.raises(ValueError, match="row index"):
            m.add_le_batch([0, 3], x.indices(), [1.0, 1.0], [1.0])

    def test_scalar_val_broadcast(self):
        m = LinearModel()
        x = m.add_variables("x", 3)
        m.add_eq(x.indices(), [1.0], 6.0)  # broadcasts to all-ones row
        m.set_objective(x.indices(), [1.0])
        sol = m.solve()
        assert sol.objective == pytest.approx(6.0)

    def test_stats(self):
        m = LinearModel("demo")
        x = m.add_variables("x", 3)
        m.add_eq(x.indices(), np.ones(3), 1.0)
        m.add_le(x.indices()[:2], np.ones(2), 1.0)
        s = m.stats()
        assert s == {
            "name": "demo",
            "variables": 3,
            "eq_rows": 1,
            "ub_rows": 1,
            "nonzeros": 5,
        }


class TestRowStorage:
    """Each batch is held as one CSR block (duplicates summed), and a
    section's blocks are joined at solve time: the model handed to the
    solver is the one ``scipy.sparse`` builds from all the triplets."""

    @staticmethod
    def _build():
        m = LinearModel("csr-rows")
        x = m.add_variables("x", 3, ub=4.0)
        # (0, x0) twice and (1, x2) three times in one batch.
        m.add_le_batch(
            [0, 0, 1, 1, 1, 0],
            [0, 0, 2, 2, 2, 1],
            [1.0, 0.5, 0.25, 0.25, 0.5, -1.0],
            [3.0, 2.0],
        )
        m.add_eq(x.indices(), [1.0, 1.0, 1.0], 2.0)
        y = m.add_variables("y", 2)  # later columns widen earlier blocks
        m.add_ge_batch(
            [0, 0, 1], [x.index(1), y.index(0), y.index(1)], [1.0] * 3, [1.0, 0.5]
        )
        m.set_objective(np.r_[x.indices(), y.indices()], [-1.0, -2.0, -0.5, 1.0, 1.0])
        return m, x

    def test_assembled_model_and_first_solve_match_linprog(self):
        m, x = self._build()
        c, a_ub, b_ub, a_eq, b_eq, bounds = m._assemble()
        want_ub = sp.coo_matrix(
            (
                [1.0, 0.5, 0.25, 0.25, 0.5, -1.0, -1.0, -1.0, -1.0],
                ([0, 0, 1, 1, 1, 0, 2, 2, 3], [0, 0, 2, 2, 2, 1, 1, 3, 4]),
            ),
            shape=(4, 5),
        ).tocsr()
        assert (a_ub != want_ub).nnz == 0
        assert a_ub[0, 0] == 1.5 and a_ub[1, 2] == 1.0
        assert np.array_equal(b_ub, [3.0, 2.0, -1.0, -0.5])
        assert a_eq.shape == (1, 5) and np.array_equal(b_eq, [2.0])
        assert m.stats()["nonzeros"] == 3 + 3 + 3  # duplicates summed
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds)
        sol = m.solve()
        assert sol.objective == ref.fun and np.array_equal(sol.x, ref.x)
        assert np.array_equal(sol.ub_duals, ref.ineqlin.marginals)
        assert np.array_equal(sol.eq_duals, ref.eqlin.marginals)

    def test_rows_appended_after_a_solve(self):
        m, x = self._build()
        m.solve()
        joined = m._assemble()[1]
        # Appended rows, duplicates again, land after the joined block.
        m.add_le_batch(
            [0, 0, 0], [x.index(0), x.index(0), x.index(1)], [0.5] * 3, [0.5]
        )
        got = m.solve()
        c, a_ub, b_ub, a_eq, b_eq, bounds = m._assemble()
        assert a_ub.shape == (5, 5)
        assert (a_ub[:4] != joined).nnz == 0
        assert a_ub[4].toarray().tolist() == [[1.0, 0.5, 0.0, 0.0, 0.0]]
        assert b_ub[-1] == 0.5
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds)
        assert got.objective == pytest.approx(ref.fun, abs=1e-9)
        # The joined rows are held once: assembling again copies nothing.
        assert m._assemble()[1] is a_ub
