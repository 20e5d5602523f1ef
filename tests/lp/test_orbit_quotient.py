"""Tests for solving a symmetry-declaring ``LinearModel`` on its orbit
quotient (``LinearModel.declare_symmetry``, ``repro.lp.quotient``).

The quotient optimum lifted back must be an optimum of the full model,
with duals that certify it against the full model; a declaration the
model does not satisfy must raise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.lp import LinearModel, LPError, quotient
from repro.verify.certificates import collect_certificates


def _spans(model_name):
    return [
        ev["attrs"]
        for ev in obs.get_tracer().events
        if ev.get("name") == "lp.solve" and ev["attrs"].get("model") == model_name
    ]


def _cyclic_maps(n):
    """All rotations of ``n`` columns: ``maps[g, j] = (j + g) % n``."""
    return (np.arange(n)[None, :] + np.arange(n)[:, None]) % n


def _swap_model(name="swap", declare=True):
    # min x0 + x1 + 3 z  s.t.  x0 + 2 x1 >= 1,  2 x0 + x1 >= 1,
    # 2 z >= x0 + x1 - 2,  x0 + x1 - 3 z == 2/3; swapping x0, x1 maps
    # the first two rows onto each other and fixes the rest.
    m = LinearModel(name)
    x = m.add_variables("x", 2)
    z = m.add_variables("z", 1)
    m.add_ge(x.indices(), [1.0, 2.0], 1.0)
    m.add_ge(x.indices(), [2.0, 1.0], 1.0)
    m.add_ge([z.index(0), x.index(0), x.index(1)], [2.0, -1.0, -1.0], -2.0)
    m.add_eq([x.index(0), x.index(1), z.index(0)], [1.0, 1.0, -3.0], 2 / 3)
    m.set_objective(np.r_[x.indices(), z.indices()], [1.0, 1.0, 3.0])
    if declare:
        m.declare_symmetry([[1, 0, 2]])
    return m, x, z


class TestQuotientSolve:
    def test_lifted_solution_and_certificate(self):
        m, _, _ = _swap_model()
        with collect_certificates(strict=True) as certs:
            sol = m.solve()
        assert sol.objective == pytest.approx(2 / 3, abs=1e-12)
        assert np.allclose(sol.x, [1 / 3, 1 / 3, 0.0])
        assert sol.ub_duals.shape == (3,) and sol.eq_duals.shape == (1,)
        # The two swapped rows share their orbit's dual equally.
        assert sol.ub_duals[0] == sol.ub_duals[1]
        (cert,) = certs.certificates
        assert cert.valid and cert.rows == 4 and cert.variables == 3

    def test_span_keeps_full_sizes_and_adds_orbit_sizes(self):
        m, _, _ = _swap_model("swap-span")
        m.solve()
        (attrs,) = _spans("swap-span")[-1:]
        assert (attrs["rows"], attrs["cols"]) == (4, 3)
        assert (attrs["orbit_rows"], attrs["orbit_cols"]) == (3, 2)

    def test_undeclared_model_has_no_orbit_attrs(self):
        m, _, _ = _swap_model("swap-plain", declare=False)
        m.solve()
        assert "orbit_rows" not in _spans("swap-plain")[-1]

    def test_objective_and_bound_changes_resolve_warm(self):
        m, x, z = _swap_model("swap-warm")
        m.solve()
        m.set_bounds(x, lb=0.5)
        m.set_objective(np.r_[x.indices(), z.indices()], [2.0, 2.0, 1.0])
        with collect_certificates(strict=True):
            sol = m.solve()
        fresh, xf, zf = _swap_model("swap-fresh")
        fresh.set_bounds(xf, lb=0.5)
        fresh.set_objective(np.r_[xf.indices(), zf.indices()], [2.0, 2.0, 1.0])
        assert sol.objective == pytest.approx(fresh.solve().objective, abs=1e-12)
        assert [a["warm"] for a in _spans("swap-warm")[-2:]] == [False, True]

    def test_appended_rows_resolve_warm_and_recheck(self):
        def add_closed_rows(model, x):
            # x0 >= 0.4 and its image x1 >= 0.4: one row orbit, binding.
            model.add_ge([x.index(0)], [1.0], 0.4)
            model.add_ge([x.index(1)], [1.0], 0.4)

        m, x, _ = _swap_model("swap-rows")
        m.solve()
        add_closed_rows(m, x)
        with collect_certificates(strict=True) as certs:
            sol = m.solve()
        assert certs.all_valid and len(certs.certificates) == 1
        attrs = _spans("swap-rows")[-1]
        assert attrs["warm"] is True
        assert (attrs["rows"], attrs["orbit_rows"]) == (6, 4)
        cold, xc, _ = _swap_model("swap-rows-cold")
        add_closed_rows(cold, xc)
        want = cold.solve()
        assert _spans("swap-rows-cold")[-1]["warm"] is False
        assert sol.objective == pytest.approx(want.objective, abs=1e-12)
        assert sol.objective == pytest.approx(0.8 + 3 * (0.8 - 2 / 3) / 3, abs=1e-12)
        assert np.allclose(sol.x, want.x, atol=1e-12)
        assert np.allclose(sol.ub_duals, want.ub_duals, atol=1e-12)
        assert np.allclose(sol.eq_duals, want.eq_duals, atol=1e-12)
        assert sol.ub_duals[3] == sol.ub_duals[4] != 0.0
        m.add_le([x.index(0)], [1.0], 5.0)  # breaks the swap
        with pytest.raises(ValueError, match="<= rows"):
            m.solve()

    def test_later_variables_are_fixed_points(self):
        m, x, _ = _swap_model("swap-grow")
        y = m.add_variables("y", 1)
        m.add_ge([y.index(0), x.index(0), x.index(1)], [1.0, -1.0, -1.0], 0.0)
        m.add_objective_terms(y.indices(), [1.0])
        sol = m.solve()
        assert sol[y][0] == pytest.approx(2 / 3)
        assert _spans("swap-grow")[-1]["orbit_cols"] == 3


class TestInvarianceCheck:
    def test_asymmetric_objective_raises(self):
        m, x, z = _swap_model()
        m.set_objective(np.r_[x.indices(), z.indices()], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="objective"):
            m.solve()

    def test_asymmetric_bounds_raise(self):
        m, x, _ = _swap_model()
        m.fix_variables([x.index(0)], 0.5)
        with pytest.raises(ValueError, match="bounds"):
            m.solve()

    def test_asymmetric_rows_raise(self):
        m = LinearModel()
        x = m.add_variables("x", 2)
        m.add_ge(x.indices(), [1.0, 2.0], 1.0)
        m.set_objective(x.indices(), [1.0, 1.0])
        m.declare_symmetry([[1, 0]])
        with pytest.raises(ValueError, match="<= rows"):
            m.solve()

    def test_asymmetric_rhs_raises(self):
        m = LinearModel()
        x = m.add_variables("x", 2)
        m.add_eq([x.index(0)], [1.0], 1.0)
        m.add_eq([x.index(1)], [1.0], 2.0)
        m.declare_symmetry([[1, 0]])
        with pytest.raises(ValueError, match="== rows"):
            m.solve()

    def test_exact_comparison_backs_up_the_hashes(self, monkeypatch):
        # With every row hash equal, only the exact comparison can tell
        # that the swap does not carry the row onto a row of the model.
        monkeypatch.setattr(quotient, "splitmix64", lambda z: z & np.uint64(0))
        m = LinearModel()
        x = m.add_variables("x", 2)
        m.add_ge(x.indices(), [1.0, 2.0], 1.0)
        m.add_ge(x.indices(), [1.0, 3.0], 1.0)
        m.set_objective(x.indices(), [1.0, 1.0])
        m.declare_symmetry([[1, 0]])
        with pytest.raises(ValueError, match="<= rows"):
            m.solve()

    def test_warm_objective_change_is_checked(self):
        m, x, z = _swap_model()
        m.solve()
        m.set_objective(np.r_[x.indices(), z.indices()], [1.0, 1.5, 3.0])
        with pytest.raises(ValueError, match="objective"):
            m.solve()

    @pytest.mark.parametrize(
        "maps", [[[0, 0, 2]], [[1, 0]], [1, 0, 2], [[0, 1, 3]]]
    )
    def test_malformed_maps_rejected(self, maps):
        m, _, _ = _swap_model(declare=False)
        with pytest.raises(ValueError, match="permutations"):
            m.declare_symmetry(maps)


# A random LP made invariant under the rotations of its n columns by
# adding every rotation of each random row (same rhs); bounds and
# objective are uniform, so the full model and its quotient share their
# optimum.
_N = 4
_coef = st.integers(-3, 3).map(float)
_row = st.tuples(st.lists(_coef, min_size=_N, max_size=_N), st.integers(0, 4))


@settings(max_examples=25, deadline=None)
@given(
    cost=st.integers(-2, 3).map(float),
    rows=st.lists(_row, min_size=1, max_size=3),
    eq_row=st.booleans(),
)
def test_rotation_invariant_lp_matches_unreduced(cost, rows, eq_row):
    def build(declare):
        m = LinearModel("rotations")
        x = m.add_variables("x", _N, ub=2.0)
        for coefs, rhs in rows:
            for g in range(_N):
                m.add_le(x.indices(), np.roll(coefs, g), float(rhs))
        if eq_row:
            m.add_eq(x.indices(), np.ones(_N), 2.0)
        m.set_objective(x.indices(), np.full(_N, cost))
        if declare:
            m.declare_symmetry(_cyclic_maps(_N))
        return m

    try:
        want = build(False).solve().objective
    except LPError:
        with pytest.raises(LPError):
            build(True).solve()
        return
    with collect_certificates(strict=True):
        sol = build(True).solve()
    assert sol.objective == pytest.approx(want, rel=1e-9, abs=1e-9)
    assert np.ptp(sol.x) == 0.0  # constant on the single column orbit
