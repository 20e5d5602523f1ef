"""Tests for the persistent HiGHS instance behind ``LinearModel.solve``.

A first solve of a model without a declared symmetry must be
bit-identical to ``scipy.optimize.linprog``; a model that declares its
point group solves on its orbit quotient and must match ``linprog`` on
the full model to 1e-9 with a certificate valid against the full model.
A re-solve after appended ``<=`` rows, a new objective or new bounds
runs warm from the kept basis and must agree with solving the same
model fresh.
"""

import subprocess
import sys
import textwrap
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro import obs
from repro.core import average_case
from repro.core.capacity import solve_capacity
from repro.core.worst_case import RestrictedMasterProblem, _build
from repro.constants import COLGEN_VIOLATION_TOL
from repro.lp import LinearModel, LPError
from repro.lp import model as lp_model
from repro.lp.model import _first_solve_options, set_solve_observer
from repro.routing.twoturn import two_turn_average_model
from repro.topology.symmetry import TranslationGroup
from repro.topology.torus import Torus
from repro.traffic.doubly_stochastic import DesignSample, sample_traffic_set
from repro.verify.certificates import collect_certificates


def _linprog(model, method):
    c, a_ub, b_ub, a_eq, b_eq, bounds = model._assemble()
    return linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method=method
    )


def _worst_case_model(k, lexicographic=False):
    torus = Torus(k, 2)
    prob, w = _build(torus, TranslationGroup(torus), None, "==")
    if lexicographic:
        prob.model.set_bounds(w, ub=k / 4 * (1 + 1e-7))
        prob.model.set_objective(*prob.locality_terms())
    else:
        prob.model.set_objective(w.indices(), [1.0])
    return prob.model


def _lp_spans(model_name):
    return [
        ev
        for ev in obs.get_tracer().events
        if ev.get("name") == "lp.solve" and ev["attrs"].get("model") == model_name
    ]


def _sample(torus):
    # As drawn, not closed under the point group: the models stay full.
    return DesignSample.of(
        sample_traffic_set(np.random.default_rng(7), torus.num_nodes, 3)
    )


def _average_case_model(k):
    torus = Torus(k, 2)
    prob, mean = average_case._build(
        torus, TranslationGroup(torus), _sample(torus), None, "=="
    )
    prob.model.set_objective(mean.indices(), [1.0])
    return prob.model


def _two_turn_average_model(k):
    torus = Torus(k, 2)
    lp, mean = two_turn_average_model(torus, _sample(torus))
    lp.model.set_objective(mean.indices(), [1.0])
    return lp.model


def _colgen_master(k):
    master = RestrictedMasterProblem(Torus(k, 2))
    master.model.set_objective(master.w.indices(), [1.0])
    return master.model


class TestFirstSolveMatchesLinprog:
    @pytest.mark.parametrize("method", ["highs", "highs-ds", "highs-ipm"])
    @pytest.mark.parametrize(
        "build", [_average_case_model, _two_turn_average_model, _colgen_master]
    )
    def test_undeclared_model_bit_identical(self, build, method):
        model = build(4)
        ref = _linprog(model, method)
        sol = model.solve(method=method)
        assert "orbit_cols" not in _lp_spans(model.name)[-1]["attrs"]
        assert sol.objective == ref.fun
        assert np.array_equal(sol.x, ref.x)
        assert np.array_equal(sol.ub_duals, ref.ineqlin.marginals)
        assert np.array_equal(sol.eq_duals, ref.eqlin.marginals)
        assert sol.iterations == ref.nit

    @pytest.mark.parametrize("method", ["highs", "highs-ds", "highs-ipm"])
    @pytest.mark.parametrize("lexicographic", [False, True])
    def test_declared_worst_case_model(self, method, lexicographic):
        # Declares the point group: solved on the orbit quotient, so it
        # matches linprog's optimum on the full model, not its vertex.
        model = _worst_case_model(4, lexicographic)
        ref = _linprog(model, method)
        with collect_certificates(strict=True) as certs:
            sol = model.solve(method=method)
        assert "orbit_cols" in _lp_spans(model.name)[-1]["attrs"]
        assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
        assert len(certs.certificates) == 1

    def test_declared_capacity_design(self):
        solves = []
        previous = set_solve_observer(lambda m, s, a: solves.append((s, a)))
        try:
            with collect_certificates(strict=True) as certs:
                solve_capacity(Torus(4, 2))
        finally:
            set_solve_observer(previous)
        ((sol, (c, a_ub, b_ub, a_eq, b_eq, bounds)),) = solves
        assert a_ub is not None and a_eq is not None
        ref = linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
            method="highs",
        )
        assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
        assert sol.x.shape == ref.x.shape
        assert certs.all_valid and len(certs.certificates) == 1

    def test_unknown_method_rejected(self):
        m = LinearModel()
        x = m.add_variables("x", 1)
        m.set_objective(x.indices(), [1.0])
        with pytest.raises(ValueError, match="unknown LP method"):
            m.solve(method="simplex")


class TestWarmResolve:
    def test_appended_rows_resolve_warm(self):
        m = LinearModel("warm-rows")
        x = m.add_variables("x", 2)
        m.add_ge(x.indices(), [1.0, 1.0], 1.0)
        m.set_objective(x.indices(), [1.0, 2.0])
        assert m.solve().objective == pytest.approx(1.0)
        m.add_ge([x.index(1)], [1.0], 0.5)  # x1 >= 0.5
        sol = m.solve()
        assert sol.objective == pytest.approx(1.5)
        assert sol.ub_duals.shape == (2,)
        assert [ev["attrs"]["warm"] for ev in _lp_spans("warm-rows")[-2:]] == [
            False,
            True,
        ]

    def test_new_variables_or_eq_rows_reload(self):
        m = LinearModel("reload")
        x = m.add_variables("x", 2)
        m.add_ge(x.indices(), [1.0, 1.0], 1.0)
        m.set_objective(x.indices(), [1.0, 2.0])
        m.solve()
        m.add_eq([x.index(1)], [1.0], 0.25)
        assert m.solve().objective == pytest.approx(0.75 + 0.5)
        y = m.add_variables("y", 1)
        m.add_ge([x.index(0), y.index(0)], [1.0, 1.0], 2.0)
        m.add_objective_terms(y.indices(), [0.5])
        sol = m.solve()
        # x0 = 0.75 covers row 1; y = 1.25 covers x0 + y >= 2.
        assert sol.objective == pytest.approx(0.75 + 0.5 + 0.625)
        assert [ev["attrs"]["warm"] for ev in _lp_spans("reload")[-3:]] == [
            False,
            False,
            False,
        ]

    def test_resolve_becoming_infeasible_raises_status_2(self):
        m = LinearModel("turns-infeasible")
        x = m.add_variables("x", 2)
        m.add_le(x.indices(), [1.0, 1.0], 1.0)
        m.set_objective(x.indices(), [-1.0, -1.0])
        assert m.solve().objective == pytest.approx(-1.0)
        m.add_ge(x.indices(), [1.0, 1.0], 2.0)
        with pytest.raises(LPError) as info:
            m.solve()
        assert info.value.status == 2
        assert info.value.model == "turns-infeasible"

    def test_resolve_bounds_infeasible_raises_status_2(self):
        m = LinearModel("bounds-infeasible")
        x = m.add_variables("x", 2)
        m.add_ge(x.indices(), [1.0, 1.0], 1.0)
        m.set_objective(x.indices(), [1.0, 1.0])
        m.solve()
        m.set_bounds(x, ub=0.25)
        with pytest.raises(LPError) as info:
            m.solve()
        assert info.value.status == 2

    def test_warm_duals_keep_ub_eq_order(self):
        # ub rows, eq rows, then appended ub rows: HiGHS holds them in a
        # different order, and the certificate checks the (ub, eq) duals.
        m = LinearModel("dual-order")
        x = m.add_variables("x", 3)
        m.add_le(x.indices(), [1.0, 1.0, 1.0], 4.0)
        m.add_eq([x.index(0), x.index(1)], [1.0, -1.0], 0.5)
        m.set_objective(x.indices(), [-1.0, -2.0, -0.5])
        with collect_certificates(strict=True) as certs:
            m.solve()
            m.add_le([x.index(1)], [1.0], 1.0)
            m.add_le([x.index(0), x.index(2)], [1.0, 2.0], 3.0)
            sol = m.solve()
        assert len(certs.certificates) == 2
        assert sol.ub_duals.shape == (3,) and sol.eq_duals.shape == (1,)
        assert all(c.valid for c in certs.certificates)

    def test_observer_sees_fresh_assembly(self):
        seen = []

        def hook(model, solution, assembled):
            seen.append(assembled)

        def build(extra_rows):
            m = LinearModel("observed")
            x = m.add_variables("x", 3, ub=5.0)
            m.add_ge(x.indices(), [1.0, 1.0, 1.0], 1.0)
            m.add_eq([x.index(0)], [1.0], 0.5)
            m.set_objective(x.indices(), [1.0, 2.0, 3.0])
            if extra_rows:
                m.add_ge([x.index(1), x.index(2)], [1.0, 1.0], 1.0)
                m.set_bounds(x, ub=4.0)
            return m

        previous = set_solve_observer(hook)
        try:
            warm = build(False)
            warm.solve()
            x = warm.block("x")
            warm.add_ge([x.index(1), x.index(2)], [1.0, 1.0], 1.0)
            warm.set_bounds(x, ub=4.0)
            warm.solve()
        finally:
            set_solve_observer(previous)
        fresh = build(True)._assemble()
        got = seen[-1]
        for a, b in zip(got, fresh):
            if sp.issparse(a):
                assert (a != b).nnz == 0
            else:
                assert np.array_equal(a, b)


def test_import_without_binding_names_scipy_floor():
    # Hide the HiGHS binding as an old SciPy would lack it.
    script = textwrap.dedent(
        """
        import sys
        sys.modules["scipy.optimize._highspy._core"] = None
        try:
            import repro.lp
        except ImportError as exc:
            print(exc)
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": ":".join(sys.path)},
        check=True,
    ).stdout
    assert "scipy>=1.15" in out


# A random sequence of edits to a box-bounded LP with x = 0 feasible
# (nonnegative rhs), so every step stays feasible and bounded.
_N = 5
_coef = st.floats(-3.0, 3.0).map(lambda v: round(v, 3))
_upper = st.floats(0.0, 3.0).map(lambda v: round(v, 3))
_row = st.tuples(st.lists(_coef, min_size=_N, max_size=_N), st.floats(0.0, 4.0))
_edit = st.one_of(
    st.tuples(st.just("rows"), st.lists(_row, min_size=1, max_size=3)),
    st.tuples(st.just("objective"), st.lists(_coef, min_size=_N, max_size=_N)),
    st.tuples(st.just("bounds"), st.lists(_upper, min_size=_N, max_size=_N)),
)


def _apply(m, x, edit):
    kind, payload = edit
    if kind == "rows":
        for coefs, rhs in payload:
            m.add_le(x.indices(), coefs, rhs)
    elif kind == "objective":
        m.set_objective(x.indices(), payload)
    else:
        m.set_bounds(x, ub=np.asarray(payload))


def _tight_first_solve(method):
    """A cold solve's options at the warm re-solve's primal tolerance."""
    yield from _first_solve_options(method)
    yield "primal_feasibility_tolerance", COLGEN_VIOLATION_TOL


@settings(max_examples=30, deadline=None)
@given(
    objective=st.lists(_coef, min_size=_N, max_size=_N),
    edits=st.lists(_edit, min_size=1, max_size=6),
)
def test_warm_resolve_matches_fresh_model(objective, edits):
    warm = LinearModel("warm")
    xw = warm.add_variables("x", _N, ub=2.0)
    warm.set_objective(xw.indices(), objective)
    warm.solve()
    for i, edit in enumerate(edits):
        _apply(warm, xw, edit)
        got = warm.solve().objective
        fresh = LinearModel("fresh")
        xf = fresh.add_variables("x", _N, ub=2.0)
        fresh.set_objective(xf.indices(), objective)
        for past in edits[: i + 1]:
            _apply(fresh, xf, past)
        # Both solves at one tolerance: at HiGHS's default 1e-7 a cold
        # vertex can sit ~6e-8 from the warm (1e-10) one.
        with mock.patch.object(lp_model, "_first_solve_options", _tight_first_solve):
            want = fresh.solve().objective
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
