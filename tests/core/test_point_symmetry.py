"""Design LPs declared invariant under the torus point group solve on
their orbit quotient; each must reach the optimum of the same model
built without the declaration, with certificates valid against the full
model.

Covered: capacity, worst-case with ``<=`` and ``==`` locality pins,
lexicographic worst-case (stage 2 warm in place), the locality range at
the worst case and 2TURN, on 2-D tori k=3..6, the 3-D 3-ary torus (48
point maps, declared by 6 generators) and a heterogeneous-bandwidth 3-D
torus (16 maps, 4 generators); the lexicographic average-case design
and 2TURNA on a sample closed under the point group, against the full
model on k=3, 4 and by certificate on the 3-D tori.  Column-generation
masters add each separated row's orbit and solve on the quotient too.
Models the point group does not fix — hypercube, a model over an
unclosed sample — solve unreduced.
"""

import numpy as np
import pytest

from repro import obs
from repro.constants import LEXICOGRAPHIC_SLACK, SOLVER_DUST
from repro.core.average_case import design_average_case
from repro.core.capacity import solve_capacity
from repro.core.flows import CanonicalFlowProblem
from repro.core.path_lp import PathSetLP
from repro.core.recovery import routing_from_flows
from repro.core.tradeoff import locality_range_at_worst_case
from repro.core.worst_case import _build, design_worst_case
from repro.routing.twoturn import (
    design_2turn,
    design_2turn_average,
    two_turn_average_model,
    two_turn_paths,
)
from repro.metrics import average_case_load
from repro.topology.hypercube import Hypercube
from repro.topology.symmetry import (
    TranslationGroup,
    point_group_generators,
    stabilizer_maps,
)
from repro.topology.torus import Torus
from repro.traffic.doubly_stochastic import (
    DesignSample,
    close_under_point_group,
    sample_traffic_set,
)
from repro.verify.certificates import collect_certificates

TORI = {
    "k3": Torus(3, 2),
    "k4": Torus(4, 2),
    "k5": Torus(5, 2),
    "k6": Torus(6, 2),
    "3d": Torus(3, 3),
    "3d-het": Torus(3, 3, bandwidths=(1.0, 1.0, 0.5)),
}


def _design_values(torus):
    """Every covered design's headline numbers on ``torus``."""
    h_min = torus.mean_min_distance()
    out = {
        "capacity": solve_capacity(torus).load,
        "wc": design_worst_case(torus, method="full").worst_case_load,
        "wc<=": design_worst_case(
            torus, 1.2 * h_min, "<=", method="full"
        ).worst_case_load,
        "wc==": design_worst_case(
            torus, 1.1 * h_min, "==", method="full"
        ).worst_case_load,
    }
    lex = design_worst_case(torus, minimize_locality=True, method="full")
    out["lex_load"] = lex.worst_case_load
    out["lex_hops"] = lex.avg_path_length
    out["range"] = locality_range_at_worst_case(torus, 1.25 * out["wc"])
    if torus.n == 2:
        tt = design_2turn(torus)
        out["2turn"] = (tt.objective_load, tt.avg_path_length)
    return out


def _unreduced():
    """Monkeypatch under which no formulation declares its point group."""
    mp = pytest.MonkeyPatch()
    for cls in (CanonicalFlowProblem, PathSetLP):
        mp.setattr(cls, "declare_point_symmetry", lambda self, sample=None: False)
    return mp


def _lp_spans(events):
    return [e["attrs"] for e in events if e.get("name") == "lp.solve"]


@pytest.fixture(scope="module", params=list(TORI))
def solved(request):
    """``(torus, quotient values, certificates, lp spans, reference
    values)`` — the reference from the same models without declaring."""
    torus = TORI[request.param]
    tracer = obs.get_tracer()
    mark = tracer.mark()
    with collect_certificates() as certs:
        got = _design_values(torus)
    spans = _lp_spans(tracer.events_since(mark))
    mp = _unreduced()
    try:
        want = _design_values(torus)
    finally:
        mp.undo()
    return torus, got, certs.certificates, spans, want


def test_quotient_matches_unreduced_model(solved):
    _, got, _, _, want = solved
    assert got.keys() == want.keys()
    for key in got:
        assert np.allclose(got[key], want[key], rtol=1e-9, atol=1e-9), key


def test_every_solve_used_the_quotient(solved):
    torus, _, _, spans, _ = solved
    assert spans and all("orbit_cols" in s for s in spans)
    # The quotient is several times smaller than the full model.
    assert all(s["orbit_cols"] * 2 < s["cols"] for s in spans)
    assert (len(stabilizer_maps(torus)), len(point_group_generators(torus))) in (
        (8, 3),
        (16, 4),
        (48, 6),
    )


def test_lifted_certificates_valid_against_full_model(solved):
    _, _, certs, spans, _ = solved
    assert len(certs) == len(spans)
    for cert, span in zip(certs, spans):
        assert cert.valid, cert.summary()
        assert cert.rows == span["rows"] and cert.variables == span["cols"]


@pytest.mark.parametrize("name", ["k4", "3d-het"])
def test_warm_stage2_equals_cold(name):
    torus = TORI[name]
    group = TranslationGroup(torus)
    prob, w = _build(torus, group, None, "==")
    prob.model.set_objective(w.indices(), [1.0])
    cap = prob.model.solve(method="highs-ds")[w][0]
    cap = cap * (1 + LEXICOGRAPHIC_SLACK) + SOLVER_DUST
    prob.model.set_bounds(w, ub=cap)
    prob.model.set_objective(*prob.locality_terms())
    with collect_certificates(strict=True):
        warm = prob.model.solve(method="highs-ds")
    cold, w_cold = _build(torus, group, None, "==")
    cold.model.set_bounds(w_cold, ub=cap)
    cold.model.set_objective(*cold.locality_terms())
    want = cold.model.solve(method="highs-ds").objective
    # A cold solve runs at HiGHS's default 1e-7 primal feasibility, a
    # warm re-solve at 1e-10, so they agree to the looser one.
    assert warm.objective == pytest.approx(want, rel=1e-7)
    assert warm[w][0] <= cap


def _spans_of(fn):
    tracer = obs.get_tracer()
    mark = tracer.mark()
    fn()
    return _lp_spans(tracer.events_since(mark))


def test_hypercube_models_solve_unreduced():
    cube = Hypercube(3)
    spans = _spans_of(lambda: solve_capacity(cube))
    spans += _spans_of(lambda: design_worst_case(cube, method="full"))
    assert spans and not any("orbit_cols" in s for s in spans)


def test_torus_average_case_designs_solve_on_quotient():
    # The design sample is closed inside the design, so both stages of
    # both formulations solve on the quotient.
    torus = Torus(4, 2)
    sample = sample_traffic_set(np.random.default_rng(3), torus.num_nodes, 3)
    spans = _spans_of(
        lambda: design_average_case(torus, sample, minimize_locality=True)
    )
    spans += _spans_of(lambda: design_2turn_average(torus, sample))
    assert [s["model"] for s in spans] == ["average-case-design"] * 2 + ["2TURNA"] * 2
    assert all("orbit_rows" in s and s["orbit_cols"] * 2 < s["cols"] for s in spans)
    # Stage 2 re-solves the stage-1 model in place.
    assert [s["warm"] for s in spans] == [False, True, False, True]


def _closed_sample_values(torus, sample):
    avg = design_average_case(torus, sample, minimize_locality=True)
    tta = design_2turn_average(torus, sample)
    return [
        avg.average_load,
        avg.avg_path_length,
        tta.objective_load,
        tta.avg_path_length,
    ]


@pytest.mark.parametrize("name", ["k3", "k4"])
def test_closed_sample_designs_match_unreduced_model(name):
    # The full closed-sample models solve 10-100x slower than their
    # quotient (EXPERIMENTS), so the comparison runs on the small tori.
    torus = TORI[name]
    sample = sample_traffic_set(
        np.random.default_rng(5), torus.num_nodes, 2, num_permutations=2
    )
    with collect_certificates(strict=True) as certs:
        got = _closed_sample_values(torus, sample)
    mp = _unreduced()
    try:
        want = _closed_sample_values(torus, sample)
    finally:
        mp.undo()
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)
    assert len(certs.certificates) == 4 and certs.all_valid


@pytest.mark.parametrize("name, maps", [("3d", 48), ("3d-het", 16)])
def test_closed_sample_3d_certificates_valid_against_full_model(name, maps):
    torus = TORI[name]
    sample = sample_traffic_set(
        np.random.default_rng(5), torus.num_nodes, 1, num_permutations=2
    )
    assert len(stabilizer_maps(torus)) == maps
    assert len(close_under_point_group(sample, torus)) == maps
    tracer = obs.get_tracer()
    mark = tracer.mark()
    with collect_certificates(strict=True) as certs:
        design = design_average_case(torus, sample, minimize_locality=True)
    spans = _lp_spans(tracer.events_since(mark))
    assert len(certs.certificates) == len(spans) == 2
    for cert, span in zip(certs.certificates, spans):
        assert "orbit_rows" in span and span["orbit_cols"] * 4 < span["cols"]
        assert cert.valid, cert.summary()
        assert cert.rows == span["rows"] and cert.variables == span["cols"]
    alg = routing_from_flows(torus, design.flows, "avg-3d")
    assert average_case_load(alg, sample) == pytest.approx(
        design.average_load, rel=1e-6
    )


def test_hypercube_average_case_unreduced_and_colgen_masters_reduced():
    cube = Hypercube(3)
    sample = sample_traffic_set(np.random.default_rng(3), cube.num_nodes, 3)
    spans = _spans_of(lambda: design_average_case(cube, sample))
    assert spans and not any("orbit_cols" in s for s in spans)
    spans = _spans_of(lambda: design_worst_case(Torus(4, 2), method="colgen"))
    assert spans and all("orbit_cols" in s for s in spans)


def test_unclosed_sample_keeps_the_full_model():
    torus = Torus(4, 2)
    sample = DesignSample.of(
        sample_traffic_set(np.random.default_rng(3), torus.num_nodes, 2)
    )
    lp, mean = two_turn_average_model(torus, sample)
    lp.model.set_objective(mean.indices(), [1.0])
    spans = _spans_of(lambda: lp.model.solve())
    assert "orbit_cols" not in spans[-1]


def test_path_set_not_closed_under_point_group_solves_unreduced():
    torus = Torus(4, 2)
    paths = two_turn_paths(torus)
    # One path per destination (the first in sorted order): the point
    # maps do not carry this set onto itself.
    lopsided = {t: plist[:1] for t, plist in paths.items()}
    lp = PathSetLP(torus, lopsided, name="lopsided")
    w = lp.model.add_variables("w", 1)
    lp.add_worst_case(int(w.indices()[0]))
    assert lp.declare_point_symmetry() is False
    lp.model.set_objective(w.indices(), [1.0])
    spans = _spans_of(lambda: lp.model.solve())
    assert "orbit_cols" not in spans[-1]

    closed = PathSetLP(torus, paths, name="closed")
    assert closed.declare_point_symmetry() is True
