"""Column generation on the point-group orbit quotient.

The restricted master adds every separated ``(channel, permutation)``
row together with its orbit under the torus point group, so the master
stays invariant, declares the group, and each re-solve appends the new
row orbits to the quotient HiGHS holds instead of reloading.  Checked
here, unpinned and ``<=``-pinned on 2-D tori k=3..5: the optimum still
equals the full LP's to 1e-9, every master solve after the first is
warm, the master's rows are closed under the group, its vertices are
point-symmetric, and the design passes its colgen certificate.
"""

import types

import numpy as np
import pytest

import repro.core.worst_case as wc_mod
from repro import obs
from repro.core.worst_case import design_worst_case
from repro.topology import Torus
from repro.topology.symmetry import stabilizer_maps
from repro.verify import certify_colgen_design

TOL = 1e-9

CASES = [
    pytest.param((k, ratio), id=f"k{k}-{'free' if ratio is None else f'le{ratio}'}")
    for k in (3, 4, 5)
    for ratio in (None, 1.25)
]


class _RecordingMaster(wc_mod.RestrictedMasterProblem):
    """A master that keeps every vertex it solves to."""

    instances: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.vertices = []
        _RecordingMaster.instances.append(self)

    def solve(self, *args, **kwargs):
        sol, w, flows = super().solve(*args, **kwargs)
        self.vertices.append(np.asarray(sol[self.prob.x]))
        return sol, w, flows


def _symmetric(torus, x, maps, atol=0.0):
    for g in maps:
        image = np.empty_like(x)
        image[np.ix_(g.node_map, g.channel_map)] = x
        if not np.allclose(image, x, rtol=0.0, atol=atol):
            return False
    return True


@pytest.fixture(scope="module", params=CASES)
def solved(request):
    """The torus, its pin ratio, the colgen and full designs, the colgen
    master and the master's ``lp.solve`` span attrs."""
    k, ratio = request.param
    torus = Torus(k, 2)
    pin = {}
    if ratio is not None:
        pin = dict(
            locality_hops=ratio * torus.mean_min_distance(), locality_sense="<="
        )
    mp = pytest.MonkeyPatch()
    mp.setattr(wc_mod, "RestrictedMasterProblem", _RecordingMaster)
    _RecordingMaster.instances = []
    tracer = obs.get_tracer()
    mark = tracer.mark()
    try:
        colgen = design_worst_case(torus, method="colgen", **pin)
    finally:
        mp.undo()
    spans = [
        e["attrs"]
        for e in tracer.events_since(mark)
        if e.get("name") == "lp.solve"
    ]
    (master,) = _RecordingMaster.instances
    full = design_worst_case(torus, method="full", **pin)
    return types.SimpleNamespace(
        torus=torus, ratio=ratio, colgen=colgen, full=full, master=master,
        spans=spans,
    )


def test_colgen_matches_full_lp(solved):
    assert solved.colgen.method == "colgen"
    assert solved.colgen.worst_case_load == pytest.approx(
        solved.full.worst_case_load, rel=TOL, abs=TOL
    )


def test_every_master_solve_after_the_first_is_warm(solved):
    spans = solved.spans
    assert len(spans) == solved.colgen.colgen.iterations
    if solved.ratio is not None:
        assert len(spans) > 1  # the pinned points run the loop
    assert all("orbit_cols" in s for s in spans)
    assert [s["warm"] for s in spans] == [False] + [True] * (len(spans) - 1)


def test_master_rows_closed_under_point_group(solved):
    torus, colgen, master = solved.torus, solved.colgen, solved.master
    keys = {(c, perm.tobytes()) for c, perm in master.rows}
    assert len(keys) == len(master.rows)
    assert colgen.colgen.seeded_rows + colgen.colgen.rows_generated == len(
        master.rows
    )
    for c, perm in master.rows:
        for g in stabilizer_maps(torus):
            image = np.empty_like(perm)
            image[g.node_map] = g.node_map[perm]
            assert (int(g.channel_map[c]), image.tobytes()) in keys


def test_master_vertices_are_point_symmetric(solved):
    maps = stabilizer_maps(solved.torus)
    assert solved.master.vertices
    assert all(_symmetric(solved.torus, x, maps) for x in solved.master.vertices)


def test_design_is_point_symmetric_and_certified(solved):
    torus, colgen = solved.torus, solved.colgen
    # Exactly symmetric when it is a master vertex; up to rounding when
    # it is the symmetrized heuristic anchor (an average over the maps).
    assert _symmetric(torus, colgen.flows, stabilizer_maps(torus), atol=1e-15)
    report = certify_colgen_design(
        torus,
        colgen.flows,
        colgen.worst_case_load,
        lower_bound=colgen.colgen.lower_bound,
    )
    assert report.passed, report.render()
