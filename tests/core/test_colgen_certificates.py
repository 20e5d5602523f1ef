"""Mutation battery for the column-generation duality certificate.

A certificate that passes on everything certifies nothing, so each
test here *breaks* the colgen loop in one specific way — dropping a
generated row, perturbing the recorded dual bound, stopping an
iteration early — and asserts the battery
(:mod:`repro.verify.colgen`) fails on the mutated artifacts while
passing on the genuine ones.
"""

import numpy as np
import pytest

import repro.core.worst_case as wc_mod
from repro.core.general import design_general_worst_case
from repro.core.worst_case import (
    ColGenError,
    RestrictedMasterProblem,
    design_worst_case,
)
from repro.metrics.worst_case_eval import separate_worst_case
from repro.topology import Torus
from repro.topology.symmetry import TranslationGroup
from repro.verify import certify_colgen_design, certify_colgen_general


@pytest.fixture(scope="module")
def genuine():
    torus = Torus(3, 2)
    design = design_worst_case(torus, method="colgen")
    return torus, design


def _failed(report, name):
    return {c.name for c in report.checks if not c.passed} >= {name}


class TestGenuineArtifactsPass:
    def test_full_battery_passes(self, genuine):
        torus, design = genuine
        report = certify_colgen_design(
            torus,
            design.flows,
            design.worst_case_load,
            lower_bound=design.colgen.lower_bound,
        )
        assert report.passed, report.render()
        names = [c.name for c in report.checks]
        assert names == [
            "colgen_oracle",
            "colgen_duality_gap",
            "colgen_sampled",
            "colgen_exhaustive",
        ]

    def test_exhaustive_runs_on_small_instances(self, genuine):
        torus, design = genuine
        report = certify_colgen_design(
            torus, design.flows, design.worst_case_load,
            lower_bound=design.colgen.lower_bound,
        )
        exhaustive = [c for c in report.checks if c.name == "colgen_exhaustive"]
        assert exhaustive and "skipped" not in exhaustive[0].detail

    def test_exhaustive_skips_beyond_limit(self, genuine):
        torus, design = genuine
        report = certify_colgen_design(
            torus, design.flows, design.worst_case_load,
            lower_bound=design.colgen.lower_bound,
            exhaustive_limit=torus.num_nodes - 1,
        )
        exhaustive = [c for c in report.checks if c.name == "colgen_exhaustive"]
        assert exhaustive and "skipped" in exhaustive[0].detail


def _master_without_orbit(torus, group, dropped):
    """A seedless master holding every cyclic-shift row except the
    point-group orbit of the ``(channel, shift)`` rows in ``dropped``
    (the master adds whole orbits, so dropping one row drops its orbit)."""
    master = RestrictedMasterProblem(torus, group, seed_rows=False)
    orbit = set()
    for rep, s in dropped:
        for g in master.maps:
            shift = int(g.node_map[s])  # shift s maps to shift g(s)
            orbit.add((int(g.channel_map[rep]), shift))
    for rep in map(int, torus.class_representatives()):
        for s in range(1, torus.num_nodes):
            if (rep, s) not in orbit:
                master.add_row(rep, group.node_sum[:, s])
    held = {(c, perm.tobytes()) for c, perm in master.rows}
    for rep, s in orbit:
        assert (rep, group.node_sum[:, s].tobytes()) not in held
    master.model.set_objective(master.w.indices(), [1.0])
    return master


class TestMutationsFail:
    def test_dropped_row_fails(self, genuine):
        # Rebuild the master missing one seeded permutation row's orbit,
        # take its optimal vertex as "the design": the oracle re-measure
        # and the witness replay must both expose the gap.
        torus, _ = genuine
        group = TranslationGroup(torus)
        rep = int(torus.class_representatives()[0])
        master = _master_without_orbit(torus, group, [(rep, 1)])
        _, w, flows = master.solve()
        report = certify_colgen_design(torus, flows, w, lower_bound=w)
        assert not report.passed
        assert _failed(report, "colgen_oracle")

    def test_dropped_row_caught_by_gap_even_if_bound_remeasured(
        self, genuine
    ):
        # A "self-consistent" mutant that honestly re-measures its bad
        # flows passes the oracle check — the duality gap against the
        # stale master bound is what exposes the missing rows.
        torus, _ = genuine
        group = TranslationGroup(torus)
        rep = int(torus.class_representatives()[0])
        master = _master_without_orbit(torus, group, [(rep, 1)])
        _, w, flows = master.solve()
        honest = float(
            separate_worst_case(torus, group, flows, np.inf, None).max_load
        )
        assert honest > w + 1e-6  # the drop genuinely hurt
        report = certify_colgen_design(torus, flows, honest, lower_bound=w)
        assert not report.passed
        assert _failed(report, "colgen_duality_gap")

    def test_perturbed_bound_fails(self, genuine):
        torus, design = genuine
        report = certify_colgen_design(
            torus,
            design.flows,
            design.worst_case_load * 1.01,
            lower_bound=design.colgen.lower_bound,
        )
        assert not report.passed
        assert _failed(report, "colgen_oracle")

    def test_perturbed_dual_weight_fails(self, genuine):
        # The recorded master optimum is the aggregated dual weight of
        # the generated rows; nudging it opens a certified gap.
        torus, design = genuine
        report = certify_colgen_design(
            torus,
            design.flows,
            design.worst_case_load,
            lower_bound=design.colgen.lower_bound * 0.99,
        )
        assert not report.passed
        assert _failed(report, "colgen_duality_gap")

    def test_missing_lower_bound_fails(self, genuine):
        torus, design = genuine
        report = certify_colgen_design(
            torus, design.flows, design.worst_case_load, lower_bound=None
        )
        assert not report.passed
        assert _failed(report, "colgen_duality_gap")

    def test_perturbed_flows_fail(self, genuine):
        torus, design = genuine
        flows = design.flows.copy()
        flows[:, 0] *= 1.5  # overload one channel column
        report = certify_colgen_design(
            torus,
            flows,
            design.worst_case_load,
            lower_bound=design.colgen.lower_bound,
        )
        assert not report.passed

    def test_early_termination_raises_and_fails_certification(
        self, monkeypatch
    ):
        # Without the closed-form VAL anchor the loop needs tens of
        # iterations; truncating it must raise (never silently return a
        # non-converged design), and certifying the partial artifacts
        # it carries must fail.
        monkeypatch.setattr(
            wc_mod, "_heuristic_anchor_flows", lambda *a, **k: []
        )
        torus = Torus(4, 2)
        with pytest.raises(ColGenError) as err:
            design_worst_case(torus, method="colgen", max_iterations=1)
        assert err.value.iterations == 1
        flows = np.clip(np.asarray(err.value.flows, dtype=float), 0.0, None)
        if flows.shape == (torus.num_nodes, torus.num_channels):
            report = certify_colgen_design(
                torus, flows, err.value.bound, lower_bound=err.value.bound
            )
            assert not report.passed


class TestGeneralCertificate:
    def test_genuine_general_passes(self):
        torus = Torus(3, 2)
        design = design_general_worst_case(torus, method="colgen")
        report = certify_colgen_general(
            torus,
            design.flows,
            design.objective_load,
            lower_bound=design.colgen.lower_bound,
        )
        assert report.passed, report.render()

    def test_perturbed_general_bound_fails(self):
        torus = Torus(3, 2)
        design = design_general_worst_case(torus, method="colgen")
        report = certify_colgen_general(
            torus,
            design.flows,
            design.objective_load * 1.05,
            lower_bound=design.colgen.lower_bound,
        )
        assert not report.passed
        assert _failed(report, "colgen_oracle")

    def test_perturbed_general_dual_fails(self):
        torus = Torus(3, 2)
        design = design_general_worst_case(torus, method="colgen")
        report = certify_colgen_general(
            torus,
            design.flows,
            design.objective_load,
            lower_bound=design.colgen.lower_bound * 0.9,
        )
        assert not report.passed
        assert _failed(report, "colgen_duality_gap")
