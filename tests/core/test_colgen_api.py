"""Unit coverage for the column-generation API surface.

The differential/property/mutation suites exercise the happy paths;
this file pins the contract edges: method resolution, stats
round-tripping, iteration limits, anchor fallbacks, and the unseeded
lazy loop actually generating blocks.
"""

import numpy as np
import pytest

from repro.constants import COLGEN_AUTO_NODE_THRESHOLD, COLGEN_GENERAL_VIOLATION_TOL
from repro.core import general, worst_case
from repro.core.general import (
    ColGenError as GeneralColGenError,
)
from repro.core.general import (
    GeneralRestrictedMaster,
    _general_stage_loop,
    design_general_worst_case,
)
from repro.core.worst_case import (
    ColGenStats,
    design_worst_case,
    resolve_design_method,
)
from repro.topology import Torus


class TestResolveDesignMethod:
    def test_explicit_methods_pass_through(self):
        assert resolve_design_method("full", 10**6) == "full"
        assert resolve_design_method("colgen", 4) == "colgen"

    def test_auto_switches_at_node_threshold(self):
        below = COLGEN_AUTO_NODE_THRESHOLD - 1
        assert resolve_design_method("auto", below) == "full"
        assert (
            resolve_design_method("auto", COLGEN_AUTO_NODE_THRESHOLD)
            == "colgen"
        )

    def test_solver_name_gets_pointed_error(self):
        with pytest.raises(ValueError, match="solver"):
            resolve_design_method("highs-ds", 16)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown design method"):
            resolve_design_method("lazy", 16)

    @pytest.mark.parametrize(
        "design", [design_worst_case, design_general_worst_case]
    )
    def test_explicit_colgen_rejects_lexicographic(self, design):
        with pytest.raises(ValueError, match="single-stage"):
            design(Torus(3, 2), minimize_locality=True, method="colgen")


class _Resolved(Exception):
    """Stops a design right after dispatch, before any model is built."""


# The general formulation pins locality by equality only.
_PINS = {
    "unpinned": {},
    "le-pinned": {"locality_hops": 3.0, "locality_sense": "<="},
    "eq-pinned": {"locality_hops": 3.0, "locality_sense": "=="},
    "lexicographic": {"minimize_locality": True},
}


@pytest.mark.parametrize(
    "formulation, pin",
    [
        (f, p)
        for f in ("torus", "general")
        for p in _PINS
        if not (f == "general" and p == "le-pinned")
    ],
)
@pytest.mark.parametrize("k", [3, 10])
def test_auto_dispatch(monkeypatch, formulation, pin, k):
    # auto picks colgen only for an unpinned single-stage design at
    # N >= COLGEN_AUTO_NODE_THRESHOLD (k=10: N=100), for both formulations.
    resolve, seen = worst_case.resolve_design_method, []

    def spy(*args, **kwargs):
        seen.append(resolve(*args, **kwargs))
        raise _Resolved

    monkeypatch.setattr(worst_case, "resolve_design_method", spy)
    monkeypatch.setattr(general, "resolve_design_method", spy)
    kwargs = dict(_PINS[pin])
    if formulation == "general":
        kwargs.pop("locality_sense", None)
    design = design_worst_case if formulation == "torus" else design_general_worst_case
    with pytest.raises(_Resolved):
        design(Torus(k, 2), method="auto", **kwargs)
    large = k**2 >= COLGEN_AUTO_NODE_THRESHOLD
    assert seen == ["colgen" if large and pin == "unpinned" else "full"]


class TestColGenStatsDoc:
    def test_roundtrip(self):
        stats = ColGenStats(
            iterations=3,
            stage2_iterations=1,
            rows_generated=7,
            seeded_rows=32,
            oracle_load=1.5,
            lower_bound=1.4999999,
        )
        assert ColGenStats.from_doc(stats.to_doc()) == stats

    def test_roundtrip_without_stage2(self):
        stats = ColGenStats(
            iterations=1,
            stage2_iterations=0,
            rows_generated=0,
            seeded_rows=32,
            oracle_load=2.0,
            lower_bound=2.0,
        )
        doc = stats.to_doc()
        assert "stage2_locality_bound" not in doc and "converged" not in doc
        assert ColGenStats.from_doc(doc) == stats

    def test_older_doc_with_stage2_fields_loads(self):
        stats = ColGenStats(
            iterations=3,
            stage2_iterations=1,
            rows_generated=7,
            seeded_rows=32,
            oracle_load=1.5,
            lower_bound=1.4999999,
        )
        doc = dict(stats.to_doc(), stage2_locality_bound=2.25, converged=True)
        assert ColGenStats.from_doc(doc) == stats


class TestDesignEdges:
    def test_throughput_property(self):
        design = design_worst_case(Torus(3, 2), method="colgen")
        assert design.worst_case_throughput == pytest.approx(
            1.0 / design.worst_case_load
        )

    def test_zero_max_iterations_rejected(self):
        with pytest.raises(ValueError, match="max_iterations"):
            design_worst_case(Torus(3, 2), method="colgen", max_iterations=0)
        with pytest.raises(ValueError, match="max_iterations"):
            design_general_worst_case(
                Torus(3, 2), method="colgen", max_iterations=0
            )

    def test_loose_locality_upper_bound_uses_val_anchor(self):
        # sense "<=" with generous hops: VAL already satisfies the pin,
        # so the anchor closes the loop as in the unconstrained case.
        torus = Torus(3, 2)
        free = design_worst_case(torus, method="colgen")
        pinned = design_worst_case(
            torus,
            locality_hops=10.0,
            locality_sense="<=",
            method="colgen",
        )
        assert pinned.worst_case_load == pytest.approx(
            free.worst_case_load, rel=1e-7
        )

    def test_pin_beyond_val_locality_still_converges(self):
        # An "==" pin above VAL's own H has no closed-form anchor (the
        # VAL/DOR blend cannot reach it) — the loop must work unaided.
        torus = Torus(3, 2)
        hops = 2.2 * torus.mean_min_distance()
        design = design_worst_case(
            torus, locality_hops=hops, locality_sense="==", method="colgen"
        )
        assert design.avg_path_length == pytest.approx(hops, rel=1e-6)


class TestGeneralLazyLoop:
    def test_duplicate_channel_block_not_regenerated(self):
        master = GeneralRestrictedMaster(Torus(3, 2))
        assert master.add_channel(0) is True
        assert master.add_channel(0) is False
        assert master.channels == [0]

    def test_unseeded_loop_generates_blocks_lazily(self):
        # No warm start: every block must come from the oracle, which is
        # the code path the seeded production configuration shortcuts.
        torus = Torus(3, 2)
        master = GeneralRestrictedMaster(torus)
        master.model.set_objective(master.w.indices(), [1.0])
        flows, load, bound, iters = _general_stage_loop(
            master,
            "highs-ipm",
            COLGEN_GENERAL_VIOLATION_TOL,
            limit=50,
        )
        assert iters > 1 and len(master.channels) > 0
        assert master.seeded_blocks == 0
        reference = design_worst_case(torus, method="full")
        assert load == pytest.approx(
            reference.worst_case_load, rel=1e-6
        )

    def test_unseeded_loop_truncation_raises(self):
        torus = Torus(3, 2)
        master = GeneralRestrictedMaster(torus)
        master.model.set_objective(master.w.indices(), [1.0])
        with pytest.raises(GeneralColGenError, match="no convergence"):
            _general_stage_loop(
                master,
                "highs-ipm",
                COLGEN_GENERAL_VIOLATION_TOL,
                limit=1,
            )

    def test_seed_covers_loaded_channels(self):
        master = GeneralRestrictedMaster(Torus(3, 2))
        added = master.seed(COLGEN_GENERAL_VIOLATION_TOL)
        assert added == master.seeded_blocks > 0
        assert len(master.channels) == added

    def test_negative_flows_clipped(self):
        design = design_general_worst_case(Torus(3, 2), method="colgen")
        assert (np.asarray(design.flows) >= 0.0).all()
