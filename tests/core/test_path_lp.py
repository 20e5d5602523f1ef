"""Tests for the restricted-path-set LP machinery."""

import numpy as np
import pytest

from repro.core.flows import average_case_rows
from repro.core.path_lp import PathSetLP
from repro.routing import DimensionOrderRouting
from repro.routing.base import TableRouting
from repro.routing.paths import path_channels
from repro.topology import Torus, TranslationGroup


@pytest.fixture(scope="module")
def t4():
    return Torus(4, 2)


@pytest.fixture(scope="module")
def g4(t4):
    return TranslationGroup(t4)


def dor_path_set(torus):
    """Path set containing exactly DOR's minimal XY paths."""
    dor = DimensionOrderRouting(torus)
    return {
        d: [p for p, _ in dor.path_distribution(0, d)]
        for d in range(1, torus.num_nodes)
    }


def xy_yx_path_set(torus):
    """Minimal XY and YX paths for every destination."""
    xy = DimensionOrderRouting(torus)
    yx = DimensionOrderRouting(torus, order=(1, 0))
    out = {}
    for d in range(1, torus.num_nodes):
        paths = {p for p, _ in xy.path_distribution(0, d)}
        paths |= {p for p, _ in yx.path_distribution(0, d)}
        out[d] = sorted(paths)
    return out


class TestConstruction:
    def test_counts(self, t4, g4):
        lp = PathSetLP(t4, dor_path_set(t4), g4)
        assert lp.num_paths >= t4.num_nodes - 1
        assert lp.model.num_variables == lp.num_paths

    def test_missing_destination_rejected(self, t4, g4):
        paths = dor_path_set(t4)
        del paths[5]
        with pytest.raises(ValueError, match="destination 5"):
            PathSetLP(t4, paths, g4)

    def test_wrong_endpoint_rejected(self, t4, g4):
        paths = dor_path_set(t4)
        paths[1] = [(0, t4.node_at([0, 1]))]  # ends at wrong node
        with pytest.raises(ValueError, match="not a 0->1 path"):
            PathSetLP(t4, paths, g4)


class TestWorstCase:
    def test_dor_only_set_reproduces_dor(self, t4, g4):
        # With exactly DOR's paths (unique per destination), the LP has a
        # single feasible point: DOR itself.
        from repro.metrics import worst_case_load
        from repro.routing import DimensionOrderRouting

        lp = PathSetLP(t4, dor_path_set(t4), g4)
        w = lp.model.add_variables("w", 1)
        lp.add_worst_case(int(w.indices()[0]))
        lp.model.set_objective(w.indices(), [1.0])
        sol = lp.model.solve()
        dor_wc = worst_case_load(DimensionOrderRouting(t4)).load
        assert sol.objective == pytest.approx(dor_wc, rel=1e-6)

    def test_larger_set_does_no_worse(self, t4, g4):
        def solve_wc(paths):
            lp = PathSetLP(t4, paths, g4)
            w = lp.model.add_variables("w", 1)
            lp.add_worst_case(int(w.indices()[0]))
            lp.model.set_objective(w.indices(), [1.0])
            return lp.model.solve().objective

        assert solve_wc(xy_yx_path_set(t4)) <= solve_wc(dor_path_set(t4)) + 1e-7

    def test_bound_matches_exact_evaluation(self, t4, g4):
        from repro.metrics import worst_case_load

        lp = PathSetLP(t4, xy_yx_path_set(t4), g4)
        w = lp.model.add_variables("w", 1)
        lp.add_worst_case(int(w.indices()[0]))
        lp.model.set_objective(w.indices(), [1.0])
        sol = lp.model.solve()
        alg = TableRouting(t4, lp.table_from(sol), name="xy-yx-opt")
        assert worst_case_load(alg).load == pytest.approx(
            sol.objective, rel=1e-5
        )


class TestAverageCase:
    def test_matches_canonical_formulation(self, t4, g4):
        # The path LP restricted to XY/YX paths, with sample rows on its
        # canonical flows, must agree with direct load evaluation of its
        # own solution.
        from repro.metrics import average_case_load
        from repro.traffic import DesignSample, sample_traffic_set

        sample = sample_traffic_set(np.random.default_rng(0), 16, 6, num_permutations=3)
        lp = PathSetLP(t4, xy_yx_path_set(t4), g4)
        f = lp.add_flows()
        m = lp.model.add_variables("m", len(sample))
        mean = lp.model.add_variables("mean", 1)
        average_case_rows(lp.model, g4, f, DesignSample.of(sample), m, mean)
        lp.model.set_objective(mean.indices(), [1.0])
        sol = lp.model.solve()
        alg = TableRouting(t4, lp.table_from(sol), name="avg-min")
        assert average_case_load(alg, sample) == pytest.approx(
            sol.objective, rel=1e-5
        )
        # f holds each destination's path weight per channel.
        weights = sol[lp.weights]
        for t in (1, 5, 15):
            want = np.zeros(t4.num_channels)
            for pid in np.flatnonzero(lp.dest == t):
                want[path_channels(t4, lp.paths[pid])] += weights[pid]
            assert np.allclose(sol[f][t], want, atol=1e-9)

    def test_bound_block_size_guard(self, t4, g4):
        from repro.traffic import DesignSample

        lp = PathSetLP(t4, dor_path_set(t4), g4)
        f = lp.add_flows()
        m = lp.model.add_variables("m", 2)
        mean = lp.model.add_variables("mean", 1)
        sample = DesignSample.of([np.eye(16)] * 3)
        with pytest.raises(ValueError, match="per sample"):
            average_case_rows(lp.model, g4, f, sample, m, mean)


class TestLocality:
    def test_locality_terms_evaluate_h_avg(self, t4, g4):
        lp = PathSetLP(t4, dor_path_set(t4), g4)
        cols, vals = lp.locality_terms()
        # all weights 1 distributes... instead: uniform over DOR paths per
        # destination equals DOR's H_avg.
        weights = np.zeros(lp.num_paths)
        for d in range(1, t4.num_nodes):
            pids = np.nonzero(lp.dest == d)[0]
            weights[pids] = 1.0 / len(pids)
        h = float((vals * weights[cols - lp.weights.offset]).sum())
        dor = DimensionOrderRouting(t4)
        assert h == pytest.approx(dor.average_path_length())

    def test_constraint_sense_validation(self, t4, g4):
        lp = PathSetLP(t4, dor_path_set(t4), g4)
        with pytest.raises(ValueError, match="sense"):
            lp.add_locality_constraint(2.0, sense=">=")

    def test_pinned_locality(self, t4, g4):
        lp = PathSetLP(t4, xy_yx_path_set(t4), g4)
        lp.add_locality_constraint(t4.mean_min_distance(), "==")
        cols, vals = lp.locality_terms()
        lp.model.set_objective(cols, vals)
        sol = lp.model.solve()
        assert sol.objective == pytest.approx(t4.mean_min_distance(), rel=1e-7)
