"""Tests for average-case-optimal design (paper eq. 9, problem (15))."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import design_average_case, design_worst_case, solve_capacity
from repro.core.recovery import routing_from_flows
from repro.metrics import average_case_load
from repro.topology import Torus, TranslationGroup
from repro.traffic import DesignSample, sample_traffic_set


@pytest.fixture(scope="module")
def t4():
    return Torus(4, 2)


@pytest.fixture(scope="module")
def g4(t4):
    return TranslationGroup(t4)


@pytest.fixture(scope="module")
def sample4(t4):
    rng = np.random.default_rng(42)
    return sample_traffic_set(rng, t4.num_nodes, 12, num_permutations=4)


class TestAverageCaseDesign:
    def test_design_load_realized_in_sample(self, t4, g4, sample4):
        design = design_average_case(t4, sample4, group=g4)
        alg = routing_from_flows(t4, design.flows, "avg-opt")
        realized = average_case_load(alg, sample4)
        assert realized == pytest.approx(design.average_load, rel=1e-5)

    def test_average_beats_worst_case_design(self, t4, g4, sample4):
        # Optimizing for the sample mean must do at least as well on it
        # as any other algorithm, e.g. the worst-case-optimal design.
        avg_design = design_average_case(t4, sample4, group=g4)
        wc_design = design_worst_case(t4, minimize_locality=True, group=g4)
        wc_alg = routing_from_flows(t4, wc_design.flows, "wc-opt")
        assert avg_design.average_load <= (
            average_case_load(wc_alg, sample4) + 1e-7
        )

    def test_average_load_above_capacity_load(self, t4, g4, sample4):
        # No algorithm beats the uniform-optimal load on average.
        design = design_average_case(t4, sample4, group=g4)
        cap = solve_capacity(t4).load
        assert design.average_load >= cap - 1e-7

    def test_lexicographic_keeps_load(self, t4, g4, sample4):
        plain = design_average_case(t4, sample4, group=g4)
        lex = design_average_case(
            t4, sample4, minimize_locality=True, group=g4
        )
        assert lex.avg_path_length <= plain.avg_path_length + 1e-9
        alg = routing_from_flows(t4, lex.flows, "avg-lex")
        realized = average_case_load(alg, sample4)
        assert realized <= plain.average_load * (1 + 1e-5)

    def test_locality_constraint_respected(self, t4, g4, sample4):
        hops = 1.2 * t4.mean_min_distance()
        design = design_average_case(
            t4, sample4, locality_hops=hops, group=g4
        )
        assert design.avg_path_length == pytest.approx(hops, rel=1e-6)

    def test_empty_sample_rejected(self, t4):
        with pytest.raises(ValueError, match="nonempty"):
            design_average_case(t4, [])

    def test_throughput_property(self, t4, g4, sample4):
        design = design_average_case(t4, sample4, group=g4)
        assert design.average_throughput == pytest.approx(
            1 / design.average_load
        )

    def test_sample_size_mismatch_guard(self, t4, g4, sample4):
        # internal guard of average_case_constraints
        from repro.core.flows import CanonicalFlowProblem

        prob = CanonicalFlowProblem(t4, g4)
        bounds = prob.model.add_variables("m", 3)
        mean = prob.model.add_variables("mean", 1)
        with pytest.raises(ValueError, match="one variable per sample"):
            prob.average_case_constraints(DesignSample.of(sample4), bounds, mean)


@settings(max_examples=12, deadline=None)
@given(
    k=st.sampled_from([3, 4]),
    seed=st.integers(0, 2**16),
    count=st.integers(1, 3),
    perms=st.integers(1, 4),
)
def test_closed_design_mean_load_on_original_sample(k, seed, count, perms):
    # The design solves on the sample closed under the point group; its
    # routing is point-symmetric, so gamma_max(Λ∘g) = gamma_max(Λ) and
    # its mean load over the sample as drawn is the LP's average_load.
    torus = Torus(k, 2)
    sample = sample_traffic_set(
        np.random.default_rng(seed), torus.num_nodes, count, num_permutations=perms
    )
    design = design_average_case(torus, sample)
    alg = routing_from_flows(torus, design.flows, "avg-closed")
    assert average_case_load(alg, sample) == pytest.approx(
        design.average_load, rel=1e-6
    )
