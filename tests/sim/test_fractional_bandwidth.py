"""Fractional channel bandwidths in the packet simulator.

Heterogeneous tori (half-rate Z links) hand the simulator non-integer
bandwidths; both backends discretize them with the shared deterministic
token bucket (:func:`repro.sim.network_sim.service_budgets`) so they
stay count-identical.
"""

import numpy as np
import pytest

from repro.routing import IVAL, DimensionOrderRouting
from repro.sim import SimulationConfig, simulate
from repro.sim.network_sim import service_budgets
from repro.topology import Torus
from repro.traffic import uniform


class TestServiceBudgets:
    @pytest.mark.parametrize("b", [1.0, 2.0, 0.5, 0.75, 0.1, 1.5])
    def test_window_totals_track_fluid_rate(self, b):
        budgets = np.array(
            [service_budgets(np.array([b]), cycle)[0] for cycle in range(1000)]
        )
        totals = np.cumsum(budgets)
        cycles = np.arange(1, 1001)
        # every prefix window serves within one packet of T * b
        assert (np.abs(totals - cycles * b) <= 1.0).all()

    def test_integer_bandwidth_unchanged(self):
        for cycle in range(50):
            assert (
                service_budgets(np.array([1.0, 2.0, 3.0]), cycle)
                == np.array([1, 2, 3])
            ).all()

    def test_half_rate_alternates(self):
        budgets = [
            int(service_budgets(np.array([0.5]), cycle)[0]) for cycle in range(6)
        ]
        assert budgets == [0, 1, 0, 1, 0, 1]

    def test_deterministic(self):
        b = np.array([0.3, 0.7])
        for cycle in (0, 17, 999):
            np.testing.assert_array_equal(
                service_budgets(b, cycle), service_budgets(b, cycle)
            )


class TestBackendsAgreeOnFractionalBandwidths:
    @pytest.fixture(scope="class")
    def hetero(self):
        return Torus(3, 3, bandwidths=(1.0, 1.0, 0.5))

    @pytest.mark.parametrize("make_alg", [DimensionOrderRouting, IVAL])
    def test_identical_results(self, hetero, make_alg):
        alg = make_alg(hetero)
        lam = uniform(hetero.num_nodes)
        cfg = SimulationConfig(cycles=300, warmup=100, injection_rate=0.2, seed=7)
        ref = simulate(alg, lam, cfg, backend="reference")
        vec = simulate(alg, lam, cfg, backend="vectorized")
        assert ref.delivered == vec.delivered
        assert ref.dropped == vec.dropped
        assert ref.backlog == vec.backlog
        assert ref.accepted_rate == pytest.approx(vec.accepted_rate)
        assert ref.mean_latency == pytest.approx(vec.mean_latency)

    def test_slow_axis_congests_first(self, hetero):
        """Pushing rate toward the Z bottleneck grows backlog faster on
        the heterogeneous torus than on its homogeneous twin."""
        homo = Torus(3, 3)
        lam = uniform(homo.num_nodes)
        cfg = SimulationConfig(cycles=500, warmup=100, injection_rate=0.9, seed=3)
        slow = simulate(DimensionOrderRouting(hetero), lam, cfg)
        fast = simulate(DimensionOrderRouting(homo), lam, cfg)
        assert slow.backlog > fast.backlog
