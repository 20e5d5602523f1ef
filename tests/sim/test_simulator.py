"""Simulator tests: the output-queued model must reproduce the paper's
analytic saturation throughput (Section 2.1)."""

import numpy as np
import pytest

from repro.routing import DimensionOrderRouting, VAL
from repro.sim import (
    SimulationConfig,
    latency_load_curve,
    saturation_throughput,
    simulate,
)
from repro.topology import Torus
from repro.traffic import neighbor, tornado, uniform


class TestConfig:
    def test_rate_validation(self):
        with pytest.raises(ValueError, match="injection_rate"):
            SimulationConfig(injection_rate=1.5)

    def test_warmup_validation(self):
        with pytest.raises(ValueError, match="warmup"):
            SimulationConfig(cycles=100, warmup=100)


class TestBasicRuns:
    def test_low_load_is_stable(self, dor4, uniform4):
        res = simulate(
            dor4,
            uniform4,
            SimulationConfig(cycles=1500, warmup=300, injection_rate=0.2, seed=1),
        )
        assert res.stable
        assert res.backlog < 30
        assert res.dropped == 0

    def test_latency_at_least_distance(self, dor4, uniform4):
        res = simulate(
            dor4,
            uniform4,
            SimulationConfig(cycles=1500, warmup=300, injection_rate=0.1, seed=2),
        )
        # latency >= path hops; mean hops ~ mean distance over off-diagonal
        assert res.mean_latency >= res.mean_hops >= 1.0

    def test_overload_is_unstable(self):
        # DOR under 8-ary tornado saturates analytically at 1/3 (every
        # +x channel carries 3 flows); offering 0.8 must blow up queues.
        t8 = Torus(8, 2)
        dor8 = DimensionOrderRouting(t8)
        res = simulate(
            dor8,
            tornado(t8),
            SimulationConfig(cycles=2000, warmup=500, injection_rate=0.8, seed=3),
        )
        assert not res.stable
        assert res.backlog > 100

    def test_deterministic_given_seed(self, dor4, uniform4):
        cfg = SimulationConfig(cycles=800, warmup=200, injection_rate=0.3, seed=7)
        a = simulate(dor4, uniform4, cfg)
        b = simulate(dor4, uniform4, cfg)
        assert a == b

    def test_finite_queues_drop(self, t4, tornado4):
        val = VAL(t4)
        res = simulate(
            val,
            tornado4,
            SimulationConfig(
                cycles=1500, warmup=300, injection_rate=0.9, seed=4,
                queue_capacity=4,
            ),
        )
        assert res.dropped > 0
        assert res.backlog <= 4 * t4.num_channels

    def test_neighbor_traffic_all_single_hop(self, t4, dor4):
        res = simulate(
            dor4,
            neighbor(t4),
            SimulationConfig(cycles=1000, warmup=200, injection_rate=0.5, seed=5),
        )
        assert res.mean_hops == pytest.approx(1.0)
        # single hop, no contention below rate 1: latency exactly 1
        assert res.mean_latency == pytest.approx(1.0)

    def test_fractional_bandwidth_supported(self):
        # non-integer bandwidths are discretized by the deterministic
        # token bucket (tests/sim/test_fractional_bandwidth.py)
        t = Torus(4, 2, bandwidth=1.5)
        dor = DimensionOrderRouting(t)
        res = simulate(
            dor, uniform(16), SimulationConfig(cycles=600, warmup=100, seed=1)
        )
        assert res.delivered > 0
        assert res.injected == res.delivered + res.backlog + res.dropped


class TestSaturation:
    def test_dor_uniform_saturation_matches_analytic(self, dor4, uniform4):
        # analytic: gamma_U(DOR, 4-ary) = 0.5 -> saturation at effective
        # offered load 1/0.5 = 2.0, unreachable (injection <= 1): stable
        # at every rate.
        est = saturation_throughput(dor4, uniform4, cycles=1500, warmup=400)
        assert est.lower == pytest.approx(1.0)

    def test_dor_tornado_saturation_matches_analytic(self, dor4, tornado4):
        # tornado on 4-ary: offset 1, every packet one +x hop... tornado
        # offset = ceil(4/2)-1 = 1: single-hop traffic, saturates at 1.0.
        est = saturation_throughput(dor4, tornado4, cycles=1500, warmup=400)
        assert est.lower == pytest.approx(1.0)

    def test_val_tornado_saturation_near_half(self, t4, tornado4):
        # VAL worst/every-case load = 2 * capacity load = 1.0 at k = 4;
        # Theta(VAL) = 1.0... use k=4 numbers: gamma(VAL) = 2 * (k/8) = 1.0
        # -> saturation 1.0. Hmm — instead verify against the analytic
        # value computed by the metrics layer, whatever it is.
        from repro.metrics.channel_load import canonical_max_load
        from repro.topology import TranslationGroup

        val = VAL(t4)
        lam = tornado4
        analytic = 1.0 / canonical_max_load(
            t4, TranslationGroup(t4), val.canonical_flows, lam
        )
        # A majority verdict over five seeds: a single seed's bracket
        # sits below 0.9 for 2 of 12 seeds (EXPERIMENTS "Counter-based
        # injection stream"), on either injection stream.
        est = saturation_throughput(
            val, lam, cycles=2500, warmup=800, seeds=range(5)
        )
        if analytic >= 1.0:
            assert est.lower >= 0.9
        else:
            assert est.lower <= analytic + 0.1
            assert est.upper >= analytic - 0.1


class TestLatencyLoadCurve:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_monotone_latency(self, dor4, uniform4, backend):
        curve = latency_load_curve(
            dor4,
            uniform4,
            [0.1, 0.5, 0.9],
            cycles=1200,
            warmup=300,
            backend=backend,
        )
        lats = [r.mean_latency for r in curve]
        assert lats[0] <= lats[1] <= lats[2]

    def test_offered_rate_accounts_for_diagonal(self, dor4, uniform4):
        (res,) = latency_load_curve(
            dor4, uniform4, [0.4], cycles=800, warmup=200
        )
        assert res.offered_rate == pytest.approx(0.4 * 15 / 16)

    def test_unknown_backend_rejected(self, dor4, uniform4):
        with pytest.raises(ValueError, match="unknown sim backend"):
            latency_load_curve(dor4, uniform4, [0.4], backend="cuda")
        with pytest.raises(ValueError, match="unknown sim backend"):
            simulate(dor4, uniform4, SimulationConfig(), backend="cuda")
