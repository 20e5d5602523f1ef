"""Regression: zero-delivery measurement windows must degrade cleanly.

A run at a rate far above saturation (or with a window too short for
any packet to cross the network) can deliver *zero* packets during the
measurement window.  ``np.percentile`` on an empty array raises, so a
naive stats tail crashes exactly on the sweeps most worth plotting —
the unstable side of the saturation point.  The shared
:func:`repro.sim.stats.latency_stats` helper pins the contract for both
backends: NaN statistics, never an exception, and ``obs-report``
renders such rate rows with ``-`` latency cells.
"""

import math

import numpy as np
import pytest

from repro import obs
from repro.routing import DimensionOrderRouting
from repro.sim import (
    SimulationConfig,
    latency_stats,
    simulate,
)
from repro.topology import Torus
from repro.traffic import tornado, uniform
from tests.sim.conftest import assert_counts_equal

#: DOR under 8-ary tornado needs 3 hops; a 2-cycle measurement window
#: cannot contain any packet injected inside it, so the window measures
#: zero deliveries even though the network is busy.
_BUSY_ZERO = SimulationConfig(cycles=60, warmup=58, injection_rate=1.0, seed=3)


def _zero_window_case():
    torus = Torus(8, 2)
    return DimensionOrderRouting(torus), tornado(torus)


class TestLatencyStatsHelper:
    def test_empty_window_is_nan_not_raise(self):
        stats = latency_stats([])
        assert math.isnan(stats.mean_latency)
        assert math.isnan(stats.p99_latency)
        assert math.isnan(stats.mean_hops)
        assert stats.count == 0

    def test_populated_window(self):
        stats = latency_stats([1, 2, 3, 4], hops=[1, 1, 2, 2])
        assert stats.mean_latency == pytest.approx(2.5)
        assert stats.p99_latency == pytest.approx(np.percentile([1, 2, 3, 4], 99))
        assert stats.mean_hops == pytest.approx(1.5)
        assert stats.count == 4

    def test_hops_optional(self):
        assert math.isnan(latency_stats([5.0]).mean_hops)
        assert latency_stats([5.0]).mean_latency == 5.0


class TestZeroDeliveryRuns:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_busy_network_empty_window(self, backend):
        alg, traffic = _zero_window_case()
        result = simulate(alg, traffic, _BUSY_ZERO, backend=backend)
        assert result.accepted_rate == 0.0
        assert math.isnan(result.mean_latency)
        assert math.isnan(result.p99_latency)
        assert math.isnan(result.mean_hops)
        assert result.backlog > 0  # the network genuinely was busy

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_zero_rate_run(self, backend):
        torus = Torus(4, 2)
        result = simulate(
            DimensionOrderRouting(torus),
            uniform(torus.num_nodes),
            SimulationConfig(cycles=100, warmup=50, injection_rate=0.0, seed=0),
            backend=backend,
        )
        assert result.injected == result.delivered == 0
        assert math.isnan(result.mean_latency)

    def test_backends_agree_on_zero_delivery_counts(self):
        alg, traffic = _zero_window_case()
        ref = simulate(alg, traffic, _BUSY_ZERO, backend="reference")
        vec = simulate(alg, traffic, _BUSY_ZERO, backend="vectorized")
        assert_counts_equal(ref, vec)


class TestObsReportRendering:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_rate_row_renders_without_latency(self, tmp_path, backend):
        alg, traffic = _zero_window_case()
        trace = tmp_path / "trace.jsonl"
        obs.configure(trace_path=str(trace))
        try:
            simulate(alg, traffic, _BUSY_ZERO, backend=backend)
        finally:
            obs.configure()  # restore a sink-less global tracer
        report = obs.report_from_file(str(trace))
        rendered = report.render()
        assert "Simulation (per rate point):" in rendered
        [row] = [
            line for line in rendered.splitlines() if line.startswith("  1.0000")
        ]
        assert " - " in row  # latency columns render as '-' placeholders

    def test_mixed_rows_keep_latency_for_delivering_rates(self, tmp_path):
        torus = Torus(4, 2)
        alg, traffic = DimensionOrderRouting(torus), uniform(torus.num_nodes)
        trace = tmp_path / "trace.jsonl"
        obs.configure(trace_path=str(trace))
        try:
            simulate(
                alg,
                traffic,
                SimulationConfig(cycles=400, warmup=100, injection_rate=0.3, seed=2),
                backend="vectorized",
            )
        finally:
            obs.configure()
        rendered = obs.report_from_file(str(trace)).render()
        [row] = [
            line for line in rendered.splitlines() if line.startswith("  0.3000")
        ]
        assert " - " not in row
