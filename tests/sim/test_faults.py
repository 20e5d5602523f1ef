"""Fault injection in the simulator: config surface, loss accounting,
and the reference/vectorized differential under channel kills.

The ordering contract both backends implement (and the differential
pins): kills happen at the start of the named cycle — packets queued on
a dying channel become ``lost`` immediately — and any packet injected
on, or forwarded onto, a dead channel is lost *before* it competes for
queue capacity.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Replica, SimulationConfig, simulate, simulate_replicas
from tests.sim.conftest import (
    assert_conservation,
    assert_counts_equal,
    assert_latency_close,
)


def _config(**kw):
    base = dict(cycles=400, warmup=120, injection_rate=0.6, seed=9)
    base.update(kw)
    return SimulationConfig(**base)


class TestConfigSurface:
    def test_schedule_normalized_sorted_unique(self):
        config = _config(
            fault_schedule=[(50, 3), (10, 1), (50, 3), (20, 0)]
        )
        assert config.fault_schedule == ((10, 1), (20, 0), (50, 3))

    @pytest.mark.parametrize("entry", [(-1, 0), (5, -2)])
    def test_negative_entries_rejected(self, entry):
        with pytest.raises(ValueError, match="nonnegative"):
            _config(fault_schedule=(entry,))

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_out_of_range_channel_rejected(
        self, backend, make_sim_case
    ):
        torus, alg, traffic = make_sim_case(3, "DOR")
        config = _config(fault_schedule=((10, torus.num_channels),))
        with pytest.raises(ValueError, match="out of range"):
            simulate(alg, traffic, config, backend=backend)


class TestLossAccounting:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_kill_loses_packets_and_conserves(self, backend, make_sim_case):
        _, alg, traffic = make_sim_case(4, "DOR")
        config = _config(fault_schedule=((150, 0), (200, 5)))
        result = simulate(alg, traffic, config, backend=backend)
        assert result.lost > 0
        assert_conservation(result)

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_fault_at_or_past_end_rejected(self, backend, make_sim_case):
        # Regression: an event at or past ``cycles`` used to be a silent
        # no-op — the run quietly simulated the pristine network.
        _, alg, traffic = make_sim_case(3, "DOR")
        with pytest.raises(ValueError, match="at or past the end"):
            simulate(
                alg,
                traffic,
                _config(fault_schedule=((400, 0),)),
                backend=backend,
            )

    def test_late_event_error_identical_across_entry_points(
        self, make_sim_case
    ):
        # Config construction and the direct replica-batch path share
        # one validator, so the error text is character-identical.
        _, alg, traffic = make_sim_case(3, "DOR")

        with pytest.raises(ValueError) as via_config:
            _config(fault_schedule=((401, 0),))
        with pytest.raises(ValueError) as via_batch:
            simulate_replicas(
                alg,
                traffic,
                [Replica(0.6, fault_schedule=((401, 0),))],
                cycles=400,
                warmup=120,
            )
        assert str(via_config.value) == str(via_batch.value)

    def test_no_faults_means_no_losses(self, make_sim_case):
        _, alg, traffic = make_sim_case(4, "VAL")
        result = simulate(alg, traffic, _config(), backend="vectorized")
        assert result.lost == 0
        assert_conservation(result)

    def test_deterministic_under_faults(self, make_sim_case):
        _, alg, traffic = make_sim_case(4, "IVAL")
        config = _config(fault_schedule=((130, 2), (260, 9)))
        a = simulate(alg, traffic, config, backend="vectorized")
        b = simulate(alg, traffic, config, backend="vectorized")
        assert a == b


class TestDifferentialUnderFaults:
    """ISSUE.md part 3: the two backends must agree *exactly* under
    fault schedules — same lost counts, same everything."""

    @pytest.mark.parametrize("alg_name", ["DOR", "VAL", "IVAL"])
    def test_backends_identical(self, alg_name, make_sim_case):
        _, alg, traffic = make_sim_case(4, alg_name)
        config = _config(
            cycles=500,
            fault_schedule=((100, 0), (100, 7), (250, 3)),
        )
        ref = simulate(alg, traffic, config, backend="reference")
        vec = simulate(alg, traffic, config, backend="vectorized")
        assert ref.lost > 0
        assert_counts_equal(ref, vec)
        assert_latency_close(ref, vec)

    def test_capacity_drops_and_faults_together(self, make_sim_case):
        _, alg, traffic = make_sim_case(4, "DOR")
        config = _config(
            injection_rate=0.9,
            queue_capacity=2,
            fault_schedule=((150, 4), (300, 11)),
        )
        ref = simulate(alg, traffic, config, backend="reference")
        vec = simulate(alg, traffic, config, backend="vectorized")
        assert ref.dropped > 0 and ref.lost > 0
        assert_counts_equal(ref, vec)
        assert_latency_close(ref, vec)

    def test_kill_during_warmup(self, make_sim_case):
        _, alg, traffic = make_sim_case(3, "DOR")
        config = _config(fault_schedule=((40, 1),))
        ref = simulate(alg, traffic, config, backend="reference")
        vec = simulate(alg, traffic, config, backend="vectorized")
        assert_counts_equal(ref, vec)
        assert_latency_close(ref, vec)


class TestConservationProperty:
    """ISSUE.md acceptance: the extended conservation invariant
    ``injected == delivered + backlog + dropped + lost`` holds as a
    Hypothesis property in both backends, with identical per-run
    counts."""

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.sampled_from([3, 4]),
        seed=st.integers(min_value=0, max_value=2**31),
        rate=st.floats(min_value=0.05, max_value=1.0),
        capacity=st.sampled_from([None, 2]),
        schedule=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=299),
                st.integers(min_value=0, max_value=35),
            ),
            max_size=4,
        ),
    )
    def test_both_backends_conserve_identically(
        self, k, seed, rate, capacity, schedule, make_sim_case
    ):
        _, alg, traffic = make_sim_case(k, "DOR")
        num_channels = alg.network.num_channels
        config = SimulationConfig(
            cycles=300,
            warmup=100,
            injection_rate=rate,
            seed=seed,
            queue_capacity=capacity,
            fault_schedule=tuple(
                (cyc, chan % num_channels) for cyc, chan in schedule
            ),
        )
        ref = simulate(alg, traffic, config, backend="reference")
        vec = simulate(alg, traffic, config, backend="vectorized")
        assert_conservation(ref)
        assert_conservation(vec)
        assert_counts_equal(ref, vec)


class TestResultSurface:
    def test_lost_field_defaults_to_zero(self):
        from repro.sim import SimulationResult

        fields = {f.name for f in dataclasses.fields(SimulationResult)}
        assert "lost" in fields
