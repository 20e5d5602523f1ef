"""Draw-for-draw differential under periodic rotor schedules.

The same pinning discipline as ``test_faults.py``: link up/down events
are RNG-free (queues are preserved, service budgets masked), so the
reference and vectorized backends must report *exactly* identical
counts on any periodic schedule — k in {3, 4} x {VLB-on-rotor, ORN,
DOR-on-a-static-phase} x rates straddling saturation.

The Hypothesis classes add the rotor property obligations: extended
conservation under arbitrary appearing/disappearing schedules, and
period-shift invariance (rotating the schedule by a whole period is
the identity on every count).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rotor import ORNRouting, RotorSchedule, VLBOnRotor
from repro.sim import SimulationConfig, simulate
from repro.traffic import uniform
from tests.sim.conftest import (
    assert_conservation,
    assert_counts_equal,
    assert_latency_close,
)

#: below and above the rotor fabrics' empirical saturation points
RATES = (0.4, 1.0)


def _rotor_case(k: int, scheme: str):
    """(algorithm, traffic, schedule) for one differential case."""
    sched = RotorSchedule.round_robin(k**2, 2, phase_length=3)
    if scheme == "VLBR":
        alg = VLBOnRotor(sched.base)
    else:
        alg = ORNRouting(sched.base, k=k)
    return alg, uniform(k**2), sched


def _config(rate: float, link_schedule=(), **kw):
    base = dict(
        cycles=300,
        warmup=100,
        injection_rate=rate,
        seed=17,
        link_schedule=link_schedule,
    )
    base.update(kw)
    return SimulationConfig(**base)


class TestRotorDifferential:
    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("scheme", ["VLBR", "ORN"])
    @pytest.mark.parametrize("k", [3, 4])
    def test_backends_identical_on_rotor(self, k, scheme, rate):
        alg, traffic, sched = _rotor_case(k, scheme)
        config = _config(rate, link_schedule=sched.link_events(300))
        ref = simulate(alg, traffic, config, backend="reference")
        vec = simulate(alg, traffic, config, backend="vectorized")
        assert ref.lost == 0  # rotor downs buffer, never destroy
        assert_counts_equal(ref, vec)
        assert_latency_close(ref, vec)

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("k", [3, 4])
    def test_backends_identical_dor_static_phase(self, k, rate, make_sim_case):
        # DOR on the torus under the degenerate static schedule: the
        # compiled link_schedule is empty and must change nothing.
        torus, alg, traffic = make_sim_case(k, "DOR")
        static = RotorSchedule.static(torus)
        assert static.link_events(300) == ()
        config = _config(rate, link_schedule=static.link_events(300))
        ref = simulate(alg, traffic, config, backend="reference")
        vec = simulate(alg, traffic, config, backend="vectorized")
        assert_counts_equal(ref, vec)
        assert_latency_close(ref, vec)
        clean = simulate(alg, traffic, _config(rate), backend="vectorized")
        assert_counts_equal(vec, clean)

    def test_rotor_and_faults_compose(self, make_sim_case):
        # a channel killed mid-run while the rotor cycles: kills win
        # (dead stays dead through later "up" events) in both backends
        torus, alg, traffic = make_sim_case(3, "DOR")
        sched = RotorSchedule(
            base=torus,
            phases=(
                tuple(range(torus.num_channels)),
                tuple(range(0, torus.num_channels, 2)) or (0,),
            ),
            phase_length=4,
        )
        config = _config(
            0.6,
            link_schedule=sched.link_events(300),
            fault_schedule=((60, 1),),
        )
        ref = simulate(alg, traffic, config, backend="reference")
        vec = simulate(alg, traffic, config, backend="vectorized")
        assert ref.lost > 0
        assert_counts_equal(ref, vec)
        assert_latency_close(ref, vec)


class TestConservationUnderSchedules:
    """Extended conservation must survive *arbitrary* appear/disappear
    schedules — not just well-formed rotor rotations."""

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
                st.sampled_from(["down", "up"]),
            ),
            max_size=6,
            unique_by=lambda e: (e[0], e[1]),
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
            link_schedule=tuple(
                (cyc, chan % num_channels, act) for cyc, chan, act in schedule
            ),
        )
        ref = simulate(alg, traffic, config, backend="reference")
        vec = simulate(alg, traffic, config, backend="vectorized")
        assert ref.lost == 0  # no kills in play: downs are lossless
        assert_conservation(ref)
        assert_conservation(vec)
        assert_counts_equal(ref, vec)


class TestPeriodShiftInvariance:
    """Rotating the schedule by a whole period is the identity: the
    phase sequence, the compiled link events, and therefore every
    simulated count are unchanged."""

    @settings(max_examples=25, deadline=None)
    @given(
        phases=st.integers(min_value=1, max_value=4),
        phase_length=st.integers(min_value=1, max_value=5),
        start=st.integers(min_value=0, max_value=30),
        periods=st.integers(min_value=1, max_value=3),
    )
    def test_link_events_invariant(self, phases, phase_length, start, periods):
        sched = RotorSchedule.round_robin(9, phases, phase_length=phase_length)
        a = RotorSchedule(
            base=sched.base,
            phases=sched.phases,
            phase_length=phase_length,
            start=start,
        )
        b = RotorSchedule(
            base=sched.base,
            phases=sched.phases,
            phase_length=phase_length,
            start=start + periods * sched.period,
        )
        assert a.phase_at(0) == b.phase_at(0)
        assert a.link_events(120) == b.link_events(120)
        assert a.digest() == b.digest()

    @pytest.mark.parametrize("start", [0, 2])
    def test_simulated_counts_invariant(self, start):
        sched = RotorSchedule.round_robin(9, 3, phase_length=2)
        alg = VLBOnRotor(sched.base)
        traffic = uniform(9)
        results = []
        for s in (start, start + sched.period):
            shifted = RotorSchedule(
                base=sched.base,
                phases=sched.phases,
                phase_length=2,
                start=s,
            )
            config = _config(0.7, link_schedule=shifted.link_events(300))
            results.append(simulate(alg, traffic, config, backend="vectorized"))
        assert_counts_equal(results[0], results[1])
        assert_latency_close(results[0], results[1])
