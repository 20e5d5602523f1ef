"""Differential equivalence: vectorized kernel vs. reference simulator.

The vectorized backend runs the reference's exact stochastic process
(same counter-based uniforms, same deterministic arbitration), so for any
seed/topology/traffic/rate the two must agree *exactly* on every packet
count and accepted-throughput ratio; latency statistics are compared
within a tight relative tolerance (the delivered packets — and hence
the latency samples — are identical, only float summation order may
differ).  Cases span k in {3, 4}, all four oblivious algorithms, and
rates below and above saturation.
"""

import pytest

from repro import obs
from repro.sim import (
    SimulationConfig,
    replica_grid,
    simulate,
    simulate_replicas,
)
from tests.sim.conftest import (
    SIM_ALGORITHMS,
    assert_counts_equal,
    assert_latency_close,
)

#: Rates straddling saturation for the adversarial patterns (tornado
#: saturates DOR at 1/3 on larger tori; 0.9 overloads every algorithm
#: somewhere in the case grid).
RATES = (0.15, 0.9)


def _run_both(alg, traffic, rate, seed, cycles=400, warmup=150, capacity=None):
    config = SimulationConfig(
        cycles=cycles,
        warmup=warmup,
        injection_rate=rate,
        seed=seed,
        queue_capacity=capacity,
    )
    ref = simulate(alg, traffic, config, backend="reference")
    vec = simulate(alg, traffic, config, backend="vectorized")
    return ref, vec


class TestBackendEquivalence:
    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("alg_name", sorted(SIM_ALGORITHMS))
    @pytest.mark.parametrize("traffic_name", ["uniform", "tornado"])
    @pytest.mark.parametrize("rate", RATES)
    def test_counts_exact_and_latency_close(
        self, make_sim_case, k, alg_name, traffic_name, rate
    ):
        _, alg, traffic = make_sim_case(k, alg_name, traffic_name)
        ref, vec = _run_both(alg, traffic, rate, seed=17)
        assert_counts_equal(ref, vec)
        assert_latency_close(ref, vec)

    def test_full_result_equality_below_saturation(self, make_sim_case):
        # Below saturation with a single-path algorithm the results are
        # equal as dataclasses, not merely field-by-field close.
        _, alg, traffic = make_sim_case(4, "DOR", "uniform")
        ref, vec = _run_both(alg, traffic, 0.3, seed=23, cycles=800, warmup=200)
        assert ref == vec

    @pytest.mark.parametrize("capacity", [1, 3])
    def test_finite_queue_drops_match(self, make_sim_case, capacity):
        _, alg, traffic = make_sim_case(4, "IVAL", "tornado")
        ref, vec = _run_both(
            alg, traffic, 1.0, seed=29, capacity=capacity
        )
        assert ref.dropped > 0  # the case must actually exercise drops
        assert_counts_equal(ref, vec)
        assert_latency_close(ref, vec)

    @pytest.mark.parametrize("seed", [0, 1, 2003])
    def test_seed_sensitivity_tracks(self, make_sim_case, seed):
        _, alg, traffic = make_sim_case(3, "VAL", "tornado")
        ref, vec = _run_both(alg, traffic, 0.5, seed=seed)
        assert_counts_equal(ref, vec)
        assert_latency_close(ref, vec)


class TestBatchedSweep:
    def test_sweep_matches_individual_runs(self, make_sim_case):
        # The batched multi-rate loop must be a pure repackaging: each
        # rate's replica reads its own uniforms exactly as a standalone
        # run does.
        _, alg, traffic = make_sim_case(4, "IVAL", "uniform")
        rates = [0.1, 0.4, 0.7, 1.0]
        batched = simulate_replicas(
            alg, traffic, replica_grid(rates, [11]), cycles=400, warmup=150
        )
        for rate, got in zip(rates, batched):
            ref = simulate(
                alg,
                traffic,
                SimulationConfig(
                    cycles=400, warmup=150, injection_rate=rate, seed=11
                ),
                backend="reference",
            )
            assert_counts_equal(ref, got)
            assert_latency_close(ref, got)

    def test_sweep_order_does_not_matter(self, make_sim_case):
        _, alg, traffic = make_sim_case(3, "RLB", "tornado")
        fwd = simulate_replicas(
            alg, traffic, replica_grid([0.2, 0.8], [5]), cycles=300, warmup=100
        )
        rev = simulate_replicas(
            alg, traffic, replica_grid([0.8, 0.2], [5]), cycles=300, warmup=100
        )
        assert fwd[0] == rev[1]
        assert fwd[1] == rev[0]


class TestOneLaunchPath:
    def test_vectorized_run_is_one_batch_with_one_run_child(
        self, make_sim_case
    ):
        # simulate(..., backend="vectorized") is the one-replica case of
        # simulate_tables: one sim.batch span, one sim.run child whose
        # attrs are the reference run's plus the backend name.
        _, alg, traffic = make_sim_case(3, "VAL", "tornado")
        config = SimulationConfig(
            cycles=300, warmup=100, injection_rate=0.6, seed=3
        )
        tracer = obs.get_tracer()

        def spans(fn):
            mark = tracer.mark()
            fn()
            return [e for e in tracer.events_since(mark) if e["ev"] == "span"]

        ref_spans = spans(
            lambda: simulate(alg, traffic, config, backend="reference")
        )
        vec_spans = spans(
            lambda: simulate(alg, traffic, config, backend="vectorized")
        )
        (ref_run,) = [e for e in ref_spans if e["name"] == "sim.run"]
        (batch,) = [e for e in vec_spans if e["name"] == "sim.batch"]
        (vec_run,) = [e for e in vec_spans if e["name"] == "sim.run"]
        assert batch["attrs"]["replicas"] == 1
        assert vec_run["path"] == f"{batch['path']}/sim.run"
        assert vec_run["attrs"] == {**ref_run["attrs"], "backend": "vectorized"}
