"""Property tests for the vectorized simulation kernel.

Hypothesis drives radices, seeds, rates and capacities (bounded so the
``ci`` profile stays time-boxed) through three invariants:

* **Determinism** — the kernel's only entropy source is the seeded
  generator, so the same configuration twice yields an identical
  result document.
* **Translation invariance** — relabeling the nodes by a torus
  translation maps a translation-invariant routing algorithm onto
  itself, so accepted throughput on a relabeled pattern matches the
  original up to Bernoulli noise (the RNG-to-node assignment changes,
  so this is a statistical bound, not an exact one).
* **Conservation** — every packet that entered the network is, at any
  stopping point, delivered, still queued, or dropped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import DimensionOrderRouting
from repro.sim import SimulationConfig, simulate
from repro.topology import Torus
from repro.traffic import transpose, uniform
from tests.sim.conftest import (
    assert_conservation,
    assert_results_identical,
    relabel_traffic,
)

_tori = {k: Torus(k, 2) for k in (3, 4, 5)}
_algs = {k: DimensionOrderRouting(t) for k, t in _tori.items()}


def _config(seed, rate, capacity=None, cycles=300):
    return SimulationConfig(
        cycles=cycles,
        warmup=100,
        injection_rate=rate,
        seed=seed,
        queue_capacity=capacity,
    )


class TestDeterminism:
    @settings(max_examples=20)
    @given(
        k=st.sampled_from([3, 4, 5]),
        seed=st.integers(min_value=0, max_value=2**31),
        rate=st.floats(min_value=0.0, max_value=1.0),
        capacity=st.sampled_from([None, 2]),
    )
    def test_same_seed_same_stats_doc(self, k, seed, rate, capacity):
        alg, traffic = _algs[k], uniform(_tori[k].num_nodes)
        config = _config(seed, rate, capacity)
        first = simulate(alg, traffic, config, backend="vectorized")
        second = simulate(alg, traffic, config, backend="vectorized")
        assert_results_identical(first, second)


class TestTranslationInvariance:
    @settings(max_examples=10)
    @given(
        k=st.sampled_from([3, 4]),
        shift=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_relabeled_pattern_same_throughput(self, k, shift, seed):
        # DOR is translation invariant and transpose traffic is not, so
        # relabeling by a torus translation permutes the pattern while
        # preserving the load every channel sees — accepted throughput
        # must agree up to injection noise.  The rate sits well below
        # saturation so both runs accept essentially all offered load.
        torus, alg = _tori[k], _algs[k]
        nodes = np.arange(torus.num_nodes)
        perm = torus.add_nodes(nodes, shift % torus.num_nodes)
        traffic = transpose(torus)
        relabeled = relabel_traffic(traffic, perm)
        a = simulate(alg, traffic, _config(seed, 0.3), backend="vectorized")
        b = simulate(alg, relabeled, _config(seed, 0.3), backend="vectorized")
        assert a.accepted_rate == pytest.approx(b.accepted_rate, abs=0.05)
        assert a.stable and b.stable

    def test_uniform_traffic_is_relabeling_fixed_point(self):
        # On uniform traffic relabeling is the identity on the matrix,
        # so invariance of the full result document is exact.
        torus, alg = _tori[4], _algs[4]
        traffic = uniform(torus.num_nodes)
        perm = torus.add_nodes(np.arange(torus.num_nodes), 5)
        relabeled = relabel_traffic(traffic, perm)
        a = simulate(alg, traffic, _config(7, 0.4), backend="vectorized")
        b = simulate(alg, relabeled, _config(7, 0.4), backend="vectorized")
        assert a == b


class TestConservation:
    @settings(max_examples=20)
    @given(
        k=st.sampled_from([3, 4, 5]),
        seed=st.integers(min_value=0, max_value=2**31),
        rate=st.floats(min_value=0.05, max_value=1.0),
        capacity=st.sampled_from([None, 1, 3]),
    )
    def test_injected_accounted_for(self, k, seed, rate, capacity):
        alg, traffic = _algs[k], uniform(_tori[k].num_nodes)
        config = _config(seed, rate, capacity)
        assert_conservation(
            simulate(alg, traffic, config, backend="vectorized")
        )

    @settings(max_examples=5)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_reference_backend_conserves_too(self, seed):
        config = _config(seed, 0.8, capacity=2)
        assert_conservation(
            simulate(
                _algs[4],
                uniform(_tori[4].num_nodes),
                config,
                backend="reference",
            )
        )

    def test_drained_run_delivers_everything(self):
        # With injection only during warmup... not expressible directly;
        # instead: a stable low-rate run ends nearly drained, and the
        # identity still splits injected into the three sinks exactly.
        result = simulate(
            _algs[3],
            uniform(_tori[3].num_nodes),
            _config(1, 0.1, cycles=600),
            backend="vectorized",
        )
        assert_conservation(result)
        assert result.delivered >= result.injected - result.backlog
