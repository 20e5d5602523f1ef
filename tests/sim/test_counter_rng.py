"""The simulators' counter-based uniform stream.

Both backends read ``u = mix(seed, cycle, node, slot)``
(:func:`repro.sim.network_sim.counter_uniforms`), a pure function with
no generator state.  These tests pin what the simulators rely on: the
range, determinism, sensitivity to every coordinate, a coarse
uniformity check, and that a replica's run depends on its own tuple
only, not on the launch it shares.
"""

import numpy as np
import pytest
from scipy import stats

from repro.sim import SimulationConfig
from repro.sim.network_sim import (
    SLOT_DEST,
    SLOT_MASK,
    SLOT_PATH,
    counter_index,
    counter_uniforms,
    stream_keys,
)
from repro.sim.vectorized import Replica, VectorizedSimulator
from tests.sim.conftest import assert_results_identical


def _grid(seeds=range(4), cycles=range(40), nodes=range(16)):
    """``u[seed, cycle, node, slot]`` over a coordinate grid."""
    slots = np.arange(3)
    return np.stack(
        [
            counter_uniforms(
                stream_keys(np.asarray(seeds), c)[:, None, None],
                counter_index(np.asarray(nodes)[:, None], slots),
            )
            for c in cycles
        ],
        axis=1,
    )


def test_values_lie_in_unit_interval():
    u = _grid(seeds=range(8), cycles=range(200))
    assert u.dtype == np.float64
    assert u.min() >= 0.0
    assert u.max() < 1.0
    # 32-bit resolution: every value is a multiple of 2**-32.
    assert np.array_equal(u * 2.0**32, np.floor(u * 2.0**32))
    assert np.unique(u).size > 0.99 * u.size


def test_deterministic():
    assert np.array_equal(_grid(), _grid())
    one = counter_uniforms(stream_keys(7, 123), counter_index(5, SLOT_DEST))
    assert one.shape == (1,)
    assert one[0] == _grid(seeds=[7], cycles=[123], nodes=[5])[0, 0, 0, SLOT_DEST]


def test_every_coordinate_moves_the_value():
    u = _grid()
    # All 4 * 40 * 16 * 3 values differ, so changing any one of seed,
    # cycle, node or slot changes the draw.
    assert np.unique(u).size == u.size
    base = counter_uniforms(stream_keys(3, 10), counter_index(4, SLOT_MASK))
    for seed, cycle, node, slot in (
        (4, 10, 4, SLOT_MASK),
        (3, 11, 4, SLOT_MASK),
        (3, 10, 5, SLOT_MASK),
        (3, 10, 4, SLOT_DEST),
    ):
        draw = counter_uniforms(stream_keys(seed, cycle), counter_index(node, slot))
        assert draw != base


@pytest.mark.parametrize("slot", [SLOT_MASK, SLOT_DEST, SLOT_PATH])
def test_coarse_uniformity(slot):
    u = _grid(seeds=range(16), cycles=range(100), nodes=range(64))
    sample = u[..., slot].ravel()  # 102,400 draws
    counts = np.bincount((sample * 64).astype(np.int64), minlength=64)
    assert stats.chisquare(counts).pvalue > 1e-3
    # Neighbouring cycles and nodes are not correlated.
    assert abs(np.corrcoef(u[:, :-1, :, slot].ravel(), u[:, 1:, :, slot].ravel())[0, 1]) < 0.02
    assert abs(np.corrcoef(u[:, :, :-1, slot].ravel(), u[:, :, 1:, slot].ravel())[0, 1]) < 0.02


def test_seed_out_of_range_rejected():
    with pytest.raises(ValueError, match="seed"):
        SimulationConfig(seed=-1)
    with pytest.raises(ValueError, match="seed"):
        Replica(0.5, seed=1 << 64)


def test_replica_ignores_its_launch_mates(make_sim_case):
    # A replica's packet counts depend on its own tuple only: alone, or
    # launched between replicas of other seeds, rates, schedules and
    # tables, it runs identically.
    _, val, uni = make_sim_case(4, "VAL", "uniform")
    _, dor, tor = make_sim_case(4, "DOR", "tornado")
    sim = VectorizedSimulator.stack(
        [VectorizedSimulator(val, uni), VectorizedSimulator(dor, tor)]
    )
    target = Replica(0.6, seed=42, table=1)
    mates = [
        Replica(0.9, seed=42, table=0),
        Replica(0.3, seed=7, fault_schedule=((50, 3),), table=1),
        Replica(1.0, seed=0, link_schedule=((20, 5, "down"),), table=0),
    ]
    (alone,) = sim.run_replicas([target], cycles=300, warmup=100)
    shared = sim.run_replicas(
        [mates[0], target, *mates[1:]], cycles=300, warmup=100
    )
    assert_results_identical(alone, shared[1])
