"""Differential equivalence for replica-batched launches.

The batched kernel's correctness spine: a batch of mixed
``(injection_rate, seed, fault_schedule, link_schedule)`` replicas must
be identical to running each replica as an individual
``simulate`` call — every packet count exactly, latency within float
summation tolerance.  Launches that stack several compiled path tables
(different algorithms, traffic matrices and degraded networks) must
give every replica exactly what a launch over its own table gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.faults import FaultSet, degrade, degrade_routing
from repro.routing import IVAL, VAL, DimensionOrderRouting
from repro.routing.paths import path_channels
from repro.sim import (
    Replica,
    SimulationConfig,
    VectorizedSimulator,
    replica_grid,
    simulate,
    simulate_replicas,
    simulate_tables,
)
from repro.sim.vectorized import compiled_simulator
from repro.topology import Torus
from repro.traffic import tornado, uniform
from tests.sim.conftest import (
    assert_counts_equal,
    assert_latency_close,
    assert_results_identical,
)

#: A deliberately heterogeneous batch: rates below/above saturation,
#: distinct seeds, one replica with mid-run channel kills and one with a
#: link-down window — nothing shared but the algorithm and traffic.
MIXED = [
    Replica(0.2, seed=3),
    Replica(0.8, seed=3),
    Replica(0.2, seed=11),
    Replica(0.6, seed=5, fault_schedule=((0, 1), (120, 7))),
    Replica(0.5, seed=7, link_schedule=((50, 2, "down"), (150, 2, "up"))),
    Replica(0.9, seed=2, fault_schedule=((80, 4),),
            link_schedule=((40, 9, "down"), (90, 9, "up"))),
]


class TestReplica:
    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="injection_rate"):
            Replica(1.5)
        with pytest.raises(ValueError, match="injection_rate"):
            Replica(-0.1)

    def test_schedules_normalized(self):
        rep = Replica(0.5, fault_schedule=[(9, 2), (3, 1), (9, 2)],
                      link_schedule=[(5, 0, "down")])
        assert rep.fault_schedule == ((3, 1), (9, 2))
        assert rep.link_schedule == ((5, 0, "down"),)

    def test_config_roundtrip(self):
        config = SimulationConfig(
            cycles=500, warmup=100, injection_rate=0.4, seed=9,
            queue_capacity=3, fault_schedule=((10, 1),),
            link_schedule=((20, 2, "down"),),
        )
        rep = Replica.from_config(config)
        assert rep.to_config(500, 100, queue_capacity=3) == config

    def test_grid_is_rate_major(self):
        grid = replica_grid([0.1, 0.2], [4, 5], fault_schedule=((0, 1),))
        assert [(r.injection_rate, r.seed) for r in grid] == [
            (0.1, 4), (0.1, 5), (0.2, 4), (0.2, 5)
        ]
        assert all(r.fault_schedule == ((0, 1),) for r in grid)

    def test_raw_tuples_accepted(self, make_sim_case):
        _, alg, traffic = make_sim_case(3, "DOR", "uniform")
        a = simulate_replicas(alg, traffic, [(0.3, 5)], cycles=200, warmup=50)
        b = simulate_replicas(
            alg, traffic, [Replica(0.3, 5)], cycles=200, warmup=50
        )
        assert a == b


class TestBatchedDifferential:
    def test_mixed_batch_matches_individual_reference_runs(
        self, make_sim_case
    ):
        _, alg, traffic = make_sim_case(4, "IVAL", "uniform")
        batched = simulate_replicas(alg, traffic, MIXED, cycles=300, warmup=100)
        for rep, got in zip(MIXED, batched):
            ref = simulate(
                alg, traffic, rep.to_config(300, 100), backend="reference"
            )
            assert_counts_equal(ref, got)
            assert_latency_close(ref, got)
            if rep.fault_schedule:
                assert got.lost > 0  # the fault replicas must exercise loss

    def test_reference_backend_is_the_oracle_loop(self, make_sim_case):
        _, alg, traffic = make_sim_case(3, "DOR", "tornado")
        reps = MIXED[:3]
        via_batch_api = simulate_replicas(
            alg, traffic, reps, cycles=250, warmup=80, backend="reference"
        )
        direct = [
            simulate(alg, traffic, r.to_config(250, 80), backend="reference")
            for r in reps
        ]
        assert via_batch_api == direct

    def test_finite_capacity_batch_matches(self, make_sim_case):
        _, alg, traffic = make_sim_case(4, "VAL", "tornado")
        reps = [Replica(1.0, 1), Replica(1.0, 2), Replica(0.7, 3)]
        batched = simulate_replicas(
            alg, traffic, reps, cycles=300, warmup=100, queue_capacity=2
        )
        assert any(r.dropped > 0 for r in batched)
        for rep, got in zip(reps, batched):
            ref = simulate(
                alg,
                traffic,
                rep.to_config(300, 100, queue_capacity=2),
                backend="reference",
            )
            assert_counts_equal(ref, got)

    def test_batch_order_does_not_matter(self, make_sim_case):
        _, alg, traffic = make_sim_case(3, "RLB", "uniform")
        fwd = simulate_replicas(alg, traffic, MIXED, cycles=250, warmup=80)
        rev = simulate_replicas(alg, traffic, MIXED[::-1], cycles=250, warmup=80)
        assert fwd == rev[::-1]

    def test_batch_emits_span_and_metrics(self, make_sim_case):
        _, alg, traffic = make_sim_case(3, "DOR", "uniform")
        tracer = obs.get_tracer()
        mark = tracer.mark()
        simulate_replicas(alg, traffic, MIXED[:4], cycles=200, warmup=60)
        events = tracer.events_since(mark)
        (batch,) = [
            e for e in events if e["ev"] == "span" and e["name"] == "sim.batch"
        ]
        assert batch["attrs"]["replicas"] == 4
        assert batch["attrs"]["backend"] == "vectorized"
        runs = [
            e for e in events if e["ev"] == "span" and e["name"] == "sim.run"
        ]
        assert len(runs) == 4


class TestReplicaProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.integers(min_value=0, max_value=2**31),
                st.booleans(),  # carry a fault kill?
                st.booleans(),  # carry a link-down window?
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_batch_equals_individual_runs(self, make_sim_case, data):
        _, alg, traffic = make_sim_case(3, "DOR", "uniform")
        reps = [
            Replica(
                rate,
                seed,
                fault_schedule=((30, (seed % 5) + 1),) if faulty else (),
                link_schedule=(
                    ((10, seed % 4, "down"), (60, seed % 4, "up"))
                    if flaky
                    else ()
                ),
            )
            for rate, seed, faulty, flaky in data
        ]
        batched = simulate_replicas(alg, traffic, reps, cycles=150, warmup=50)
        for rep, got in zip(reps, batched):
            solo = simulate(
                alg, traffic, rep.to_config(150, 50), backend="vectorized"
            )
            assert_counts_equal(solo, got)
            assert_latency_close(solo, got)


# ----------------------------------------------------------------------
# Launches over stacked path tables
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mixed_tables():
    """Intact 64-channel VAL/uniform, a 62-channel degraded IVAL+detour
    and DOR/tornado on the 4-ary 2-cube: different algorithms, traffic
    matrices and channel counts over one node set."""
    torus = Torus(4, 2)
    degraded = degrade(torus, FaultSet(channels=(5, 40)))
    assert degraded.num_channels == torus.num_channels - 2
    return [
        (VAL(torus), uniform(torus.num_nodes)),
        (
            degrade_routing(IVAL(torus), degraded, mode="detour"),
            uniform(torus.num_nodes),
        ),
        (DimensionOrderRouting(torus), tornado(torus)),
    ]


#: Interleaved replicas over the three ``mixed_tables`` entries, with
#: schedules indexing each table's own (compacted) channel ids.
POOLED = [
    Replica(0.3, seed=1, table=1),
    Replica(0.9, seed=2, table=0),
    Replica(0.7, seed=3, table=2, fault_schedule=((60, 60),)),
    Replica(0.95, seed=4, table=1, link_schedule=((40, 61, "down"), (90, 61, "up"))),
    Replica(0.5, seed=5, table=0, fault_schedule=((0, 63),)),
    Replica(0.4, seed=6, table=2),
]


def _per_table(tables, replicas, **kwargs):
    """Each replica's result from launches over its own table only."""
    out = {}
    for t, (alg, traffic) in enumerate(tables):
        mine = [i for i, r in enumerate(replicas) if r.table == t]
        solo = simulate_replicas(
            alg,
            traffic,
            [Replica(replicas[i].injection_rate, replicas[i].seed,
                     replicas[i].fault_schedule, replicas[i].link_schedule)
             for i in mine],
            **kwargs,
        )
        out.update(zip(mine, solo))
    return [out[i] for i in range(len(replicas))]


class TestStackedTables:
    def test_pooled_launch_matches_per_table_launches(self, mixed_tables):
        pooled = simulate_tables(mixed_tables, POOLED, cycles=300, warmup=100)
        expected = _per_table(mixed_tables, POOLED, cycles=300, warmup=100)
        for got, want in zip(pooled, expected):
            assert_results_identical(got, want)
        assert pooled[2].lost > 0 and pooled[4].lost > 0

    def test_pooled_launch_matches_reference(self, mixed_tables):
        reps = POOLED[:4]
        pooled = simulate_tables(mixed_tables, reps, cycles=200, warmup=60)
        ref = simulate_tables(
            mixed_tables, reps, cycles=200, warmup=60, backend="reference"
        )
        for got, want in zip(pooled, ref):
            assert_counts_equal(want, got)
            assert_latency_close(want, got)

    def test_finite_capacity_pooled_matches(self, mixed_tables):
        reps = [Replica(1.0, seed=s, table=s % 3) for s in range(4)]
        pooled = simulate_tables(
            mixed_tables, reps, cycles=200, warmup=60, queue_capacity=2
        )
        assert any(r.dropped > 0 for r in pooled)
        expected = _per_table(
            mixed_tables, reps, cycles=200, warmup=60, queue_capacity=2
        )
        for got, want in zip(pooled, expected):
            assert_results_identical(got, want)

    def test_one_launch_per_pooled_batch(self, mixed_tables):
        tracer = obs.get_tracer()
        mark = tracer.mark()
        simulate_tables(mixed_tables, POOLED, cycles=120, warmup=40)
        (batch,) = [
            e
            for e in tracer.events_since(mark)
            if e["ev"] == "span" and e["name"] == "sim.batch"
        ]
        assert batch["attrs"]["replicas"] == len(POOLED)
        assert batch["attrs"]["tables"] == len(mixed_tables)

    def test_schedule_channels_checked_per_table(self, mixed_tables):
        # Channel 63 exists on the intact tables but not on the
        # 62-channel degraded one.
        with pytest.raises(ValueError, match="out of range"):
            simulate_tables(
                mixed_tables,
                [Replica(0.5, table=1, fault_schedule=((0, 63),))],
                cycles=100,
                warmup=20,
            )

    def test_replica_table_out_of_range(self, mixed_tables):
        with pytest.raises(ValueError, match="table"):
            simulate_tables(
                mixed_tables[:1], [Replica(0.5, table=1)], cycles=100, warmup=20
            )
        with pytest.raises(ValueError, match="table"):
            Replica(0.5, table=-1)

    def test_stack_needs_one_node_count(self, mixed_tables):
        t3 = Torus(3, 2)
        with pytest.raises(ValueError, match="node count"):
            VectorizedSimulator.stack(
                [
                    compiled_simulator(*mixed_tables[0]),
                    compiled_simulator(DimensionOrderRouting(t3), uniform(9)),
                ]
            )

    def test_lazy_compile_lands_in_its_own_table(self, mixed_tables):
        # Tornado traffic leaves most pairs off-support; a boundary draw
        # compiles them on demand into the table that hit them.
        sim = VectorizedSimulator.stack(
            [compiled_simulator(*mixed_tables[0]), VectorizedSimulator(*mixed_tables[2])]
        )
        n = sim.num_nodes
        alg = mixed_tables[2][0]
        s, d = 0, 10  # offset (2, 2): four DOR paths, no tornado traffic
        assert mixed_tables[2][1][s, d] == 0.0
        key = n * n + s * n + d
        assert sim._pair_base[key] < 0
        sim._ensure_pairs(np.asarray([key]))
        dist = alg.path_distribution(s, d)
        # The pair's paths are the last ones compiled.
        assert sim._path_len.size - sim._pair_base[key] == len(dist) == 4
        for j, (path, _) in enumerate(dist):
            start = sim._path_start[sim._pair_base[key] + j]
            length = sim._path_len[sim._pair_base[key] + j]
            assert list(sim._chan_flat[start : start + length]) == (
                path_channels(alg.network, path)
            )
        # The other table's entry for the same pair is untouched.
        assert sim._pair_base[s * n + d] == compiled_simulator(
            *mixed_tables[0]
        )._pair_base[s * n + d]


class TestStackedProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),  # table
                st.floats(min_value=0.0, max_value=1.0),
                st.integers(min_value=0, max_value=2**31),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_pooled_equals_per_table(self, mixed_tables, data):
        reps = [Replica(rate, seed, table=t) for t, rate, seed in data]
        pooled = simulate_tables(mixed_tables, reps, cycles=100, warmup=30)
        expected = _per_table(mixed_tables, reps, cycles=100, warmup=30)
        for got, want in zip(pooled, expected):
            assert_results_identical(got, want)


def test_compiled_tables_die_with_their_algorithm():
    # The simulator references its algorithm, so the per-algorithm
    # cache must not pin either of them once the caller lets go.
    import gc
    import weakref

    alg = DimensionOrderRouting(Torus(3, 2))
    sim = weakref.ref(compiled_simulator(alg, uniform(9)))
    assert compiled_simulator(alg, uniform(9)) is sim()
    del alg
    gc.collect()
    assert sim() is None


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(st.integers(0, 7), min_size=1, max_size=60),
    cap=st.integers(1, 4),
)
def test_queue_order_is_the_stable_argsort(keys, cap):
    # Few distinct queue keys, so most keys tie: ties keep row order.
    from repro.sim.vectorized import _arrival_keep, _queue_order

    qkey = np.asarray(keys, dtype=np.int64)
    order, q_sorted = _queue_order(qkey)
    want = np.argsort(qkey, kind="stable")
    assert np.array_equal(order, want)
    assert np.array_equal(q_sorted, qkey[want])
    occ = np.arange(8, dtype=np.int64) % (cap + 1)
    seen = np.zeros(8, dtype=np.int64)
    expected = []
    for q in qkey:  # sequential appends, as the reference simulator does
        expected.append(occ[q] + seen[q] < cap)
        seen[q] += 1
    assert np.array_equal(_arrival_keep(qkey, occ, cap), expected)
