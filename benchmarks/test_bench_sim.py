"""Simulation benchmarks: the Section 2.1 stability claim, and the
reference-vs-vectorized backend comparison on a fixed latency-load sweep.

The backend benchmark is the speed half of the differential contract
(``tests/sim/test_differential.py`` is the equivalence half): on a
16-point sweep the vectorized kernel must beat the per-packet reference
loop by >= 10x *while producing identical result documents*.  The sweep
is multi-rate on purpose — the vectorized backend compiles its path
tables once per (algorithm, traffic) pair and amortizes them across all
rate points, whereas the reference simulator re-derives its path
distributions on every ``simulate()`` call.
"""

import time

import numpy as np

from repro.experiments import sim_validation
from repro.routing import IVAL
from repro.sim import SimulationConfig, replica_grid, simulate, simulate_replicas
from repro.topology import Torus
from repro.traffic import uniform


def test_sim_validation(benchmark):
    data = benchmark.pedantic(
        lambda: sim_validation.run(k=4, cycles=3000, seed=7),
        rounds=1,
        iterations=1,
    )
    print()
    print(data.render())
    for name, traffic, analytic, lo, hi in data.rows():
        capped = min(analytic, 1.0)
        mid = 0.5 * (lo + hi)
        # the empirical saturation bracket lands on the analytic value
        assert abs(capped - mid) < 0.1, (name, traffic)


def test_backend_speedup(benchmark, sim_backend_record):
    torus = Torus(5, 2)
    traffic = uniform(torus.num_nodes)
    rates = [round(float(r), 4) for r in np.linspace(0.05, 0.95, 16)]
    cycles, warmup, seed = 500, 200, 1

    ref_alg = IVAL(torus)
    t0 = time.perf_counter()
    ref = [
        simulate(
            ref_alg,
            traffic,
            SimulationConfig(
                cycles=cycles, warmup=warmup, injection_rate=r, seed=seed
            ),
            backend="reference",
        )
        for r in rates
    ]
    ref_s = time.perf_counter() - t0

    # fresh algorithm instance so the timed vectorized run includes its
    # one-time path-table compile, not a warm per-object cache
    vec_alg = IVAL(torus)
    t0 = time.perf_counter()
    replicas = replica_grid(rates, [seed])
    vec = simulate_replicas(
        vec_alg, traffic, replicas, cycles=cycles, warmup=warmup
    )
    vec_s = time.perf_counter() - t0

    # one more (warm) pass through pytest-benchmark for the report
    benchmark.pedantic(
        lambda: simulate_replicas(
            vec_alg, traffic, replicas, cycles=cycles, warmup=warmup
        ),
        rounds=1,
        iterations=1,
    )

    speedup = ref_s / vec_s
    sim_backend_record.update(
        workload={
            "k": 5,
            "algorithm": "IVAL",
            "traffic": "uniform",
            "rates": rates,
            "cycles": cycles,
            "warmup": warmup,
            "seed": seed,
        },
        reference_seconds=round(ref_s, 3),
        vectorized_seconds=round(vec_s, 3),
        speedup=round(speedup, 2),
        results_identical=bool(ref == vec),
    )
    print()
    print(
        f"IVAL k=5 {len(rates)}-rate sweep: reference {ref_s:.2f}s -> "
        f"vectorized {vec_s:.2f}s ({speedup:.1f}x)"
    )

    assert ref == vec  # same RNG stream, same arbitration => same documents
    assert speedup >= 10.0
