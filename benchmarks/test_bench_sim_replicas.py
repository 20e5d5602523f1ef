"""Replica-batching benchmark: one (rate × seed) launch vs. 128 runs.

The speed half of the replica-batched differential contract
(``tests/sim/test_replicas.py`` is the equivalence half): a 16-rate ×
8-seed grid run as one ``simulate_replicas`` launch must beat the same
128 configurations run as individual *vectorized* calls by >= 5x while
producing identical result documents.  Both sides share a warm compiled
path table, so the measured gap is purely the per-call Python and
per-cycle fixed costs the batch amortizes — the per-packet reference
loop is not in this race (``test_bench_sim.py`` covers that axis).
"""

import time

import numpy as np

from repro.routing import IVAL
from repro.sim import (
    SimulationConfig,
    replica_grid,
    simulate,
    simulate_replicas,
)
from repro.sim.vectorized import compiled_simulator
from repro.topology import Torus
from repro.traffic import uniform


def test_replica_batch_speedup(benchmark, sim_replicas_record):
    torus = Torus(5, 2)
    traffic = uniform(torus.num_nodes)
    rates = [round(float(r), 4) for r in np.linspace(0.05, 0.95, 16)]
    seeds = list(range(8))
    cycles, warmup = 500, 200
    alg = IVAL(torus)
    replicas = replica_grid(rates, seeds)

    # Warm the compiled-simulator cache so both sides pay zero compile
    # cost and the comparison isolates the batching itself.
    compiled_simulator(alg, traffic)

    t0 = time.perf_counter()
    individual = [
        simulate(
            alg,
            traffic,
            SimulationConfig(
                cycles=cycles,
                warmup=warmup,
                injection_rate=rep.injection_rate,
                seed=rep.seed,
            ),
            backend="vectorized",
        )
        for rep in replicas
    ]
    individual_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = simulate_replicas(
        alg, traffic, replicas, cycles=cycles, warmup=warmup
    )
    batched_s = time.perf_counter() - t0

    # one more (warm) pass through pytest-benchmark for the report
    benchmark.pedantic(
        lambda: simulate_replicas(
            alg, traffic, replicas, cycles=cycles, warmup=warmup
        ),
        rounds=1,
        iterations=1,
    )

    speedup = individual_s / batched_s
    sim_replicas_record.update(
        workload={
            "k": 5,
            "algorithm": "IVAL",
            "traffic": "uniform",
            "rates": len(rates),
            "seeds": len(seeds),
            "replicas": len(replicas),
            "cycles": cycles,
            "warmup": warmup,
        },
        individual_seconds=round(individual_s, 3),
        batched_seconds=round(batched_s, 3),
        speedup=round(speedup, 2),
        results_identical=bool(individual == batched),
    )
    print()
    print(
        f"IVAL k=5 {len(rates)}x{len(seeds)} (rate x seed) grid: "
        f"individual {individual_s:.2f}s -> batched {batched_s:.2f}s "
        f"({speedup:.1f}x)"
    )

    # same replica tuples, same RNG streams => same documents
    assert individual == batched
    assert speedup >= 5.0
