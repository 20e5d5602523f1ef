"""Packet-level network simulator.

The paper's throughput model is analytic: a network is stable as long as
every channel's expected load is below its bandwidth, a bound achievable
with output queuing, large queues and a simple scheduling protocol
(Section 2.1, citing [5]).  This package implements exactly that
idealized system — a cycle-based, output-queued, store-and-forward
simulator with oblivious path sampling — and is used to validate the
analytic saturation throughputs empirically: offered loads below
:math:`\\Theta(R, \\Lambda)` drain, loads above it grow queues without
bound.

Every vectorized run launches through :func:`simulate_tables`:
``simulate(..., backend="vectorized")`` is its one-replica case and
:func:`simulate_replicas` its one-table case.
"""

from repro.sim.packets import Packet
from repro.sim.network_sim import (
    BACKENDS,
    SimulationConfig,
    SimulationResult,
    simulate,
)
from repro.sim.measure import (
    SaturationEstimate,
    latency_load_curve,
    saturation_throughput,
    saturation_throughput_batch,
)
from repro.sim.stats import LatencyStats, latency_stats
from repro.sim.vectorized import (
    Replica,
    VectorizedSimulator,
    replica_grid,
    simulate_replicas,
    simulate_tables,
)
from repro.sim.adaptive import (
    adaptive_expected_locality,
    adaptive_saturation,
    simulate_adaptive,
)
from repro.sim.wormhole import (
    WormholeConfig,
    WormholeResult,
    simulate_wormhole,
)

__all__ = [
    "adaptive_expected_locality",
    "adaptive_saturation",
    "simulate_adaptive",
    "WormholeConfig",
    "WormholeResult",
    "simulate_wormhole",
    "BACKENDS",
    "LatencyStats",
    "latency_stats",
    "Packet",
    "SimulationConfig",
    "SimulationResult",
    "simulate",
    "simulate_replicas",
    "simulate_tables",
    "Replica",
    "replica_grid",
    "VectorizedSimulator",
    "latency_load_curve",
    "SaturationEstimate",
    "saturation_throughput",
    "saturation_throughput_batch",
]
