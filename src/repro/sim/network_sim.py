"""Cycle-based output-queued simulation loop.

Every channel owns an output queue at its source node.  A cycle has two
phases:

1. **Injection** — each node injects a packet with probability equal to
   the offered load; the destination is drawn from the traffic matrix
   row and the full path is sampled from the oblivious routing
   algorithm.  Self-addressed draws complete immediately (they never
   enter the network — the traffic matrix diagonal loads no channel).
   Every draw is a counter-based uniform (:func:`counter_uniforms`): a
   pure function of ``(seed, cycle, node, slot)``, so any kernel that
   reads the same counters runs the same process.
2. **Service** — every channel forwards up to ``bandwidth`` packets
   from its queue; a forwarded packet either joins the next channel's
   queue or ejects at its destination.

With unbounded queues this system is stable exactly when offered load
is below the analytic throughput :math:`\\Theta(R, \\Lambda)` — the
claim of paper Section 2.1 that the experiments verify.  A finite
``queue_capacity`` adds drop-at-enqueue semantics for burst studies.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque

import numpy as np

from repro import obs
from repro.constants import DEFAULT_SIM_BACKEND, DISTRIBUTION_ATOL
from repro.lp.quotient import splitmix64
from repro.routing.base import ObliviousRouting
from repro.routing.paths import path_channels
from repro.sim.packets import Packet
from repro.sim.stats import latency_stats
from repro.traffic.doubly_stochastic import validate_doubly_stochastic

#: Simulation kernels selectable on the sim entry points (and via the
#: ``--sim-backend`` CLI flag).  ``reference`` is the per-packet loop in
#: this module; ``vectorized`` is the struct-of-arrays kernel in
#: :mod:`repro.sim.vectorized`, differentially tested to reproduce the
#: reference's packet counts exactly.
BACKENDS = ("reference", "vectorized")

#: Actions a ``link_schedule`` entry may carry.  ``"down"`` parks a
#: channel — it serves nothing but keeps its queue and accepts new
#: enqueues (the rotor-switch semantics: packets wait for the link to
#: come back) — and ``"up"`` restores it.  Contrast ``fault_schedule``,
#: whose kills are permanent and destroy queued packets.
LINK_ACTIONS = ("down", "up")


#: Counter slots of a node's cycle: the Bernoulli injection mask, the
#: destination and the path choice each read their own uniform.
SLOT_MASK, SLOT_DEST, SLOT_PATH = 0, 1, 2
_NUM_SLOTS = 3
#: Resolution of a counter uniform, ``u = bits * 2**-32``.  32 bits
#: leave room above them for a row index in one uint64 search key (see
#: the vectorized kernel's decode).
UNIFORM_BITS = 32
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SEED_SALT = np.uint64(0xD1B54A32D192ED03)


def stream_keys(seeds, cycles) -> np.ndarray:
    """Keys of the injection stream, ``mix(mix(seed ^ salt) + cycle)``,
    broadcast over ``seeds`` and ``cycles`` (uint64, at least 1-d)."""
    keys = splitmix64(np.array(seeds, dtype=np.uint64, ndmin=1) ^ _SEED_SALT)
    return splitmix64(keys + np.asarray(cycles, dtype=np.uint64))


def counter_index(node, slot) -> np.ndarray:
    """Increment ``(3 node + slot + 1) * golden`` that places the draw of
    ``(node, slot)`` in a key's splitmix64 sequence (uint64, broadcast,
    at least 1-d)."""
    index = np.array(node, dtype=np.uint64, ndmin=1) * np.uint64(_NUM_SLOTS)
    return (index + (np.asarray(slot, dtype=np.uint64) + np.uint64(1))) * _GOLDEN


def counter_bits(keys: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Draws at ``index`` of the streams at ``keys``: the top 32 bits of
    the splitmix64 output (uint64).  Stateless, so a draw does not depend
    on which other draws were made, in what order, or by which kernel."""
    return splitmix64(keys + index) >> np.uint64(64 - UNIFORM_BITS)


def counter_uniforms(keys: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Uniforms ``counter_bits(keys, index) * 2**-32`` in ``[0, 1)``."""
    return counter_bits(keys, index) * 2.0**-UNIFORM_BITS


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown sim backend {backend!r}; expected one of {BACKENDS}"
        )


def normalize_fault_schedule(schedule) -> tuple[tuple[int, int], ...]:
    """Canonicalize ``(cycle, channel)`` kill events.

    Entries are sorted and deduplicated (killing an already-dead channel
    is a no-op); negative cycles or channels are rejected.  Shared by
    :class:`SimulationConfig` and the replica-batched kernel so the two
    paths agree on what a schedule means.
    """
    out = []
    for entry in schedule:
        cycle, channel = entry
        if int(cycle) < 0 or int(channel) < 0:
            raise ValueError(
                f"fault_schedule entry {entry!r} must be a "
                "(cycle, channel) pair of nonnegative ints"
            )
        out.append((int(cycle), int(channel)))
    return tuple(sorted(set(out)))


def normalize_link_schedule(schedule) -> tuple[tuple[int, int, str], ...]:
    """Canonicalize ``(cycle, channel, action)`` link events.

    Entries are sorted and exact duplicates collapse; two *different*
    actions for the same ``(cycle, channel)`` are contradictory and
    rejected, since applying them in either order changes the run.
    """
    out: dict[tuple[int, int], str] = {}
    for entry in schedule:
        cycle, channel, action = entry
        if action not in LINK_ACTIONS:
            raise ValueError(
                f"link_schedule action {action!r} must be one of {LINK_ACTIONS}"
            )
        if int(cycle) < 0 or int(channel) < 0:
            raise ValueError(
                f"link_schedule entry {entry!r} must be a "
                "(cycle, channel, action) triple of nonnegative ints"
            )
        key = (int(cycle), int(channel))
        if out.get(key, action) != action:
            raise ValueError(
                f"conflicting link_schedule events for channel {channel} "
                f"at cycle {cycle}"
            )
        out[key] = str(action)
    return tuple((c, ch, a) for (c, ch), a in sorted(out.items()))


def validate_channel_events(
    fault_schedule,
    link_schedule,
    cycles: int,
    num_channels: int | None = None,
) -> None:
    """Reject schedule events the run could never apply.

    An event at or past ``cycles`` used to be a silent no-op — a typo'd
    cycle count quietly simulated the pristine network instead.  Both
    backends call this (and :class:`SimulationConfig` calls it at
    construction), so the error is identical everywhere.  The channel
    range is only checked when ``num_channels`` is known.
    """
    for cycle, channel in fault_schedule:
        if cycle >= cycles:
            raise ValueError(
                f"fault_schedule event at cycle {cycle} is at or past the "
                f"end of the run ({cycles} cycles)"
            )
        if num_channels is not None and channel >= num_channels:
            raise ValueError(
                f"fault_schedule channel {channel} out of range "
                f"(network has {num_channels} channels)"
            )
    for cycle, channel, _action in link_schedule:
        if cycle >= cycles:
            raise ValueError(
                f"link_schedule event at cycle {cycle} is at or past the "
                f"end of the run ({cycles} cycles)"
            )
        if num_channels is not None and channel >= num_channels:
            raise ValueError(
                f"link_schedule channel {channel} out of range "
                f"(network has {num_channels} channels)"
            )


def service_budgets(bandwidth: np.ndarray, cycle: int) -> np.ndarray:
    """Per-cycle integer service budget for (possibly fractional) bandwidths.

    Deterministic token-bucket discretization: in ``cycle`` channel ``c``
    may forward ``floor((cycle+1) * b_c) - floor(cycle * b_c)`` packets,
    so any window of ``T`` cycles serves within one packet of
    ``T * b_c`` — the fluid semantics heterogeneous (e.g. half-rate TSV)
    links need.  Integer bandwidths get exactly ``b_c`` every cycle, so
    the historical behaviour is unchanged.  The schedule is a pure
    function of ``(bandwidth, cycle)`` and draws no randomness, like
    everything in the service phase.
    """
    b = np.asarray(bandwidth, dtype=np.float64)
    # The epsilon absorbs accumulated float error for non-dyadic rates
    # (e.g. 0.1): without it floor() can land one ulp under a boundary
    # and misplace a service slot by one cycle.
    eps = 1e-9
    later = np.floor((cycle + 1) * b + eps)
    now = np.floor(cycle * b + eps)
    return (later - now).astype(np.int64)


def check_seed(seed) -> None:
    """Seeds key the counter stream as uint64."""
    if not 0 <= int(seed) < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulation run.

    ``warmup`` cycles are excluded from latency/throughput statistics;
    ``queue_capacity`` of ``None`` means unbounded (the paper's model).

    ``fault_schedule`` kills channels mid-run: each ``(cycle, channel)``
    entry marks ``channel`` dead at the *start* of ``cycle``.  Packets
    queued on a dying channel, and packets later routed onto a dead one,
    are counted in :attr:`SimulationResult.lost` — they leave the system
    without being delivered or dropped at a full queue.  Entries are
    normalized to a sorted, deduplicated tuple; killing an already-dead
    channel is a no-op.

    ``link_schedule`` makes channels *time-varying without loss*: each
    ``(cycle, channel, action)`` entry with action ``"down"`` parks the
    channel at the start of ``cycle`` (it serves no packets but keeps
    its queue and accepts enqueues) and ``"up"`` restores it — the
    periodic rotor-topology semantics (see :mod:`repro.rotor`).  A
    ``"down"`` never loses packets; kills always win over link state.

    Events scheduled at or past ``cycles`` are rejected up front (they
    used to be silent no-ops), as are contradictory link events for the
    same ``(cycle, channel)``.
    """

    cycles: int = 2000
    warmup: int = 500
    injection_rate: float = 0.4
    seed: int = 0
    queue_capacity: int | None = None
    fault_schedule: tuple[tuple[int, int], ...] = ()
    link_schedule: tuple[tuple[int, int, str], ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.injection_rate <= 1.0:
            raise ValueError("injection_rate must be in [0, 1]")
        check_seed(self.seed)
        if self.warmup >= self.cycles:
            raise ValueError("warmup must leave measurement cycles")
        object.__setattr__(
            self, "fault_schedule", normalize_fault_schedule(self.fault_schedule)
        )
        object.__setattr__(
            self, "link_schedule", normalize_link_schedule(self.link_schedule)
        )
        validate_channel_events(
            self.fault_schedule, self.link_schedule, self.cycles
        )


@dataclasses.dataclass(frozen=True)
class SimulationResult:
    """Measured behaviour of one run.

    ``accepted_rate`` counts measured-window ejections per node per
    cycle; ``mean_latency`` averages inject-to-eject delay of packets
    injected during the measurement window; ``backlog`` is the number of
    packets still queued at the end — the stability signal.

    ``offered_rate`` is the *effective* offered load: the configured
    injection rate minus the traffic-matrix diagonal mass, since
    self-addressed packets never enter the network.
    """

    injection_rate: float
    offered_rate: float
    accepted_rate: float
    mean_latency: float
    p99_latency: float
    delivered: int
    dropped: int
    backlog: int
    backlog_growth: int
    measurement_cycles: int
    mean_hops: float
    num_nodes: int
    #: deepest output queue observed over the whole run
    queue_peak: int = 0
    #: packets that entered the network (excludes self-addressed draws);
    #: conservation: injected == delivered + backlog + dropped + lost
    injected: int = 0
    #: packets destroyed by channel faults (queued on a dying channel,
    #: or routed onto a dead one) — see ``SimulationConfig.fault_schedule``
    lost: int = 0

    @property
    def stable(self) -> bool:
        """Heuristic stability verdict.

        A tiny final backlog is always stable (robust to Bernoulli noise
        at low loads).  Otherwise instability is judged by *backlog
        growth* across the measurement window: an oversubscribed channel
        accumulates packets linearly, while a stable system's queues are
        stationary.  Growth-based detection catches adversarial patterns
        that overload a single channel, which barely dent the aggregate
        accepted/offered ratio.
        """
        if self.backlog <= 2 * self.num_nodes:
            return True
        threshold = max(2 * self.num_nodes, self.measurement_cycles // 50)
        return self.backlog_growth <= threshold


def simulate(
    algorithm: ObliviousRouting,
    traffic: np.ndarray,
    config: SimulationConfig = SimulationConfig(),
    backend: str = DEFAULT_SIM_BACKEND,
) -> SimulationResult:
    """Run the output-queued model and measure throughput and latency.

    ``backend`` selects the kernel (see :data:`BACKENDS`, default
    :data:`repro.constants.DEFAULT_SIM_BACKEND`); both produce the same
    :class:`SimulationResult` schema and agree exactly on every packet
    count for the same seed.  Each run is one ``sim.run`` trace span
    carrying the measured cycles/deliveries/queue-peak/latency
    attributes.  A vectorized run is the one-replica case of
    :func:`repro.sim.vectorized.simulate_tables`: its ``sim.run`` (with
    ``backend="vectorized"``) is the one child of a ``sim.batch`` span.
    """
    _check_backend(backend)
    if backend == "vectorized":
        from repro.sim.vectorized import Replica, simulate_tables

        (result,) = simulate_tables(
            [(algorithm, traffic)],
            [Replica.from_config(config)],
            cycles=config.cycles,
            warmup=config.warmup,
            queue_capacity=config.queue_capacity,
            backend=backend,
        )
        return result
    with obs.span(
        "sim.run",
        rate=float(config.injection_rate),
        cycles=int(config.cycles),
        seed=int(config.seed),
    ) as sp:
        t0 = time.perf_counter()
        result = _simulate(algorithm, traffic, config)
        elapsed = time.perf_counter() - t0
        sp.set(**_span_attrs(result))
    _record_sim_metrics(result, config, elapsed, backend="reference")
    return result


def _span_attrs(result: SimulationResult) -> dict:
    """Measured ``sim.run`` span attributes (both backends use these)."""
    attrs = dict(
        delivered=result.delivered,
        dropped=result.dropped,
        lost=result.lost,
        accepted_rate=result.accepted_rate,
        backlog=result.backlog,
        queue_peak=result.queue_peak,
        stable=result.stable,
    )
    if np.isfinite(result.mean_latency):  # NaN is not valid JSON
        attrs.update(
            mean_latency=result.mean_latency,
            p99_latency=result.p99_latency,
        )
    return attrs


def _record_sim_metrics(result, config, elapsed: float, backend: str) -> None:
    """Registry metrics for one simulator run (both backends call this)."""
    obs.metric_count("sim.runs", backend=backend)
    obs.metric_count("sim.delivered", result.delivered, backend=backend)
    obs.metric_count("sim.dropped", result.dropped, backend=backend)
    obs.metric_count("sim.lost", result.lost, backend=backend)
    obs.metric_observe("sim.queue_peak", result.queue_peak, backend=backend)
    if elapsed > 0:
        obs.metric_gauge(
            "sim.cycles_per_second",
            int(config.cycles) / elapsed,
            volatile=True,
            backend=backend,
        )


def _simulate(
    algorithm: ObliviousRouting,
    traffic: np.ndarray,
    config: SimulationConfig,
) -> SimulationResult:
    net = algorithm.network
    validate_doubly_stochastic(traffic, tol=DISTRIBUTION_ATOL)
    queues: list[deque[Packet]] = [deque() for _ in range(net.num_channels)]
    integral = np.allclose(np.round(net.bandwidth), net.bandwidth)
    bandwidth = net.bandwidth.round().astype(np.int64) if integral else None

    # Path cache: sampling a fresh path per packet through the full
    # distribution is the semantics; caching per-pair choice CDFs keeps
    # it affordable.
    dist_cache: dict[tuple[int, int], tuple[list[tuple[int, ...]], np.ndarray]] = {}

    def sample_channels(s: int, d: int, u: float) -> tuple[int, ...]:
        key = (s, d)
        if key not in dist_cache:
            dist = algorithm.path_distribution(s, d)
            chans = [tuple(path_channels(net, p)) for p, _ in dist]
            probs = np.asarray([w for _, w in dist])
            cdf = (probs / probs.sum()).cumsum()
            cdf /= cdf[-1]
            dist_cache[key] = (chans, cdf)
        chans, cdf = dist_cache[key]
        return chans[int(np.searchsorted(cdf, u, side="right"))]

    uid = 0
    delivered = 0
    dropped = 0
    lost = 0
    latencies: list[int] = []
    hops: list[int] = []
    measured_ejections = 0

    # Channel kills by cycle; a dead channel destroys its queue at the
    # kill instant and every packet routed onto it afterwards (counted
    # in ``lost``, keeping the conservation identity exact).  Link
    # events, by contrast, only toggle the per-channel service budget:
    # a down channel holds its queue until the matching "up".
    validate_channel_events(
        config.fault_schedule,
        config.link_schedule,
        config.cycles,
        net.num_channels,
    )
    fault_by_cycle: dict[int, list[int]] = {}
    for kill_cycle, channel in config.fault_schedule:
        fault_by_cycle.setdefault(kill_cycle, []).append(channel)
    link_by_cycle: dict[int, list[tuple[int, str]]] = {}
    for ev_cycle, channel, action in config.link_schedule:
        link_by_cycle.setdefault(ev_cycle, []).append((channel, action))
    dead = np.zeros(net.num_channels, dtype=bool)
    down = np.zeros(net.num_channels, dtype=bool)

    n = net.num_nodes
    index = counter_index(np.arange(n)[:, None], np.arange(_NUM_SLOTS))
    cum_traffic = np.cumsum(traffic, axis=1)
    backlog_at_warmup = 0
    queue_peak = 0
    for cycle in range(config.cycles):
        for channel, action in link_by_cycle.get(cycle, ()):
            down[channel] = action == "down"
        for channel in fault_by_cycle.get(cycle, ()):
            if not dead[channel]:
                dead[channel] = True
                lost += len(queues[channel])
                queues[channel].clear()
        if cycle == config.warmup:
            backlog_at_warmup = sum(len(q) for q in queues)
        # 1. injection
        u = counter_uniforms(stream_keys(config.seed, cycle), index)
        for s in np.nonzero(u[:, SLOT_MASK] < config.injection_rate)[0]:
            d = int(np.searchsorted(cum_traffic[s], u[s, SLOT_DEST]))
            d = min(d, n - 1)
            if d == s:
                continue  # self-traffic never enters the network
            channels = sample_channels(int(s), d, u[s, SLOT_PATH])
            pkt = Packet(
                uid=uid, src=int(s), dst=d, channels=channels, inject_time=cycle
            )
            uid += 1
            if dead[channels[0]]:
                lost += 1
            elif (
                config.queue_capacity is not None
                and len(queues[channels[0]]) >= config.queue_capacity
            ):
                dropped += 1
            else:
                queues[channels[0]].append(pkt)

        # 2. service
        budget = (
            bandwidth
            if integral
            else service_budgets(net.bandwidth, cycle)
        )
        if down.any():
            budget = np.where(down, 0, budget)
        arrivals: list[tuple[int, Packet]] = []
        for c, q in enumerate(queues):
            if len(q) > queue_peak:
                queue_peak = len(q)
            for _ in range(budget[c]):
                if not q:
                    break
                pkt = q.popleft()
                pkt.hop += 1
                if pkt.remaining == 0:
                    delivered += 1
                    if pkt.inject_time >= config.warmup:
                        measured_ejections += 1
                        latencies.append(cycle - pkt.inject_time + 1)
                        hops.append(len(pkt.channels))
                else:
                    arrivals.append((pkt.channels[pkt.hop], pkt))
        for c, pkt in arrivals:
            if dead[c]:
                lost += 1
            elif (
                config.queue_capacity is not None
                and len(queues[c]) >= config.queue_capacity
            ):
                dropped += 1
            else:
                queues[c].append(pkt)

    backlog = sum(len(q) for q in queues)
    window = config.cycles - config.warmup
    stats = latency_stats(latencies, hops)
    effective = config.injection_rate * (1.0 - float(np.diag(traffic).mean()))
    return SimulationResult(
        injection_rate=config.injection_rate,
        offered_rate=effective,
        accepted_rate=measured_ejections / (window * n),
        mean_latency=stats.mean_latency,
        p99_latency=stats.p99_latency,
        delivered=delivered,
        dropped=dropped,
        backlog=backlog,
        backlog_growth=backlog - backlog_at_warmup,
        measurement_cycles=window,
        mean_hops=stats.mean_hops,
        num_nodes=n,
        queue_peak=queue_peak,
        injected=uid,
        lost=lost,
    )
