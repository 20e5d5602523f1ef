"""Vectorized struct-of-arrays simulation kernel.

This backend replays the *exact* stochastic process of the reference
per-packet loop in :mod:`repro.sim.network_sim` — same seeded RNG
stream, same output-queued FIFO arbitration — but holds every in-flight
packet in flat NumPy arrays and advances the whole population one cycle
at a time with array-wide updates.  The batch axis is the **replica**:
each :class:`Replica` is an independent ``(injection_rate, seed,
fault_schedule, link_schedule)`` tuple, so a whole (rate × seed × fault)
grid runs as one call — the per-``(s, d)`` path tables are compiled
once and the per-cycle work for all replicas shares the same vector
operations.  Per-replica ``dead``/``down`` channel masks let replicas
in the same launch carry *different* fault and link schedules, and
per-replica *table* indices let them route on different compiled path
tables: :meth:`VectorizedSimulator.stack` joins several ``(algorithm,
traffic)`` tables — different algorithms, traffic matrices or degraded
networks over the same nodes — so one launch can serve every case of a
sweep.  A one-table simulator is simply the one-table stack.

Path compile reads the routing's flat path table
(:meth:`~repro.routing.base.ObliviousRouting.path_table`, built once
per routing with array ops): a table's itineraries are one gather of
the rows of its traffic's support pairs, and only the choice CDF is
still built pair by pair, with the reference's float normalization
chain.  The reference simulator keeps calling ``path_distribution`` —
which every routing's table reproduces exactly — so the differential
suite checks the compile too.

Equivalence contract (enforced by ``tests/sim/test_differential.py``
and ``tests/sim/test_replicas.py``):

* **Injection** draws are consumed in the reference's order — one
  uniform vector per cycle for the Bernoulli mask, then per injecting
  node (ascending id) one uniform for the destination and, iff the
  pair's path distribution has more than one entry, one uniform for the
  path choice.  The kernel reproduces this interleaved stream without a
  per-packet Python loop: each replica over-draws one block per cycle
  (mask plus the per-injector maximum), destinations are decoded with
  a vectorized fixpoint (draw positions depend only on *predecessor*
  flags, so the iteration converges once the flags stabilize), and the
  generator then steps back over the draws the reference would not
  have consumed.
* **Arbitration** is deterministic: channels service their queues in
  channel-index order, FIFO within a queue, up to ``bandwidth`` packets
  per cycle; forwarded packets join their next queue in (forwarding
  channel, FIFO) order.  The kernel encodes this with a monotone
  enqueue-sequence number and one sort per cycle on the combined
  ``(queue, sequence)`` key — the tie-breaking contract documented in
  DESIGN.md ("Simulator backends").  Every replica owns a contiguous
  block of the flat queue space (as many queues as its table's network
  has channels), so replicas never share a queue and the cross-replica
  order of the sort is immaterial.

Given the same replica tuple the batched and individual runs therefore
agree *exactly* on every packet count, and bit-for-bit on the latency
sample (the differential suite asserts counts exactly and latency
percentiles within a tolerance to stay robust to summation order).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro import obs
from repro.constants import DEFAULT_SIM_BACKEND, DISTRIBUTION_ATOL
from repro.routing.base import ObliviousRouting
from repro.sim.network_sim import (
    SimulationConfig,
    SimulationResult,
    _check_backend,
    _record_sim_metrics,
    normalize_fault_schedule,
    normalize_link_schedule,
    service_budgets,
    simulate,
    validate_channel_events,
)
from repro.sim.stats import latency_stats
from repro.traffic.doubly_stochastic import validate_doubly_stochastic

log = obs.get_logger(__name__)

#: Columns of the in-flight packet array (struct of arrays as one 2-D
#: int64 block: one row per packet, compacted every cycle).  ``_QKEY``
#: is the packet's current queue in the flat queue space: its replica's
#: queue-block base plus the channel it waits on.
_REP, _QKEY, _SEQ, _POS, _END, _ITIME, _PLEN = range(7)
_NUM_COLS = 7

#: Bits reserved for the enqueue sequence in the combined sort key.  The
#: sequence counter is monotone per run and bounded by total enqueues,
#: far below 2**40.
_SEQ_BITS = 40

#: Period of the PCG64 state; advancing by ``_PCG64_PERIOD - k`` rewinds
#: a generator by ``k`` draws.
_PCG64_PERIOD = 1 << 128


@dataclasses.dataclass(frozen=True)
class Replica:
    """One independent simulation in a batched launch.

    A replica is the full stochastic identity of a run:
    ``(injection_rate, seed, fault_schedule, link_schedule)``, plus the
    index of the path table (in the launching simulator's stack) it
    routes on.  Replicas in one batch share the compiled path tables and
    the cycle loop but nothing stochastic — each owns a fresh
    ``default_rng(seed)`` and its own channel fault/link state — so its
    counts are draw-for-draw identical to an individual
    :func:`repro.sim.simulate` call with the same tuple on its table's
    ``(algorithm, traffic)``.
    """

    injection_rate: float
    seed: int = 0
    fault_schedule: tuple[tuple[int, int], ...] = ()
    link_schedule: tuple[tuple[int, int, str], ...] = ()
    table: int = 0

    def __post_init__(self):
        if not 0.0 <= self.injection_rate <= 1.0:
            raise ValueError("injection_rate must be in [0, 1]")
        if int(self.table) < 0:
            raise ValueError("table must be a nonnegative index")
        object.__setattr__(self, "injection_rate", float(self.injection_rate))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "table", int(self.table))
        object.__setattr__(
            self, "fault_schedule", normalize_fault_schedule(self.fault_schedule)
        )
        object.__setattr__(
            self, "link_schedule", normalize_link_schedule(self.link_schedule)
        )

    @classmethod
    def from_config(cls, config: SimulationConfig) -> "Replica":
        return cls(
            injection_rate=config.injection_rate,
            seed=config.seed,
            fault_schedule=config.fault_schedule,
            link_schedule=config.link_schedule,
        )

    def to_config(
        self, cycles: int, warmup: int, queue_capacity: int | None = None
    ) -> SimulationConfig:
        return SimulationConfig(
            cycles=cycles,
            warmup=warmup,
            injection_rate=self.injection_rate,
            seed=self.seed,
            queue_capacity=queue_capacity,
            fault_schedule=self.fault_schedule,
            link_schedule=self.link_schedule,
        )


def replica_grid(
    rates, seeds, fault_schedule=(), link_schedule=()
) -> list[Replica]:
    """The (rate × seed) cross product as a rate-major replica list,
    every replica carrying the same schedules."""
    return [
        Replica(float(r), int(s), fault_schedule, link_schedule)
        for r in rates
        for s in seeds
    ]


def _as_replicas(replicas) -> list[Replica]:
    return [r if isinstance(r, Replica) else Replica(*r) for r in replicas]


def _queue_ranks(qkey_sorted: np.ndarray) -> np.ndarray:
    """Position of each entry within its run of equal (sorted) keys."""
    size = qkey_sorted.shape[0]
    head = np.empty(size, dtype=bool)
    head[0] = True
    head[1:] = qkey_sorted[1:] != qkey_sorted[:-1]
    idx = np.arange(size)
    return idx - idx[head][np.cumsum(head) - 1]


def _pop_selection(
    qkey: np.ndarray, seq: np.ndarray, budgets: np.ndarray
) -> np.ndarray:
    """Indices of the packets popped this cycle (``qkey`` non-empty).

    One sort on the combined ``(queue, sequence)`` key, then each
    queue's first ``budgets[q]`` packets in FIFO order — the reference
    arbitration contract (channel-index order across queues, FIFO
    within).  Emission order is the sorted order, which the cycle loop
    relies on for deterministic downstream processing.
    """
    order = np.argsort((qkey << _SEQ_BITS) | seq)
    q_sorted = qkey[order]
    return order[_queue_ranks(q_sorted) < budgets[q_sorted]]


def _arrival_keep(qkey: np.ndarray, occ: np.ndarray, cap: int) -> np.ndarray:
    """Boolean mask of forwarded packets that fit their next queue.

    Arrival order per queue decides who fills the remaining
    ``cap - occ[q]`` slots, exactly as the reference's sequential
    appends do — hence the stable sort on the queue key alone.
    """
    order = np.argsort(qkey, kind="stable")
    q_sorted = qkey[order]
    keep = np.empty(qkey.shape[0], dtype=bool)
    keep[order] = _queue_ranks(q_sorted) < (cap - occ[q_sorted])
    return keep


class VectorizedSimulator:
    """Compiled path tables for one or more ``(algorithm, traffic)`` pairs.

    Compilation materializes, for every drawable source/destination
    pair, the reference simulator's cached path distribution: the
    per-path channel itineraries (sliced from the routing's path table
    into one flat array) and the choice CDF (replicating the exact float
    normalization the reference feeds to ``Generator.choice``).  The tables are reused across every
    :meth:`run`/:meth:`run_replicas` call, which is what amortizes setup
    over a rate sweep, a seed ensemble, or a saturation bisection.

    Constructed from one pair, the simulator holds one table;
    :meth:`stack` joins several simulators' tables, offsetting path ids,
    pair keys and traffic rows per table, so a single launch can mix
    replicas of different algorithms, traffic matrices and degraded
    networks (with different channel counts).  All tables of a stack
    share one node count.
    """

    def __init__(self, algorithm: ObliviousRouting, traffic: np.ndarray):
        net = algorithm.network
        validate_doubly_stochastic(traffic, tol=DISTRIBUTION_ATOL)
        traffic = np.asarray(traffic, dtype=np.float64)
        n = int(net.num_nodes)
        self.num_nodes = n
        self._tables = [(algorithm, traffic)]
        self._num_channels = np.asarray([net.num_channels], dtype=np.int64)
        self._chan_off = np.zeros(1, dtype=np.int64)
        # Integral bandwidths use a constant per-cycle budget; fractional
        # ones (heterogeneous Z-slowdown links) go through the shared
        # token-bucket schedule every cycle — see ``service_budgets``.
        # Stored per channel so stacked tables keep their own mode.
        self._bw_exact = np.asarray(net.bandwidth, dtype=np.float64)
        self._bw_round = self._bw_exact.round().astype(np.int64)
        self._bw_integral = np.full(
            self._bw_exact.size, np.allclose(self._bw_round, self._bw_exact)
        )
        self._diag_mean = np.asarray([np.diag(traffic).mean()])
        # Destination decode counts the CDF entries below the draw; the
        # +inf last column caps the count at n - 1, like the reference.
        self._cum_traffic = np.cumsum(traffic, axis=1)
        self._cum_traffic[:, -1] = np.inf

        n2 = n * n
        # Pair keys are ``table * n**2 + s * n + d``.  -1 marks an
        # uncompiled pair; self-pairs have the single zero-hop path and
        # never consume a path draw.
        self._npaths = np.full(n2, -1, dtype=np.int64)
        self._npaths[np.arange(n) * (n + 1)] = 1
        self._pair_base = np.full(n2, -1, dtype=np.int64)
        # Path itineraries are int32: they dominate a table's footprint.
        self._path_start = np.zeros(0, dtype=np.int32)
        self._path_len = np.zeros(0, dtype=np.int32)
        self._chan_flat = np.zeros(0, dtype=np.int32)
        self._cdf = np.full((n2, 1), np.inf)

        support = np.argwhere(traffic > 0.0)
        pairs = [(int(s), int(d)) for s, d in support if s != d]
        with obs.span(
            "sim.compile", algorithm=algorithm.name, pairs=len(pairs)
        ) as sp:
            self._compile_pairs(0, pairs)
            sp.set(
                paths=int(self._path_len.size),
                channel_entries=int(self._chan_flat.size),
            )
        # Starting guess for the injection-decode fixpoint, per source:
        # 2 draws if its packet more likely than not picks a multi-path
        # destination, else 1.  The fixpoint's solution does not depend
        # on the guess; a good one only saves iterations.
        multi = self._npaths.reshape(n, n) > 1
        self._guess = 1 + ((traffic * multi).sum(axis=1) > 0.5).astype(np.int64)

    @classmethod
    def stack(cls, sims) -> "VectorizedSimulator":
        """One simulator over every table of ``sims``, in order.

        Table ``j`` of the result is the ``j``-th table across ``sims``.
        The compiled arrays are copied with per-table offsets — nothing
        is recompiled, and pairs compiled lazily later land in the stack
        only.  A single simulator stacks to itself.
        """
        sims = list(sims)
        if not sims:
            raise ValueError("stack needs at least one simulator")
        if len(sims) == 1:
            return sims[0]
        n = sims[0].num_nodes
        if any(s.num_nodes != n for s in sims):
            raise ValueError("stacked path tables must share a node count")
        out = cls.__new__(cls)
        out.num_nodes = n
        out._tables = [t for s in sims for t in s._tables]
        out._num_channels = np.concatenate([s._num_channels for s in sims])
        out._chan_off = np.concatenate(
            ([0], np.cumsum(out._num_channels)[:-1])
        ).astype(np.int64)
        for name in (
            "_bw_exact", "_bw_round", "_bw_integral", "_diag_mean",
            "_cum_traffic", "_guess", "_npaths", "_path_len", "_chan_flat",
        ):
            setattr(out, name, np.concatenate([getattr(s, name) for s in sims]))
        path_off = np.cumsum([0] + [s._path_len.size for s in sims])
        entry_off = np.cumsum([0] + [s._chan_flat.size for s in sims])
        out._pair_base = np.concatenate(
            [
                np.where(s._pair_base >= 0, s._pair_base + off, -1)
                for s, off in zip(sims, path_off)
            ]
        )
        out._path_start = np.concatenate(
            [s._path_start + int(off) for s, off in zip(sims, entry_off)]
        )
        width = max(s._cdf.shape[1] for s in sims)
        out._cdf = np.concatenate(
            [
                np.pad(
                    s._cdf,
                    ((0, 0), (0, width - s._cdf.shape[1])),
                    constant_values=np.inf,
                )
                for s in sims
            ]
        )
        return out

    # ------------------------------------------------------------------
    # Path-table compilation
    # ------------------------------------------------------------------
    def _compile_pairs(self, table: int, pairs: list[tuple[int, int]]) -> None:
        """Build ``table``'s entries for ``pairs`` (skipping compiled ones)."""
        algorithm = self._tables[table][0]
        n = self.num_nodes
        off = table * n * n
        todo = [
            (s, d) for s, d in pairs if self._npaths[off + s * n + d] < 0
        ]
        if not todo:
            return
        rows = np.asarray([s * n + d for s, d in todo], dtype=np.int64)
        paths = algorithm.path_table().take_rows(rows)
        counts = paths.row_counts
        if not counts.all():
            s, d = todo[int(np.argmin(counts))]
            algorithm.path_distribution(s, d)  # raises the routing's reason
            raise ValueError(f"{algorithm.name} has no path for ({s}, {d})")
        cdfs = []
        for lo, hi in zip(paths.row_ptr[:-1].tolist(), paths.row_ptr[1:].tolist()):
            # Replicate the reference's normalization chain exactly:
            # dist_cache stores probs / probs.sum(); Generator.choice
            # then uses cdf = p.cumsum(); cdf /= cdf[-1].
            probs = paths.prob[lo:hi]
            probs = probs / probs.sum()
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            cdfs.append(cdf)

        keys = off + rows
        self._pair_base[keys] = self._path_len.size + paths.row_ptr[:-1]
        self._npaths[keys] = counts
        self._path_start = np.concatenate(
            [
                self._path_start,
                (self._chan_flat.size + paths.chan_ptr[:-1]).astype(np.int32),
            ]
        )
        self._path_len = np.concatenate(
            [self._path_len, np.diff(paths.chan_ptr).astype(np.int32)]
        )
        self._chan_flat = np.concatenate(
            [self._chan_flat, paths.channels.astype(np.int32)]
        )
        width = max(self._cdf.shape[1], int(counts.max()))
        if width > self._cdf.shape[1]:
            grown = np.full((self._cdf.shape[0], width), np.inf)
            grown[:, : self._cdf.shape[1]] = self._cdf
            self._cdf = grown
        for key, count, cdf in zip(keys.tolist(), counts.tolist(), cdfs):
            self._cdf[key, :count] = cdf
            self._cdf[key, count:] = np.inf

    def _ensure_pairs(self, keys: np.ndarray) -> None:
        """Lazily compile pairs hit by a boundary draw (zero-traffic
        destinations are reachable only when a uniform lands exactly on
        a CDF step — measure zero, but the reference routes them).
        Each missing pair compiles into its own table."""
        need = self._npaths[keys] < 0
        if need.any():
            n = self.num_nodes
            missing = np.unique(keys[need])
            log.debug("lazy-compiling %d off-support pairs", missing.size)
            tables, local = np.divmod(missing, n * n)
            for table in np.unique(tables):
                self._compile_pairs(
                    int(table),
                    [(int(k) // n, int(k) % n) for k in local[tables == table]],
                )

    # ------------------------------------------------------------------
    # Injection decoding (exact RNG-stream replay)
    # ------------------------------------------------------------------
    def _decode_injections(self, draws, rep_idx, srcs, rep_table):
        """Decode this cycle's injections from the replicas' draws.

        ``draws[i]`` holds replica ``i``'s uniforms for this cycle: the
        ``n`` Bernoulli-mask draws, then an over-drawn block of ``2 n``
        (two per injector at most).  ``(rep_idx, srcs)`` lists the
        injecting nodes, grouped by replica, ascending within one.
        Returns per-packet arrays (replica index, source, destination,
        global path id) covering every decoded draw — including
        self-addressed ones (``dst == src``), which the caller filters
        out exactly like the reference's ``continue`` — and the number
        of block draws each replica really consumed.
        """
        n = self.num_nodes
        consumed = np.zeros(draws.shape[0], dtype=np.int64)
        m_total = srcs.size
        if m_total == 0:
            empty = np.zeros(0, np.int64)
            return empty, empty, empty, empty, consumed
        # Index of each injector's replica-segment start.
        head = np.empty(m_total, dtype=bool)
        head[0] = True
        head[1:] = rep_idx[1:] != rep_idx[:-1]
        seg_start = np.flatnonzero(head)
        start_of = seg_start[np.cumsum(head) - 1]
        flat = draws.reshape(-1)
        block = rep_idx * draws.shape[1] + n

        rows = rep_table[rep_idx] * n + srcs
        cum_rows = self._cum_traffic[rows]
        pair_row = rows * n
        # g counts each injector's draws: 2 iff its pair is multi-path
        # (self-pairs have one path, so they count 1).  Draw positions
        # depend only on *predecessor* counts, so the iteration
        # converges once the counts stabilize.
        g = self._guess[rows]
        for _ in range(m_total + 1):
            p_excl = np.cumsum(g) - g
            p_local = p_excl - p_excl[start_of]
            u1 = flat[block + p_local]
            dsts = np.count_nonzero(cum_rows < u1[:, None], axis=1)
            keys = pair_row + dsts
            npaths = self._npaths[keys]
            if npaths.min() < 0:
                self._ensure_pairs(keys)
                npaths = self._npaths[keys]
            g_new = 1 + (npaths > 1)
            if not (g_new != g).any():
                break
            g = g_new
        else:  # pragma: no cover - the fixpoint provably converges
            raise AssertionError("injection decode did not converge")

        # Path choice for multi-path pairs (one more uniform each).
        pidx = np.zeros(m_total, dtype=np.int64)
        multi = g == 2
        if multi.any():
            u2 = flat[(block + p_local + 1)[multi]]
            pidx[multi] = (
                self._cdf[keys[multi]] <= u2[:, None]
            ).sum(axis=1)

        consumed[rep_idx[seg_start]] = np.add.reduceat(g, seg_start)
        gpid = np.where(
            dsts != srcs, self._pair_base[keys] + pidx, -1
        )
        return rep_idx, srcs, dsts, gpid, consumed

    # ------------------------------------------------------------------
    # Batched cycle loop
    # ------------------------------------------------------------------
    def run_replicas(
        self,
        replicas,
        cycles: int = 2000,
        warmup: int = 500,
        queue_capacity: int | None = None,
    ) -> list[SimulationResult]:
        """Run every replica in one batched cycle loop.

        Each replica is an independent copy of the reference process —
        fresh ``default_rng(seed)``, its own queues, and its *own*
        ``dead``/``down`` channel masks, so replicas may carry different
        fault and link schedules in the same launch, and route on
        different tables of a :meth:`stack`.  The replicas share each
        cycle's vector operations, so the per-cycle cost is nearly flat
        in the batch size.  A replica's ``fault_schedule`` kills
        channels mid-run in that replica only (the reference semantics:
        queued packets and later arrivals on a dead channel are counted
        in its ``lost``); its ``link_schedule`` toggles per-channel
        service on and off losslessly (the rotor semantics — down
        channels hold their queues).  Both are RNG-free, so the
        draw-for-draw contract with individual runs is untouched.
        """
        replicas = _as_replicas(replicas)
        if warmup >= cycles:
            raise ValueError("warmup must leave measurement cycles")
        num_reps = len(replicas)
        if num_reps == 0:
            return []

        n = self.num_nodes
        rep_table = np.asarray([rep.table for rep in replicas], dtype=np.int64)
        if rep_table.max() >= len(self._tables):
            raise ValueError(
                f"replica table {int(rep_table.max())} out of range "
                f"({len(self._tables)} tables)"
            )
        # Replica i owns queues qbase[i] .. qbase[i] + (its channels) - 1;
        # bw_index maps each queue to its entry in the stacked per-table
        # channel arrays.
        rep_chans = self._num_channels[rep_table]
        qbase = np.concatenate(([0], np.cumsum(rep_chans)[:-1]))
        nq = int(rep_chans.sum())
        bw_index = np.arange(nq) + np.repeat(
            self._chan_off[rep_table] - qbase, rep_chans
        )
        integral = bool(self._bw_integral[bw_index].all())
        cap = queue_capacity
        rngs = [np.random.default_rng(rep.seed) for rep in replicas]
        rate_arr = np.asarray([rep.injection_rate for rep in replicas])
        # Each cycle every replica draws its n mask uniforms plus 2 n
        # for injections in one call, then steps its generator back over
        # the block draws it did not consume, so the next cycle's draws
        # stay stream-aligned with the reference.  A ``default_rng``
        # (PCG64) double is one generator step, and advancing by
        # 2**128 - k steps back by k.
        draws = np.empty((num_reps, 3 * n))

        # Schedules index the *flattened* (replica, channel) queue space,
        # so one pair of masks carries every replica's channel state.
        fault_by_cycle: dict[int, list[int]] = {}
        link_by_cycle: dict[int, list[tuple[int, str]]] = {}
        for i, rep in enumerate(replicas):
            validate_channel_events(
                rep.fault_schedule, rep.link_schedule, cycles, int(rep_chans[i])
            )
            base = int(qbase[i])
            for kill_cycle, channel in rep.fault_schedule:
                fault_by_cycle.setdefault(int(kill_cycle), []).append(
                    base + int(channel)
                )
            for ev_cycle, channel, action in rep.link_schedule:
                link_by_cycle.setdefault(int(ev_cycle), []).append(
                    (base + int(channel), action)
                )
        dead = np.zeros(nq, dtype=bool)
        down = np.zeros(nq, dtype=bool)
        any_down = False

        packets = np.zeros((0, _NUM_COLS), dtype=np.int64)
        occ = np.zeros(nq, dtype=np.int64)
        seq_counter = 0
        injected = np.zeros(num_reps, dtype=np.int64)
        delivered = np.zeros(num_reps, dtype=np.int64)
        measured = np.zeros(num_reps, dtype=np.int64)
        dropped = np.zeros(num_reps, dtype=np.int64)
        lost = np.zeros(num_reps, dtype=np.int64)
        backlog_at_warmup = np.zeros(num_reps, dtype=np.int64)
        queue_peak = np.zeros(num_reps, dtype=np.int64)
        lat_blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        if integral:
            bw_by_queue = self._bw_round[bw_index]

        for cycle in range(cycles):
            events = link_by_cycle.get(cycle)
            if events:
                for flat_key, action in events:
                    down[flat_key] = action == "down"
                any_down = bool(down.any())
            kills = fault_by_cycle.get(cycle)
            if kills:
                # Kill before the warmup snapshot, like the reference:
                # mark dead, destroy that replica's queued packets.
                dead[kills] = True
                if packets.shape[0]:
                    p_qkey = packets[:, _QKEY]
                    doomed = dead[p_qkey]
                    if doomed.any():
                        lost += np.bincount(
                            packets[doomed, _REP], minlength=num_reps
                        )
                        occ -= np.bincount(p_qkey[doomed], minlength=nq)
                        packets = packets[~doomed]
            if cycle == warmup:
                backlog_at_warmup = np.bincount(
                    packets[:, _REP], minlength=num_reps
                )

            # -- phase 1: injection -------------------------------------
            for rng, row in zip(rngs, draws):
                rng.random(out=row)
            rep_idx, srcs = np.nonzero(draws[:, :n] < rate_arr[:, None])
            seg_id, srcs, dsts, gpid, consumed = self._decode_injections(
                draws, rep_idx, srcs, rep_table
            )
            for rng, unused in zip(rngs, (2 * n - consumed).tolist()):
                if unused:
                    rng.bit_generator.advance(_PCG64_PERIOD - unused)
            sel = dsts != srcs
            if sel.any():
                p_rep = seg_id[sel]
                p_gpid = gpid[sel]
                injected += np.bincount(p_rep, minlength=num_reps)
                pos = self._path_start[p_gpid]
                plen = self._path_len[p_gpid]
                qkey = qbase[p_rep] + self._chan_flat[pos]
                dead0 = dead[qkey]
                if dead0.any():
                    # Dead first hop loses the packet before any
                    # capacity check, as the reference does.
                    lost += np.bincount(
                        p_rep[dead0], minlength=num_reps
                    )
                    keep0 = ~dead0
                    p_rep, pos, plen = p_rep[keep0], pos[keep0], plen[keep0]
                    qkey = qkey[keep0]
                if cap is not None:
                    full = occ[qkey] >= cap
                    if full.any():
                        dropped += np.bincount(
                            p_rep[full], minlength=num_reps
                        )
                        keep = ~full
                        p_rep, pos, plen = p_rep[keep], pos[keep], plen[keep]
                        qkey = qkey[keep]
                count = p_rep.size
                if count:
                    block = np.empty((count, _NUM_COLS), dtype=np.int64)
                    block[:, _REP] = p_rep
                    block[:, _QKEY] = qkey
                    block[:, _SEQ] = seq_counter + np.arange(count)
                    seq_counter += count
                    block[:, _POS] = pos
                    block[:, _END] = pos + plen
                    block[:, _ITIME] = cycle
                    block[:, _PLEN] = plen
                    packets = np.concatenate([packets, block])
                    occ += np.bincount(qkey, minlength=nq)

            np.maximum(
                queue_peak, np.maximum.reduceat(occ, qbase), out=queue_peak
            )

            # -- phase 2: service ---------------------------------------
            size = packets.shape[0]
            if size == 0:
                continue
            if not integral:
                bw_by_queue = np.where(
                    self._bw_integral,
                    self._bw_round,
                    service_budgets(self._bw_exact, cycle),
                )[bw_index]
            if any_down:
                # Down queues serve nothing this cycle; their packets
                # (and the replicas' RNG history) are untouched.
                bw_cycle = np.where(down, 0, bw_by_queue)
            else:
                bw_cycle = bw_by_queue
            qkey = packets[:, _QKEY]
            popped = _pop_selection(qkey, packets[:, _SEQ], bw_cycle)
            if popped.size == 0:
                continue
            occ -= np.bincount(qkey[popped], minlength=nq)

            new_pos = packets[popped, _POS] + 1
            done = new_pos == packets[popped, _END]
            ejected = popped[done]
            if ejected.size:
                delivered += np.bincount(
                    packets[ejected, _REP], minlength=num_reps
                )
                in_window = packets[ejected, _ITIME] >= warmup
                hit = ejected[in_window]
                if hit.size:
                    measured += np.bincount(
                        packets[hit, _REP], minlength=num_reps
                    )
                    # int32 halves the sample's footprint in big
                    # batches; latency_stats reads it as float anyway.
                    lat_blocks.append(
                        (
                            packets[hit, _REP].astype(np.int32),
                            (cycle + 1 - packets[hit, _ITIME]).astype(np.int32),
                            packets[hit, _PLEN].astype(np.int32),
                        )
                    )

            movers = popped[~done]
            drop_idx = np.zeros(0, dtype=np.int64)
            lost_idx = np.zeros(0, dtype=np.int64)
            if movers.size:
                packets[movers, _POS] = new_pos[~done]
                m_qkey = (
                    qbase[packets[movers, _REP]]
                    + self._chan_flat[packets[movers, _POS]]
                )
                m_dead = dead[m_qkey]
                if m_dead.any():
                    # Dead next hop loses the packet before the
                    # capacity ranking — it never contends for a slot.
                    lost_idx = movers[m_dead]
                    lost += np.bincount(
                        packets[lost_idx, _REP], minlength=num_reps
                    )
                    movers = movers[~m_dead]
                    m_qkey = m_qkey[~m_dead]
                keep = np.ones(movers.size, dtype=bool)
                if cap is not None and movers.size:
                    # Arrival order per queue decides who fills the
                    # remaining capacity, exactly as the reference's
                    # sequential appends do.
                    keep = _arrival_keep(m_qkey, occ, cap)
                    drop_idx = movers[~keep]
                    if drop_idx.size:
                        dropped += np.bincount(
                            packets[drop_idx, _REP], minlength=num_reps
                        )
                kept = movers[keep]
                if kept.size:
                    packets[kept, _QKEY] = m_qkey[keep]
                    packets[kept, _SEQ] = seq_counter + np.arange(kept.size)
                    seq_counter += kept.size
                    occ += np.bincount(
                        m_qkey[keep], minlength=nq
                    )

            if ejected.size or drop_idx.size or lost_idx.size:
                keep_mask = np.ones(size, dtype=bool)
                keep_mask[ejected] = False
                keep_mask[drop_idx] = False
                keep_mask[lost_idx] = False
                packets = packets[keep_mask]

        # -- results --------------------------------------------------
        backlog = np.bincount(packets[:, _REP], minlength=num_reps)
        if lat_blocks:
            lat_rep = np.concatenate([b[0] for b in lat_blocks])
            lat_val = np.concatenate([b[1] for b in lat_blocks])
            lat_hops = np.concatenate([b[2] for b in lat_blocks])
        else:
            lat_rep = lat_val = lat_hops = np.zeros(0, dtype=np.int64)
        window = cycles - warmup
        results = []
        for i, rep in enumerate(replicas):
            mine = lat_rep == i
            stats = latency_stats(lat_val[mine], lat_hops[mine])
            diag_mean = float(self._diag_mean[rep.table])
            results.append(
                SimulationResult(
                    injection_rate=rep.injection_rate,
                    offered_rate=rep.injection_rate * (1.0 - diag_mean),
                    accepted_rate=int(measured[i]) / (window * n),
                    mean_latency=stats.mean_latency,
                    p99_latency=stats.p99_latency,
                    delivered=int(delivered[i]),
                    dropped=int(dropped[i]),
                    backlog=int(backlog[i]),
                    backlog_growth=int(backlog[i] - backlog_at_warmup[i]),
                    measurement_cycles=window,
                    mean_hops=stats.mean_hops,
                    num_nodes=n,
                    queue_peak=int(queue_peak[i]),
                    injected=int(injected[i]),
                    lost=int(lost[i]),
                )
            )
        return results

    def run(
        self, config: SimulationConfig = SimulationConfig()
    ) -> SimulationResult:
        """Run one rate point (a single-replica :meth:`run_replicas`)."""
        (result,) = self.run_replicas(
            [Replica.from_config(config)],
            cycles=config.cycles,
            warmup=config.warmup,
            queue_capacity=config.queue_capacity,
        )
        return result


# ----------------------------------------------------------------------
# Compiled-simulator cache and entry points
# ----------------------------------------------------------------------
#: Attribute under which an algorithm object keeps its compiled
#: simulators (traffic digest -> VectorizedSimulator).  Living on the
#: algorithm, the tables die with it; a simulator references its
#: algorithm, so a weak-keyed module cache would keep both alive forever.
_SIM_CACHE_ATTR = "_compiled_simulators"


def compiled_simulator(
    algorithm: ObliviousRouting, traffic: np.ndarray
) -> VectorizedSimulator:
    """Get (or build) the compiled simulator for ``(algorithm, traffic)``.

    The cache is what lets ``saturation_throughput`` reuse one set of
    path tables across every bisection probe.
    """
    per_alg = vars(algorithm).setdefault(_SIM_CACHE_ATTR, {})
    digest = hash(np.asarray(traffic, dtype=np.float64).tobytes())
    sim = per_alg.get(digest)
    if sim is None:
        sim = VectorizedSimulator(algorithm, traffic)
        per_alg[digest] = sim
    return sim


def _span_attrs(result: SimulationResult) -> dict:
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


def _emit_replica_spans(
    replicas, results, elapsed: float, cycles: int, warmup: int
) -> None:
    """Per-replica ``sim.run`` spans and registry metrics for one batch.

    The batch's wall time is split evenly across replicas — the batched
    loop advances every replica in the same vector operations, so no
    truer per-replica attribution exists.
    """
    tracer = obs.get_tracer()
    share = elapsed / len(replicas) if replicas else 0.0
    for rep, result in zip(replicas, results):
        attrs = dict(
            rate=float(rep.injection_rate),
            cycles=int(cycles),
            seed=int(rep.seed),
            backend="vectorized",
        )
        attrs.update(_span_attrs(result))
        tracer.emit_span("sim.run", dur=share, attrs=attrs)
        _record_sim_metrics(
            result,
            SimulationConfig(
                injection_rate=rep.injection_rate,
                cycles=cycles,
                warmup=warmup,
                seed=rep.seed,
            ),
            share,
            backend="vectorized",
        )


def simulate_tables(
    tables,
    replicas,
    cycles: int = 2000,
    warmup: int = 500,
    queue_capacity: int | None = None,
    backend: str = DEFAULT_SIM_BACKEND,
) -> list[SimulationResult]:
    """Run a replica batch over several ``(algorithm, traffic)`` tables.

    ``tables`` is a sequence of ``(algorithm, traffic)`` pairs over one
    node set; each replica's ``table`` field indexes it.  The
    ``vectorized`` backend stacks the pairs' cached compiled tables
    (one ``sim.compile`` per pair, ever) and runs the whole batch as one
    kernel launch inside a ``sim.batch`` span with replica-count-labeled
    metrics; ``reference`` runs each replica as an individual per-packet
    ``simulate`` call on its own pair — the differential oracle for the
    batched kernel.  Results come back in replica order.
    """
    _check_backend(backend)
    tables = list(tables)
    replicas = _as_replicas(replicas)
    if backend == "reference":
        return [
            simulate(
                *tables[rep.table],
                rep.to_config(cycles, warmup, queue_capacity),
                backend="reference",
            )
            for rep in replicas
        ]
    sim = VectorizedSimulator.stack(
        [compiled_simulator(alg, traffic) for alg, traffic in tables]
    )
    with obs.span(
        "sim.batch",
        replicas=len(replicas),
        tables=len(tables),
        cycles=int(cycles),
        backend=backend,
    ):
        start = time.perf_counter()
        results = sim.run_replicas(
            replicas,
            cycles=cycles,
            warmup=warmup,
            queue_capacity=queue_capacity,
        )
        elapsed = time.perf_counter() - start
        _emit_replica_spans(replicas, results, elapsed, cycles, warmup)
    obs.metric_count("sim.batches", backend=backend, replicas=len(replicas))
    obs.metric_count("sim.replicas", len(replicas), backend=backend)
    return results


def simulate_replicas(
    algorithm: ObliviousRouting,
    traffic: np.ndarray,
    replicas,
    cycles: int = 2000,
    warmup: int = 500,
    queue_capacity: int | None = None,
    backend: str = DEFAULT_SIM_BACKEND,
) -> list[SimulationResult]:
    """Run an arbitrary replica batch on one ``(algorithm, traffic)``
    pair — one kernel launch on the vectorized backend.

    ``replicas`` is a sequence of :class:`Replica` (or raw tuples fed to
    its constructor); results come back in the same order.  This is the
    one-table case of :func:`simulate_tables`.
    """
    return simulate_tables(
        [(algorithm, traffic)],
        replicas,
        cycles=cycles,
        warmup=warmup,
        queue_capacity=queue_capacity,
        backend=backend,
    )


def simulate_vectorized(
    algorithm: ObliviousRouting,
    traffic: np.ndarray,
    config: SimulationConfig = SimulationConfig(),
) -> SimulationResult:
    """Vectorized-backend counterpart of :func:`repro.sim.simulate`.

    Emits the same ``sim.run`` span (plus ``backend=...``) so traces and
    ``obs-report`` rows keep one schema across backends.
    """
    with obs.span(
        "sim.run",
        rate=float(config.injection_rate),
        cycles=int(config.cycles),
        seed=int(config.seed),
        backend="vectorized",
    ) as sp:
        t0 = time.perf_counter()
        result = compiled_simulator(algorithm, traffic).run(config)
        elapsed = time.perf_counter() - t0
        sp.set(**_span_attrs(result))
    _record_sim_metrics(result, config, elapsed, backend="vectorized")
    return result


def sweep_vectorized(
    algorithm: ObliviousRouting,
    traffic: np.ndarray,
    rates,
    cycles: int = 2000,
    warmup: int = 500,
    seed: int = 0,
    queue_capacity: int | None = None,
    fault_schedule: tuple[tuple[int, int], ...] = (),
    link_schedule: tuple[tuple[int, int, str], ...] = (),
) -> list[SimulationResult]:
    """Batched offered-rate sweep (one compiled kernel, all rates).

    The rate axis is the degenerate replica batch where every replica
    shares one seed and one pair of schedules; see
    :func:`simulate_replicas` for the general (rate × seed × fault)
    grid.  Per-rate ``sim.run`` spans are emitted with the sweep's wall
    time split evenly across rates.
    """
    replicas = [
        Replica(float(r), seed, fault_schedule, link_schedule) for r in rates
    ]
    with obs.span(
        "sim.sweep",
        points=len(replicas),
        cycles=int(cycles),
        seed=int(seed),
        backend="vectorized",
    ):
        start = time.perf_counter()
        results = compiled_simulator(algorithm, traffic).run_replicas(
            replicas,
            cycles=cycles,
            warmup=warmup,
            queue_capacity=queue_capacity,
        )
        elapsed = time.perf_counter() - start
        _emit_replica_spans(replicas, results, elapsed, cycles, warmup)
    return results
