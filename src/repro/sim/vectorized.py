"""Vectorized struct-of-arrays simulation kernel.

This backend runs the stochastic process of the reference per-packet
loop in :mod:`repro.sim.network_sim` — same counter-based uniforms,
same output-queued FIFO arbitration — but holds every in-flight packet
in flat NumPy arrays and advances the whole population one cycle at a
time with array-wide updates.  The batch axis is the **replica**: each
:class:`Replica` is an independent ``(injection_rate, seed,
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
the rows of its traffic's support pairs, and its choice CDFs are one
padded block (:func:`choice_cdfs`) equal bit for bit to the reference's
per-pair float chain.  The reference simulator keeps calling
``path_distribution`` — which every routing's table reproduces exactly
— so the differential suite checks the compile too.

Equivalence contract (enforced by ``tests/sim/test_differential.py``
and ``tests/sim/test_replicas.py``):

* **Injection** reads one stateless uniform per ``(seed, cycle, node,
  slot)`` (:func:`~repro.sim.network_sim.counter_uniforms`): slot 0
  decides the Bernoulli injection, slot 1 the destination (a left
  ``searchsorted`` on the traffic row's cumulative sum) and slot 2 the
  path (a right ``searchsorted`` on the pair's choice CDF).  Both
  backends read the same counters, so there is no draw order to
  replay: the kernel decodes every replica's injections in one array
  pass, with nothing over-drawn and no generator to rewind.
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
    SLOT_DEST,
    SLOT_MASK,
    SLOT_PATH,
    UNIFORM_BITS,
    SimulationConfig,
    SimulationResult,
    _check_backend,
    _record_sim_metrics,
    _span_attrs,
    check_seed,
    counter_bits,
    counter_index,
    counter_uniforms,
    normalize_fault_schedule,
    normalize_link_schedule,
    service_budgets,
    simulate,
    stream_keys,
    validate_channel_events,
)
from repro.sim.stats import latency_stats
from repro.traffic.doubly_stochastic import validate_doubly_stochastic

log = obs.get_logger(__name__)

#: Columns of the in-flight packet array (struct of arrays as one 2-D
#: int64 block: one row per packet).  ``_QKEY`` is the packet's current
#: queue in the flat queue space: its replica's queue-block base plus
#: the channel it waits on.  Rows are kept in enqueue order — injected
#: and forwarded packets join at the end — so a packet's row position
#: is its FIFO sequence.
_REP, _QKEY, _POS, _END, _ITIME, _PLEN = range(6)
_NUM_COLS = 6

#: Bits reserved for the row position in the combined ``(queue, row)``
#: sort key; a launch holds far fewer than 2**40 packets.
_POS_BITS = 40

#: Position of the row above the cut in a search key (see
#: :func:`_search_keys`).
_ROW_SHIFT = np.uint64(UNIFORM_BITS + 1)

#: Cycles of stream keys computed per call.
_KEY_BLOCK = 256


@dataclasses.dataclass(frozen=True)
class Replica:
    """One independent simulation in a batched launch.

    A replica is the full stochastic identity of a run:
    ``(injection_rate, seed, fault_schedule, link_schedule)``, plus the
    index of the path table (in the launching simulator's stack) it
    routes on.  Replicas in one batch share the compiled path tables and
    the cycle loop but nothing stochastic — each reads the counter
    stream of its own seed and owns its channel fault/link state — so
    its counts are identical to an individual :func:`repro.sim.simulate`
    call with the same tuple on its table's ``(algorithm, traffic)``.
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
        check_seed(self.seed)
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


def _search_keys(first: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sorted uint64 search keys ``first << 33 | cut(value)``.

    ``cut(v) = floor(min(v, 1) * 2**32)``.  For a counter uniform
    ``u = bits * 2**-32``, ``v < u`` iff ``cut(v) < bits`` and
    ``v <= u`` iff ``cut(v) <= bits`` (scaling by a power of two is
    exact), so one ``np.searchsorted`` of ``first << 33 | bits`` over a
    whole table of ascending runs answers every row's float search at
    once.  A cut never exceeds ``2**32``, so it never reaches the row
    bits.
    """
    cut = np.floor(np.minimum(values, 1.0) * 2.0**UNIFORM_BITS)
    return (first.astype(np.uint64) << _ROW_SHIFT) | cut.astype(np.uint64)


def choice_cdfs(prob: np.ndarray, row_ptr: np.ndarray) -> np.ndarray:
    """Padded ``(rows × most paths)`` choice CDFs of a CSR path table.

    Row ``i`` is the reference simulator's chain for its pair, bit for
    bit: ``probs / probs.sum()``, then ``cumsum``, then ``/= cdf[-1]``,
    with ``+inf`` past the row's paths.  NumPy's pairwise ``sum``
    associates by row length, so rows are summed per length; the rest
    is elementwise or a row-wise ``cumsum`` on the padded block.
    """
    counts = np.diff(row_ptr)
    rows = np.arange(counts.size)
    owner = np.repeat(rows, counts)
    col = np.arange(prob.size) - row_ptr[owner]
    block = np.zeros((counts.size, int(counts.max())))
    block[owner, col] = prob
    total = np.empty(counts.size)
    for length in np.unique(counts).tolist():
        same = counts == length
        total[same] = block[same, :length].sum(axis=1)
    cdf = np.cumsum(block / total[:, None], axis=1)
    cdf /= cdf[rows, counts - 1][:, None]
    cdf[np.arange(block.shape[1]) >= counts[:, None]] = np.inf
    return cdf


def _pop_selection(qkey: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Indices of the packets popped this cycle (``qkey`` non-empty, in
    enqueue order).

    One sort by ``(queue, row)``, then each queue's first ``budgets[q]``
    packets in FIFO order — the reference arbitration contract
    (channel-index order across queues, FIFO within).  Emission order is
    the sorted order, which the cycle loop relies on for deterministic
    downstream processing.
    """
    order, q_sorted = _queue_order(qkey)
    return order[_queue_ranks(q_sorted) < budgets[q_sorted]]


def _queue_order(qkey: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, qkey[order])`` for the stable sort of ``qkey``.

    One plain sort of the unique keys ``qkey << _POS_BITS | position``
    gives the same order as ``argsort(qkey, kind="stable")`` (NumPy's
    timsort) several times faster, and both outputs unpack from it.
    """
    key = qkey << _POS_BITS
    key |= np.arange(qkey.size)
    key.sort()
    q_sorted = key >> _POS_BITS
    key &= (1 << _POS_BITS) - 1
    return key, q_sorted


def _arrival_keep(qkey: np.ndarray, occ: np.ndarray, cap: int) -> np.ndarray:
    """Boolean mask of forwarded packets that fit their next queue.

    Arrival order per queue decides who fills the remaining
    ``cap - occ[q]`` slots, exactly as the reference's sequential
    appends do — hence the stable sort on the queue key alone.
    """
    order, q_sorted = _queue_order(qkey)
    keep = np.empty(qkey.shape[0], dtype=bool)
    keep[order] = _queue_ranks(q_sorted) < (cap - occ[q_sorted])
    return keep


class VectorizedSimulator:
    """Compiled path tables for one or more ``(algorithm, traffic)`` pairs.

    Compilation materializes, for every drawable source/destination
    pair, the reference simulator's cached path distribution: the
    per-path channel itineraries (sliced from the routing's path table
    into one flat array) and the choice CDF (the reference's exact float
    normalization chain).  The tables are reused across every
    :meth:`run_replicas` call, which is what amortizes setup
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
        # Destination decode counts the CDF entries below the draw (a
        # left searchsorted on row s's keys); the +inf last column caps
        # the count at n - 1, like the reference.
        cum_traffic = np.cumsum(traffic, axis=1)
        cum_traffic[:, -1] = np.inf
        self._dest_keys = _search_keys(np.arange(n).repeat(n), cum_traffic.ravel())

        n2 = n * n
        # Pair keys are ``table * n**2 + s * n + d``; a pair's base is
        # the global id of its first path, -1 while it is uncompiled
        # (self-pairs never enter the network and stay so).
        self._pair_base = np.full(n2, -1, dtype=np.int64)
        # Path itineraries are int32: they dominate a table's footprint.
        self._path_start = np.zeros(0, dtype=np.int32)
        self._path_len = np.zeros(0, dtype=np.int32)
        self._chan_flat = np.zeros(0, dtype=np.int32)
        # One search key per path: its pair's first path id over its
        # choice-CDF entry (a right searchsorted yields the path id).
        self._path_keys = np.zeros(0, dtype=np.uint64)

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
            "_path_len", "_chan_flat",
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
        # Shifting a table's rows (paths) by ``off`` adds ``off << 33``
        # to its keys.
        row_off = n * np.cumsum([0] + [len(s._tables) for s in sims])
        out._dest_keys = np.concatenate(
            [
                s._dest_keys + (np.uint64(off) << _ROW_SHIFT)
                for s, off in zip(sims, row_off)
            ]
        )
        out._path_keys = np.concatenate(
            [
                s._path_keys + (np.uint64(off) << _ROW_SHIFT)
                for s, off in zip(sims, path_off)
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
            (s, d) for s, d in pairs if self._pair_base[off + s * n + d] < 0
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
        cdf = choice_cdfs(paths.prob, paths.row_ptr)
        keys = off + rows
        base = self._path_len.size + paths.row_ptr[:-1]
        self._pair_base[keys] = base
        self._path_keys = np.concatenate(
            [
                self._path_keys,
                _search_keys(
                    np.repeat(base, counts),
                    cdf[np.arange(cdf.shape[1]) < counts[:, None]],
                ),
            ]
        )
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

    def _ensure_pairs(self, keys: np.ndarray) -> None:
        """Lazily compile pairs hit by a boundary draw (a zero-traffic
        destination is reachable only through a draw of exactly 0 or
        the ``n - 1`` cap when a traffic row sums to just below the
        draw — rare, but the reference routes them).  Each missing pair
        compiles into its own table."""
        need = self._pair_base[keys] < 0
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
    # Injection decoding
    # ------------------------------------------------------------------
    def _decode_injections(self, stream, inject, row_keys, self_pairs, draw_index):
        """Replica index and global path id of every packet injected this
        cycle, all replicas in one pass.

        ``inject`` lists the injecting entries of the launch's flat
        ``(replica, node)`` grid, ``row_keys``/``self_pairs`` their
        traffic rows ``r`` as search keys and their self-pair keys.  A
        destination search lands on the pair key ``r * n + d`` itself,
        a path search on the path id.  Self-addressed draws are dropped,
        like the reference's ``continue``.
        """
        rep_idx, srcs = np.divmod(inject, self.num_nodes)
        bits = counter_bits(stream[rep_idx, None], draw_index[srcs])
        pairs = np.searchsorted(self._dest_keys, row_keys | bits[:, 0])
        enter = pairs != self_pairs
        pairs = pairs[enter]
        self._ensure_pairs(pairs)
        query = (self._pair_base[pairs].astype(np.uint64) << _ROW_SHIFT) | (
            bits[enter, 1]
        )
        return rep_idx[enter], np.searchsorted(self._path_keys, query, "right")

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
        its seed's counter stream, its own queues, and its *own*
        ``dead``/``down`` channel masks, so replicas may carry different
        fault and link schedules in the same launch, and route on
        different tables of a :meth:`stack`.  The replicas share each
        cycle's vector operations, so the per-cycle cost is nearly flat
        in the batch size.  A replica's ``fault_schedule`` kills
        channels mid-run in that replica only (the reference semantics:
        queued packets and later arrivals on a dead channel are counted
        in its ``lost``); its ``link_schedule`` toggles per-channel
        service on and off losslessly (the rotor semantics — down
        channels hold their queues).  Both are RNG-free, and a
        replica's uniforms depend on nothing but its seed, so it
        matches its individual run whatever shares its launch.
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
        seeds = np.asarray([rep.seed for rep in replicas], dtype=np.uint64)
        rate_arr = np.asarray([rep.injection_rate for rep in replicas])[:, None]
        # Counter indices of each node's draws, and per entry of the flat
        # (replica, node) grid its traffic row r = table * n + node, as a
        # search key and as the self-pair key r * n + node.
        nodes = np.arange(n)
        mask_index = counter_index(nodes, SLOT_MASK)
        draw_index = counter_index(nodes[:, None], (SLOT_DEST, SLOT_PATH))
        grid_rows = (rep_table[:, None] * n + nodes).ravel()
        grid_row_keys = grid_rows.astype(np.uint64) << _ROW_SHIFT
        grid_self_pairs = grid_rows * n + np.tile(nodes, num_reps)

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
            if cycle % _KEY_BLOCK == 0:
                streams = stream_keys(
                    seeds, np.arange(cycle, cycle + _KEY_BLOCK)[:, None]
                )
            stream = streams[cycle % _KEY_BLOCK]
            inject = np.flatnonzero(
                counter_uniforms(stream[:, None], mask_index) < rate_arr
            )
            p_rep, p_gpid = self._decode_injections(
                stream,
                inject,
                grid_row_keys[inject],
                grid_self_pairs[inject],
                draw_index,
            )
            if p_rep.size:
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
            popped = _pop_selection(qkey, bw_cycle)
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
                    lost += np.bincount(
                        packets[movers[m_dead], _REP], minlength=num_reps
                    )
                    movers = movers[~m_dead]
                    m_qkey = m_qkey[~m_dead]
                if cap is not None and movers.size:
                    # Arrival order per queue decides who fills the
                    # remaining capacity, exactly as the reference's
                    # sequential appends do.
                    keep = _arrival_keep(m_qkey, occ, cap)
                    dropped += np.bincount(
                        packets[movers[~keep], _REP], minlength=num_reps
                    )
                    movers, m_qkey = movers[keep], m_qkey[keep]
                packets[movers, _QKEY] = m_qkey
                occ += np.bincount(m_qkey, minlength=nq)

            # Every popped packet leaves its row; forwarded ones rejoin
            # at the end in arrival order, keeping rows in enqueue order.
            stay = np.ones(size, dtype=bool)
            stay[popped] = False
            packets = np.concatenate([packets[stay], packets[movers]])

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
