"""Flat path tables: many path distributions as a handful of arrays.

A :class:`PathTable` holds the path distributions of a sequence of
*rows* — usually the commodities ``(s, d)`` of a network, row
``s * N + d`` — in compressed-sparse-row form, so the layers that
consume a routing (flow accumulation, fault rerouting, the simulator's
path compile) slice arrays instead of walking Python tuples pair by
pair, hop by hop.

Layout (``R`` rows, ``P`` paths)::

    row_ptr   (R + 1,)  paths of row r are row_ptr[r] : row_ptr[r + 1]
    prob      (P,)      float64 probability of each path, as the
                        routing's ``path_distribution`` returns it
    node_ptr  (P + 1,)  nodes of path i are nodes[node_ptr[i] : node_ptr[i + 1]]
    nodes               node ids, path after path
    channels            channel ids, path after path

A path of ``m`` nodes crosses ``m - 1`` channels, so path ``i``'s
channels start at ``node_ptr[i] - i`` (:attr:`PathTable.chan_ptr`).
Paths keep the order of the distribution they came from; that order is
what the simulator's path draw indexes, so every transformation here
preserves it (or, for the detour merge, reproduces it exactly).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

import numpy as np

from repro.routing.paths import Path
from repro.topology.network import Network
from repro.topology.symmetry import TranslationGroup


def channel_lookup(network: Network) -> np.ndarray:
    """Channel index of hop ``a -> b`` at ``a * N + b``; -1 if none."""
    n = network.num_nodes
    lookup = np.full(n * n, -1, dtype=np.int64)
    lookup[network.channel_src * n + network.channel_dst] = np.arange(
        network.num_channels
    )
    return lookup


def offsets(lengths: np.ndarray) -> np.ndarray:
    """CSR offsets ``[0, l0, l0 + l1, ...]`` of a length array."""
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + n)`` for every ``(s, n)`` pair."""
    first = offsets(lengths)
    return np.repeat(np.asarray(starts, dtype=np.int64) - first[:-1], lengths) + (
        np.arange(first[-1])
    )


@dataclasses.dataclass(frozen=True, eq=False)
class PathTable:
    """Path distributions of ``num_rows`` rows as flat arrays (see the
    module docstring for the layout)."""

    row_ptr: np.ndarray
    prob: np.ndarray
    node_ptr: np.ndarray
    nodes: np.ndarray
    channels: np.ndarray

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_nodes(
        cls,
        network: Network,
        row_ptr: np.ndarray,
        prob: np.ndarray,
        node_ptr: np.ndarray,
        nodes: np.ndarray,
    ) -> "PathTable":
        """A table whose channels are looked up from consecutive nodes.

        Raises :class:`KeyError` naming the first hop that is not a
        channel of ``network``.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        # Every node but the last of its path starts a hop.
        hop = np.ones(nodes.size, dtype=bool)
        hop[np.asarray(node_ptr[1:], dtype=np.int64) - 1] = False
        tails = np.flatnonzero(hop)
        channels = channel_lookup(network)[
            nodes[tails] * network.num_nodes + nodes[tails + 1]
        ]
        if (channels < 0).any():
            bad = tails[np.argmax(channels < 0)]
            raise KeyError(
                f"no channel {int(nodes[bad])} -> {int(nodes[bad + 1])}"
            )
        return cls(
            row_ptr=np.asarray(row_ptr, dtype=np.int64),
            prob=np.asarray(prob, dtype=np.float64),
            node_ptr=np.asarray(node_ptr, dtype=np.int64),
            nodes=nodes,
            channels=channels,
        )

    @classmethod
    def from_distributions(
        cls, network: Network, rows: Iterable[list[tuple[Path, float]]]
    ) -> "PathTable":
        """One pass over ``path_distribution``-style lists, row by row."""
        counts: list[int] = []
        probs: list[float] = []
        lengths: list[int] = []
        nodes: list[int] = []
        for dist in rows:
            counts.append(len(dist))
            for path, prob in dist:
                probs.append(prob)
                lengths.append(len(path))
                nodes.extend(path)
        return cls.from_nodes(
            network,
            offsets(np.asarray(counts, dtype=np.int64)),
            np.asarray(probs, dtype=np.float64),
            offsets(np.asarray(lengths, dtype=np.int64)),
            np.asarray(nodes, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self.row_ptr.size - 1

    @property
    def num_paths(self) -> int:
        return self.prob.size

    @property
    def row_counts(self) -> np.ndarray:
        """Number of paths of each row."""
        return np.diff(self.row_ptr)

    @property
    def path_rows(self) -> np.ndarray:
        """Row of each path."""
        return np.repeat(np.arange(self.num_rows), self.row_counts)

    @property
    def chan_ptr(self) -> np.ndarray:
        """Channel offsets: path ``i`` crosses ``channels[chan_ptr[i] :
        chan_ptr[i + 1]]``."""
        return self.node_ptr - np.arange(self.node_ptr.size)

    @property
    def hops(self) -> np.ndarray:
        """Hop count of each path."""
        return np.diff(self.node_ptr) - 1

    def path(self, i: int) -> Path:
        return tuple(self.nodes[self.node_ptr[i] : self.node_ptr[i + 1]].tolist())

    def distribution(self, row: int) -> list[tuple[Path, float]]:
        """Row ``row`` as a ``path_distribution`` list."""
        lo, hi = int(self.row_ptr[row]), int(self.row_ptr[row + 1])
        return [
            (self.path(i), p)
            for i, p in zip(range(lo, hi), self.prob[lo:hi].tolist())
        ]

    # ------------------------------------------------------------------
    # Derived tables
    # ------------------------------------------------------------------
    def take_rows(self, rows: np.ndarray) -> "PathTable":
        """The table of rows ``rows`` (in that order, repeats allowed)."""
        rows = np.asarray(rows, dtype=np.int64)
        counts = self.row_counts[rows]
        paths = ranges(self.row_ptr[rows], counts)
        return self.take_paths(offsets(counts), paths)

    def select_paths(self, keep: np.ndarray) -> "PathTable":
        """Same rows, only the paths where ``keep`` is true."""
        counts = np.bincount(
            self.path_rows[keep], minlength=self.num_rows
        ).astype(np.int64)
        return self.take_paths(offsets(counts), np.flatnonzero(keep))

    def take_paths(self, row_ptr: np.ndarray, paths: np.ndarray) -> "PathTable":
        """Paths ``paths`` (in that order), grouped into rows by ``row_ptr``."""
        node_len = np.diff(self.node_ptr)[paths]
        return PathTable(
            row_ptr=row_ptr,
            prob=self.prob[paths],
            node_ptr=offsets(node_len),
            nodes=self.nodes[ranges(self.node_ptr[paths], node_len)],
            channels=self.channels[ranges(self.chan_ptr[paths], node_len - 1)],
        )

    def concatenated(
        self,
        paths: np.ndarray,
        other: "PathTable",
        other_paths: np.ndarray,
        row_ptr: np.ndarray,
    ) -> "PathTable":
        """Path ``j``: path ``paths[j]`` followed by ``other``'s path
        ``other_paths[j]`` (which starts where it ends), with the product
        of their probabilities; grouped into rows by ``row_ptr``."""
        first = np.diff(self.node_ptr)[paths]
        second = np.diff(other.node_ptr)[other_paths]
        node_ptr = offsets(first + second - 1)
        chan_ptr = node_ptr - np.arange(node_ptr.size)
        nodes = np.empty(int(node_ptr[-1]), dtype=np.int64)
        channels = np.empty(int(chan_ptr[-1]), dtype=np.int64)
        nodes[ranges(node_ptr[:-1], first)] = self.nodes[
            ranges(self.node_ptr[paths], first)
        ]
        nodes[ranges(node_ptr[:-1] + first, second - 1)] = other.nodes[
            ranges(other.node_ptr[other_paths] + 1, second - 1)
        ]
        channels[ranges(chan_ptr[:-1], first - 1)] = self.channels[
            ranges(self.chan_ptr[paths], first - 1)
        ]
        channels[ranges(chan_ptr[:-1] + first - 1, second - 1)] = other.channels[
            ranges(other.chan_ptr[other_paths], second - 1)
        ]
        return PathTable(
            row_ptr=row_ptr,
            prob=self.prob[paths] * other.prob[other_paths],
            node_ptr=node_ptr,
            nodes=nodes,
            channels=channels,
        )

    def replace_paths(self, ids: np.ndarray, new: "PathTable") -> "PathTable":
        """Same rows and probabilities, path ``ids[j]`` replaced by
        ``new``'s path ``j``."""
        node_len = np.diff(self.node_ptr)
        node_len[ids] = np.diff(new.node_ptr)
        node_ptr = offsets(node_len)
        chan_ptr = node_ptr - np.arange(node_ptr.size)
        nodes = np.empty(int(node_ptr[-1]), dtype=np.int64)
        channels = np.empty(int(chan_ptr[-1]), dtype=np.int64)
        kept = np.ones(self.num_paths, dtype=bool)
        kept[ids] = False
        kept = np.flatnonzero(kept)
        for out, out_ptr, src, src_ptr, short in (
            (nodes, node_ptr, self.nodes, self.node_ptr, 0),
            (channels, chan_ptr, self.channels, self.chan_ptr, 1),
        ):
            out[ranges(out_ptr[kept], node_len[kept] - short)] = src[
                ranges(src_ptr[kept], node_len[kept] - short)
            ]
        nodes[ranges(node_ptr[ids], node_len[ids])] = new.nodes
        channels[ranges(chan_ptr[ids], node_len[ids] - 1)] = new.channels
        return dataclasses.replace(
            self, node_ptr=node_ptr, nodes=nodes, channels=channels
        )

    def without_loops(self) -> "PathTable":
        """Every path with its loops removed, path for path (identical
        results are not merged).

        Array form of :func:`~repro.routing.paths.remove_loops`: a path
        keeps its first node, then jumps past the *last* visit of each
        node it keeps — the chronological loop erasure of paper Fig. 3.
        The kept hops are original hops, so channels carry over.
        """
        if not self.num_paths:
            return self
        start, end = self.node_ptr[:-1], self.node_ptr[1:]
        owner = np.repeat(np.arange(self.num_paths), end - start)
        # last[i]: position of the last visit, within its path, of the
        # node at position i (a stable sort keeps visits in order).
        visit = owner * (int(self.nodes.max(initial=0)) + 1) + self.nodes
        order = np.argsort(visit, kind="stable")
        ends = np.append(visit[order][1:] != visit[order][:-1], True)
        last = np.empty(self.nodes.size, dtype=np.int64)
        last[order] = order[ends][np.cumsum(ends) - ends]
        keep = np.zeros(self.nodes.size, dtype=bool)
        cur = start.copy()
        active = np.flatnonzero(cur < end)
        while active.size:
            keep[cur[active]] = True
            cur[active] = last[cur[active]] + 1
            active = active[cur[active] < end[active]]
        # A kept node other than its path's last leaves along the hop out
        # of its last visit.
        leaves = np.flatnonzero(keep & (last != end[owner] - 1))
        path = owner[leaves]
        return dataclasses.replace(
            self,
            node_ptr=offsets(np.bincount(owner[keep], minlength=self.num_paths)),
            nodes=self.nodes[keep],
            channels=self.channels[self.chan_ptr[path] + last[leaves] - start[path]],
        )

    def path_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Group identical paths within each row.

        Returns ``(group, first)``: the group of every path, numbered in
        (row, path as a tuple) order, and the first path of each group.
        """
        length = np.diff(self.node_ptr)
        # Node ids become base-(max id + 2) digits, 0 padding the short
        # paths, so integer order of the packed keys is tuple order: a
        # prefix before its extensions, then lexicographic.
        radix = int(self.nodes.max(initial=0)) + 2
        per_key = 1
        while radix ** (per_key + 1) < 2**63:
            per_key += 1
        width = -(-int(length.max(initial=1)) // per_key) * per_key
        digits = np.zeros((self.num_paths, width), dtype=np.int64)
        digits[
            np.repeat(np.arange(self.num_paths), length),
            np.arange(self.nodes.size) - np.repeat(self.node_ptr[:-1], length),
        ] = self.nodes + 1
        keys = digits.reshape(self.num_paths, -1, per_key) @ (
            radix ** np.arange(per_key - 1, -1, -1, dtype=np.int64)
        )
        keys = np.column_stack([self.path_rows, keys])
        # lexsort is stable: each group lists its paths in table order.
        order = np.lexsort(keys.T[::-1])
        ordered = keys[order]
        starts = np.ones(self.num_paths, dtype=bool)
        starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        group = np.empty(self.num_paths, dtype=np.int64)
        group[order] = np.cumsum(starts) - 1
        return group, order[starts]

    def row_flows(self, num_channels: int) -> np.ndarray:
        """``(R, C)`` expected channel crossings of each row, accumulated
        path by path and hop by hop in table order."""
        entry_path = np.repeat(np.arange(self.num_paths), self.hops)
        cells = self.path_rows[entry_path] * num_channels + self.channels
        return np.bincount(
            cells,
            weights=self.prob[entry_path],
            minlength=self.num_rows * num_channels,
        ).reshape(self.num_rows, num_channels)


@dataclasses.dataclass(frozen=True, eq=False)
class TranslatedTable:
    """An all-pairs table kept as translates of canonical-source paths.

    Row ``s * N + d`` holds entries ``row_ptr[r] : row_ptr[r + 1]``;
    entry ``i`` is ``canonical`` path ``path[i]`` shifted by ``s``, with
    probability ``prob[i]``.  Translation is a bijection on paths, so a
    path-for-path transformation that commutes with it (Valiant's loop
    removal) runs once on the canonical paths instead of on every
    translate.
    """

    canonical: PathTable
    row_ptr: np.ndarray
    path: np.ndarray
    prob: np.ndarray

    @classmethod
    def of_rows(
        cls, canonical: PathTable, group: TranslationGroup
    ) -> "TranslatedTable":
        """Row ``s * N + d`` is canonical row ``d - s`` (rows ``(0, t)``
        of a routing whose distributions are translates, order included)."""
        n = canonical.num_rows
        src = np.repeat(np.arange(n), n)
        rows = group.node_diff[np.tile(np.arange(n), n), src]
        counts = canonical.row_counts[rows]
        path = ranges(canonical.row_ptr[rows], counts)
        return cls(canonical, offsets(counts), path, canonical.prob[path])

    @property
    def path_rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.row_ptr.size - 1), np.diff(self.row_ptr))

    def merged(self) -> "TranslatedTable":
        """Identical paths of each row merged into their first entry.

        Reproduces a per-row ``acc[path] = acc.get(path, 0.0) + w`` in
        entry order followed by ``list(acc.items())``: ``np.bincount``
        adds its weights in input order.
        """
        one_row = dataclasses.replace(
            self.canonical,
            row_ptr=np.asarray([0, self.canonical.num_paths], dtype=np.int64),
        )
        uid = one_row.path_groups()[0][self.path]
        rows = self.path_rows
        _, first, inverse = np.unique(
            rows * (int(uid.max(initial=0)) + 1) + uid,
            return_index=True,
            return_inverse=True,
        )
        weight = np.bincount(inverse, weights=self.prob)
        out = np.argsort(first)
        keep = first[out]
        return TranslatedTable(
            self.canonical,
            offsets(np.bincount(rows[keep], minlength=self.row_ptr.size - 1)),
            self.path[keep],
            weight[out],
        )

    def expand(self, group: TranslationGroup) -> PathTable:
        """The all-pairs :class:`PathTable`, translating :attr:`canonical`
        with ``group``'s node and channel shift tables."""
        n = group.node_sum.shape[0]
        out = self.canonical.take_paths(self.row_ptr, self.path)
        shift = self.path_rows // n
        node_len = np.diff(out.node_ptr)
        return dataclasses.replace(
            out,
            prob=self.prob,
            nodes=group.node_sum[out.nodes, np.repeat(shift, node_len)],
            channels=group.chan_shift[out.channels, np.repeat(shift, node_len - 1)],
        )
