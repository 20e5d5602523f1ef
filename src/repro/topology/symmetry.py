"""Symmetry machinery for the O(CN) LP reduction (paper Section 4).

The torus is a Cayley graph of :math:`\\mathbb{Z}_k^n`: translations act
simply transitively on nodes, carrying channels to channels.  The paper
exploits this vertex symmetry by describing a routing algorithm only for
a *canonical source* (node 0); the flow of commodity :math:`(s, d)` on
channel :math:`c` is then the canonical flow of commodity
:math:`(0, d - s)` on channel :math:`c - s`.

:class:`TranslationGroup` packages the lookup tables this reduction
needs.  :func:`stabilizer_maps` additionally enumerates the signed
coordinate permutations fixing node 0 (the point group of the torus;
:func:`point_group_generators` a generating set of it), which are used
to symmetrize LP solutions and to solve design LPs on their orbit
quotient — averaging a solution over the stabilizer orbit never
increases any of the paper's convex cost functions, and yields cleaner,
fully symmetric routing tables.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from repro.topology.torus import Torus


class TranslationGroup:
    """Cached translation tables for a Cayley-graph topology.

    Parameters
    ----------
    topology:
        Any :class:`~repro.topology.cayley.CayleyTopology` (torus,
        hypercube, ...) whose translation action to tabulate.

    Notes
    -----
    Memory: the channel table is ``C x N`` int64 (a few MB even at
    ``k = 16``), traded for O(1) lookups inside LP assembly loops.
    """

    def __init__(self, topology) -> None:
        self.torus = topology  # historical name; any CayleyTopology works
        N = topology.num_nodes

        # node_sum[a, b] = a + b; node_diff[a, b] = a - b (group ops).
        grid_a = np.repeat(np.arange(N), N)
        grid_b = np.tile(np.arange(N), N)
        self.node_sum = np.asarray(
            topology.add_nodes(grid_a, grid_b), dtype=np.int64
        ).reshape(N, N)
        self.node_diff = np.asarray(
            topology.sub_nodes(grid_a, grid_b), dtype=np.int64
        ).reshape(N, N)

        # chan_shift[c, s] = channel c translated by group element s.
        ncls = topology.num_classes
        chan_nodes = np.arange(topology.num_channels, dtype=np.int64) // ncls
        chan_cls = np.arange(topology.num_channels, dtype=np.int64) % ncls
        self.chan_shift = (
            self.node_sum[chan_nodes][:, :] * ncls + chan_cls[:, None]
        )

    def commodity_flow(
        self, canonical_flows: np.ndarray, s: int, d: int
    ) -> np.ndarray:
        """Flow vector of commodity ``(s, d)`` over all channels.

        ``canonical_flows`` has shape ``(N, C)``: row ``t`` is the flow of
        the canonical commodity ``(0, t)``.  The returned vector ``f`` has
        ``f[c] =`` flow of ``(s, d)`` on channel ``c``.
        """
        t = self.node_diff[d, s]
        # flow of (s,d) on c equals canonical flow of (0, d-s) on (c - s);
        # equivalently, scatter the canonical row through the shift table.
        inv = self.chan_shift[:, s]  # canonical channel c' -> network channel c'+s
        out = np.empty(self.torus.num_channels, dtype=canonical_flows.dtype)
        out[inv] = canonical_flows[t]
        return out

    def untranslate_channels(self, channels, s):
        """Map network channels back to canonical frame (``c - s``)."""
        channels = np.asarray(channels)
        nodes = channels // self.torus.num_classes
        cls = channels % self.torus.num_classes
        return self.node_diff[nodes, s] * self.torus.num_classes + cls


@dataclasses.dataclass(frozen=True)
class PointSymmetry:
    """A torus automorphism fixing node 0.

    Attributes
    ----------
    node_map:
        Length-``N`` array: image of each node.
    channel_map:
        Length-``C`` array: image of each channel.
    label:
        Human-readable description (permutation and signs).
    """

    node_map: np.ndarray
    channel_map: np.ndarray
    label: str


def stabilizer_maps(
    torus: Torus, *, bandwidth_preserving: bool = True
) -> list[PointSymmetry]:
    """Signed coordinate permutations of a torus (stabilizer of node 0).

    For an ``n``-dimensional torus these are the ``2^n * n!`` maps that
    permute dimensions and independently flip their signs — the full
    point group when all radices are equal.  Each map sends node 0 to
    itself and channels to channels, so it acts on canonical-source
    routing tables.

    With heterogeneous per-axis bandwidths a dimension-permuting map is
    a *graph* automorphism but not a *network* one: it moves flow from a
    fast axis onto a slow one, so averaging over it corrupts routing
    tables and their load certificates.  By default only maps satisfying
    ``b[g(c)] == b[c]`` for every channel are returned (sign flips
    always qualify; dimension swaps qualify only between equal-bandwidth
    axes).  ``bandwidth_preserving=False`` restores the raw point group.
    """
    n = torus.n
    candidates = itertools.product(
        itertools.permutations(range(n)),
        itertools.product((+1, -1), repeat=n),
    )
    return _point_maps(torus, candidates, bandwidth_preserving)


def point_group_generators(torus: Torus) -> list[PointSymmetry]:
    """A generating set of :func:`stabilizer_maps` (bandwidth-preserving):
    each single-axis sign flip and each swap of two equal-bandwidth axes.

    ``n + n(n-1)/2`` maps instead of ``2^n n!`` — what a symmetry
    declaration needs, since invariance under generators is invariance
    under the group and orbits are the generators' connected components.
    """
    n = torus.n
    identity = tuple(range(n))
    plus = (+1,) * n
    flips = [
        (identity, tuple(-1 if d == i else +1 for d in range(n)))
        for i in range(n)
    ]
    swaps = []
    for i, j in itertools.combinations(range(n), 2):
        perm = list(identity)
        perm[i], perm[j] = j, i
        swaps.append((tuple(perm), plus))
    return _point_maps(torus, flips + swaps, bandwidth_preserving=True)


def _point_maps(torus: Torus, candidates, bandwidth_preserving: bool):
    """The :class:`PointSymmetry` of each ``(perm, signs)`` candidate."""
    n, k = torus.n, torus.k
    bw = torus.bandwidth
    coords = torus.coords_array()
    weights = k ** np.arange(n)
    maps: list[PointSymmetry] = []
    for perm, signs in candidates:
        new_coords = np.empty_like(coords)
        for dim in range(n):
            src_dim = perm[dim]
            col = coords[:, src_dim]
            new_coords[:, dim] = col if signs[dim] == +1 else (-col) % k
        node_map = (new_coords @ weights).astype(np.int64)

        # Channel (v, dim, dir): v maps through node_map; movement in
        # dimension `dim` with direction `dir` becomes movement in the
        # image dimension (perm[idim] == dim) with direction dir * sign.
        ncls = torus.num_classes
        image_cls = np.empty(ncls, dtype=np.int64)
        for dim in range(n):
            idim = perm.index(dim)
            for dirbit, step in ((0, +1), (1, -1)):
                ibit = 0 if step * signs[idim] == +1 else 1
                image_cls[dim * 2 + dirbit] = idim * 2 + ibit
        channel_map = (node_map[:, None] * ncls + image_cls[None, :]).ravel()
        if bandwidth_preserving and not np.array_equal(bw[channel_map], bw):
            continue
        maps.append(
            PointSymmetry(
                node_map=node_map,
                channel_map=channel_map,
                label=f"perm={perm} signs={signs}",
            )
        )
    return maps


def symmetrize_canonical_flows(
    torus: Torus, flows: np.ndarray, maps: list[PointSymmetry] | None = None
) -> np.ndarray:
    """Average canonical-source flows over the stabilizer of node 0.

    ``flows`` has shape ``(N, C)`` (row = destination, column = channel).
    The result is a valid routing table with identical or better values
    of every convex, automorphism-invariant cost function (Section 4).
    Only bandwidth-preserving maps participate (see
    :func:`stabilizer_maps`), so the average is safe on heterogeneous
    tori: flow is never reflected onto an axis of different bandwidth.
    Pass precomputed ``maps`` to amortize the table construction across
    repeated calls.
    """
    acc = np.zeros_like(flows, dtype=np.float64)
    if maps is None:
        maps = stabilizer_maps(torus)
    for g in maps:
        # commodity (0, d) maps to (0, g(d)); channel c to g(c).
        permuted = np.zeros_like(acc)
        permuted[np.ix_(g.node_map, g.channel_map)] = flows
        acc += permuted
    return acc / len(maps)
