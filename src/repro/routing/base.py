"""Oblivious routing algorithms as path distributions (paper Section 2.2).

A randomized oblivious routing algorithm ``R`` assigns each
source-destination pair a probability distribution over paths:
``R(p) >= 0`` and ``sum_{p in P_{s,d}} R(p) = 1``.  Everything the
paper measures — channel loads, throughput, locality — is a function of
the induced *flows* (expected channel-crossing counts), so the base class
materializes flows once and caches them.

Algorithms on tori are *translation-invariant*: the distribution for
``(s, d)`` is the translate of the distribution for ``(0, d - s)``.
Such algorithms only describe canonical-source paths, and their flows
are an ``(N, C)`` table — the O(CN) representation of Section 4.
"""

from __future__ import annotations

import abc
from functools import cached_property

import numpy as np

from repro.constants import DISTRIBUTION_ATOL, FEASIBILITY_ATOL, SOLVER_DUST
from repro.routing import paths as pathmod
from repro.routing.path_table import PathTable, TranslatedTable
from repro.routing.paths import Path
from repro.topology.network import Network
from repro.topology.symmetry import TranslationGroup
from repro.topology.cayley import CayleyTopology
from repro.topology.torus import Torus


class ObliviousRouting(abc.ABC):
    """Abstract oblivious routing algorithm over a fixed network."""

    #: Whether ``path_distribution(s, d)`` is the translate of
    #: ``path_distribution(0, d - s)``.  Translation-invariant algorithms
    #: on a torus get the compact canonical-flow representation.
    translation_invariant: bool = False

    #: Whether ``path_distribution(s, d)`` also lists its paths in the
    #: order of the translate of ``path_distribution(0, d - s)`` — the
    #: order the simulator's path draw indexes.  Algorithms that walk
    #: intermediates in absolute node order (Valiant) do not.
    canonical_order: bool = True

    def __init__(self, network: Network, name: str | None = None) -> None:
        self._network = network
        self.name = name if name is not None else type(self).__name__

    @property
    def network(self) -> Network:
        return self._network

    # ------------------------------------------------------------------
    # Core interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def path_distribution(self, src: int, dst: int) -> list[tuple[Path, float]]:
        """Distribution over paths for one commodity.

        Returns ``[(path, probability), ...]`` with probabilities summing
        to one.  For ``src == dst`` the single zero-hop path ``(src,)``
        with probability one is returned.
        """

    def sample_path(self, rng: np.random.Generator, src: int, dst: int) -> Path:
        """Draw one path according to the distribution (used by the
        simulator, which is what makes the algorithm *randomized*)."""
        dist = self.path_distribution(src, dst)
        probs = np.asarray([p for _, p in dist])
        idx = rng.choice(len(dist), p=probs / probs.sum())
        return dist[idx][0]

    # ------------------------------------------------------------------
    # Path tables
    # ------------------------------------------------------------------
    @cached_property
    def _translated_table(self) -> TranslatedTable | None:
        """Every commodity's paths as translates of canonical-source
        paths, in ``path_distribution``'s order; ``None`` unless the
        routing is translation-invariant on a Cayley network and
        :attr:`canonical_order` holds (or a subclass supplies one)."""
        if not (
            self.translation_invariant
            and self.canonical_order
            and isinstance(self._network, CayleyTopology)
        ):
            return None
        return TranslatedTable.of_rows(
            self._canonical_rows, self._translation_group
        )

    @cached_property
    def _canonical_rows(self) -> PathTable:
        """``path_distribution(0, t)`` as row ``t``."""
        net = self._network
        return PathTable.from_distributions(
            net, (self.path_distribution(0, t) for t in range(net.num_nodes))
        )

    def path_table(self) -> PathTable:
        """Every commodity's distribution as one flat table, built once.

        Row ``s * N + d`` lists ``path_distribution(s, d)`` in order.
        Routings with a ``_translated_table`` translate its canonical
        paths with array ops; any other routing makes one pass over
        ``path_distribution``.
        """
        return self._path_table

    @cached_property
    def _path_table(self) -> PathTable:
        translated = self._translated_table
        if translated is not None:
            return translated.expand(self._translation_group)
        n = self._network.num_nodes
        return PathTable.from_distributions(
            self._network,
            (self.path_distribution(s, d) for s in range(n) for d in range(n)),
        )

    # ------------------------------------------------------------------
    # Flows
    # ------------------------------------------------------------------
    @cached_property
    def canonical_flows(self) -> np.ndarray:
        """``(N, C)`` expected channel crossings for commodities ``(0, d)``.

        Only meaningful for translation-invariant algorithms on a torus;
        row ``d``, column ``c`` is the probability-weighted number of
        times a packet from node 0 to node ``d`` crosses channel ``c``.
        """
        if not self.translation_invariant:
            raise TypeError(
                f"{self.name} is not translation-invariant; use full_flows()"
            )
        flows = self._canonical_rows.row_flows(self._network.num_channels)
        flows.setflags(write=False)
        return flows

    def full_flows(self) -> np.ndarray:
        """``(N, N, C)`` flows for every commodity ``(s, d)``.

        Translation-invariant algorithms derive this from
        :attr:`canonical_flows`; others accumulate :meth:`path_table`.
        """
        net = self._network
        if self.translation_invariant and isinstance(net, CayleyTopology):
            group = self._translation_group
            out = np.zeros((net.num_nodes, net.num_nodes, net.num_channels))
            for s in range(net.num_nodes):
                for d in range(net.num_nodes):
                    out[s, d] = group.commodity_flow(self.canonical_flows, s, d)
            return out
        return self.path_table().row_flows(net.num_channels).reshape(
            net.num_nodes, net.num_nodes, net.num_channels
        )

    @cached_property
    def _translation_group(self) -> TranslationGroup:
        if not isinstance(self._network, CayleyTopology):
            raise TypeError("translation group requires a Cayley-graph network")
        return TranslationGroup(self._network)

    # ------------------------------------------------------------------
    # Locality (paper eq. 5)
    # ------------------------------------------------------------------
    def average_path_length(self) -> float:
        """``H_avg``: mean hops over all ordered pairs (eq. 5)."""
        if self.translation_invariant:
            return float(self.canonical_flows.sum() / self._network.num_nodes)
        return float(self.full_flows().sum() / self._network.num_nodes**2)

    def normalized_path_length(self) -> float:
        """``H_avg`` as a multiple of the minimal average path length —
        the vertical axis of Figures 1, 4, 5 and 6."""
        return self.average_path_length() / self._network.mean_min_distance()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, pairs=None, tol: float = FEASIBILITY_ATOL) -> None:
        """Check the oblivious-routing constraints of eq. (1).

        Verifies, for each requested pair (default: all pairs from node
        0 plus a diagonal sample), that probabilities are nonnegative,
        sum to one, and that each path is a valid channel-simple route.
        """
        net = self._network
        if pairs is None:
            pairs = [(0, d) for d in range(net.num_nodes)]
            pairs += [(s, (s * 2 + 1) % net.num_nodes) for s in range(net.num_nodes)]
        for s, d in pairs:
            dist = self.path_distribution(s, d)
            total = 0.0
            for path, prob in dist:
                if prob < -tol:
                    raise ValueError(f"{self.name}: negative probability on {path}")
                if len(path) > 1:
                    pathmod.validate_path(net, path, s, d)
                elif path != (s,) or s != d:
                    raise ValueError(f"{self.name}: bad trivial path {path}")
                total += prob
            if abs(total - 1.0) > max(tol, DISTRIBUTION_ATOL):
                raise ValueError(
                    f"{self.name}: probabilities for ({s}, {d}) sum to {total}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, network={self._network!r})"


class TableRouting(ObliviousRouting):
    """Routing defined by an explicit canonical-source path table.

    This is how LP-designed algorithms (2TURN, 2TURNA, recovered optimal
    algorithms) are materialized: the solver produces path weights for
    source 0, and translation extends them to all sources.

    Parameters
    ----------
    torus:
        Underlying (vertex-transitive) torus.
    table:
        ``table[d]`` is a list of ``(path, probability)`` for the
        canonical commodity ``(0, d)``; entry 0 may be omitted.
    prune:
        Drop paths below this probability and renormalize — LP vertex
        solutions carry harmless ~1e-12 dust.
    """

    translation_invariant = True

    def __init__(
        self,
        torus: Torus,
        table: dict[int, list[tuple[Path, float]]],
        name: str = "table",
        prune: float = SOLVER_DUST,
    ) -> None:
        super().__init__(torus, name)
        self._table: dict[int, list[tuple[Path, float]]] = {}
        for d, entries in table.items():
            kept = [(tuple(p), float(w)) for p, w in entries if w > prune]
            total = sum(w for _, w in kept)
            if d != 0 and (not kept or total <= 0):
                raise ValueError(f"no paths with positive weight for destination {d}")
            if kept:
                self._table[d] = [(p, w / total) for p, w in kept]
        for d in range(1, torus.num_nodes):
            if d not in self._table:
                raise ValueError(f"table missing destination {d}")

    def path_distribution(self, src: int, dst: int) -> list[tuple[Path, float]]:
        if src == dst:
            return [((src,), 1.0)]
        torus: Torus = self._network  # type: ignore[assignment]
        t = int(torus.sub_nodes(dst, src))
        if src == 0:
            return list(self._table[t])
        return [
            (tuple(int(torus.add_nodes(v, src)) for v in path), w)
            for path, w in self._table[t]
        ]
