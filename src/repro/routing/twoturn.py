"""The 2TURN and 2TURNA routing algorithms (paper Sections 5.2, 5.4).

2TURN allows every path with at most two turns, with u-turns and
direction changes within a dimension disallowed — so a path is an
``x-y-x`` or ``y-x-y`` staircase whose movement in each dimension is
monotone (possibly the non-minimal way around).  The path *weights*
carry no closed form: they are solved for, first minimizing worst-case
channel load, then (lexicographically) minimizing average path length.

2TURNA uses the same path set but optimizes the sampled average-case
load first, then locality.

Both materialize as :class:`~repro.routing.base.TableRouting` tables.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.constants import LEXICOGRAPHIC_SLACK, SOLVER_DUST
from repro.core.path_lp import PathSetLP
from repro.routing.base import TableRouting
from repro.routing.paths import Path, build_path
from repro.topology.symmetry import TranslationGroup
from repro.topology.torus import Torus


def two_turn_paths(torus: Torus) -> dict[int, list[Path]]:
    """Enumerate every at-most-two-turn path from node 0 to each node.

    A two-turn path is an ``x-y-x`` or ``y-x-y`` staircase of (at most)
    three monotone segments.  Turns are dimension changes; "u-turns" —
    immediately reversing direction *within* a segment — are disallowed,
    but the two same-dimension segments of a staircase may run in
    opposite directions (they occupy different rows/columns, so no
    channel is revisited).  This general reading is forced by the
    paper's claim that 2TURN contains all of IVAL's paths: IVAL's
    loop-removed routes do reverse X across the Y segment.

    For shape ``x^a | y^m | x^c`` with segment directions
    ``s1, sy, s3``: the middle length ``m`` is determined by ``sy``
    (monotone coverage of the Y offset), ``a`` ranges over ``0..k-1``,
    and ``c`` is then fixed by the X offset.  Segments of length ``k``
    (full wraps) would revisit channels and are excluded.  Degenerate
    splits reproduce the 0- and 1-turn paths; duplicates from the two
    shape families are removed.
    """
    if torus.n != 2:
        raise ValueError("2TURN is defined on 2-D tori")
    k = torus.k
    out: dict[int, list[Path]] = {}
    for t in range(1, torus.num_nodes):
        dx, dy = (int(v) for v in torus.coords(t))
        paths: set[Path] = set()
        # shape = (first_dim, first_offset, mid_dim, mid_offset)
        for first_dim, d_first, d_mid in ((0, dx, dy), (1, dy, dx)):
            mid_dim = 1 - first_dim
            mid_opts = (
                [(+1, d_mid), (-1, k - d_mid)] if d_mid else [(0, 0)]
            )
            for s_mid, m_mid in mid_opts:
                if m_mid == 0:
                    # no middle segment: only a straight path (a u-turn
                    # within one row/column would revisit a node)
                    for s1 in (+1, -1):
                        hops = (s1 * d_first) % k
                        if 0 < hops < k:
                            paths.add(
                                build_path(torus, 0, [(first_dim, s1, hops)])
                            )
                    continue
                for s1 in (+1, -1):
                    for s3 in (+1, -1):
                        for a in range(k):
                            c = (s3 * (d_first - s1 * a)) % k
                            segments = []
                            if a:
                                segments.append((first_dim, s1, a))
                            segments.append((mid_dim, s_mid, m_mid))
                            if c:
                                segments.append((first_dim, s3, c))
                            paths.add(build_path(torus, 0, segments))
        out[t] = sorted(paths)
    return out


@dataclasses.dataclass(frozen=True)
class TwoTurnDesign:
    """A solved 2TURN-family algorithm plus its design-time objectives."""

    routing: TableRouting
    objective_load: float
    avg_path_length: float
    num_paths: int
    model_stats: dict = dataclasses.field(default_factory=dict)

    @property
    def normalized_path_length(self) -> float:
        torus = self.routing.network
        return self.avg_path_length / torus.mean_min_distance()


def design_2turn(
    torus: Torus,
    group: TranslationGroup | None = None,
    method: str = "highs-ipm",
) -> TwoTurnDesign:
    """Design 2TURN: lexicographically min worst-case load, then
    min average path length (Section 5.2)."""
    if group is None:
        group = TranslationGroup(torus)
    paths = two_turn_paths(torus)

    lp = PathSetLP(torus, paths, group, name="2TURN")
    w = lp.model.add_variables("w", 1)
    lp.add_worst_case(int(w.indices()[0]))
    lp.declare_point_symmetry()
    lp.model.set_objective(w.indices(), [1.0])
    sol = lp.model.solve(method=method)
    wc_load = float(sol[w][0])

    # Stage 2 re-solves the stage-1 model in place: cap w, swap the
    # objective for locality.
    lp.model.set_bounds(w, ub=wc_load * (1 + LEXICOGRAPHIC_SLACK) + SOLVER_DUST)
    cols, vals = lp.locality_terms()
    lp.model.set_objective(cols, vals)
    sol = lp.model.solve(method=method)

    routing = TableRouting(torus, lp.table_from(sol), name="2TURN")
    return TwoTurnDesign(
        routing=routing,
        objective_load=wc_load,
        avg_path_length=float(sol.objective),
        num_paths=lp.num_paths,
        model_stats=lp.model.stats(),
    )


def design_2turn_average(
    torus: Torus,
    sample,
    group: TranslationGroup | None = None,
    method: str = "highs-ipm",
) -> TwoTurnDesign:
    """Design 2TURNA: lexicographically min sampled average-case load,
    then min average path length (Section 5.4)."""
    if group is None:
        group = TranslationGroup(torus)
    paths = two_turn_paths(torus)

    lp = PathSetLP(torus, paths, group, name="2TURNA")
    m = lp.model.add_variables("m", len(sample))
    lp.add_average_case(sample, m)
    lp.model.set_objective(m.indices(), np.full(len(sample), 1 / len(sample)))
    sol = lp.model.solve(method=method)
    avg_load = float(sol.objective)

    lp = PathSetLP(torus, paths, group, name="2TURNA-stage2")
    m = lp.model.add_variables("m", len(sample))
    lp.add_average_case(sample, m)
    lp.model.add_le(
        m.indices(),
        np.full(len(sample), 1 / len(sample)),
        avg_load * (1 + LEXICOGRAPHIC_SLACK) + SOLVER_DUST,
    )
    cols, vals = lp.locality_terms()
    lp.model.set_objective(cols, vals)
    sol = lp.model.solve(method=method)

    routing = TableRouting(torus, lp.table_from(sol), name="2TURNA")
    return TwoTurnDesign(
        routing=routing,
        objective_load=avg_load,
        avg_path_length=float(sol.objective),
        num_paths=lp.num_paths,
        model_stats=lp.model.stats(),
    )
