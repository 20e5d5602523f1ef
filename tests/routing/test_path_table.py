"""Flat path tables: every routing's table lists ``path_distribution``.

The simulator indexes a commodity's paths by their position in the
table, so the table must reproduce each routing's own list exactly —
paths, order and float weights — whether it was translated from
canonical-source rows, rebuilt from Valiant's generation blocks, or
made in one pass over ``path_distribution``.
"""

import numpy as np
import pytest

from repro.routing import (
    IVAL,
    RLB,
    ROMM,
    VAL,
    DimensionOrderRouting,
    ECube,
    HypercubeValiant,
    Interpolated,
    RLBth,
    ShortestPathRouting,
    design_2turn,
)
from repro.routing import paths as pathmod
from repro.routing.path_table import PathTable
from repro.topology import Torus
from repro.topology.hypercube import Hypercube


ROUTINGS = {
    "DOR": DimensionOrderRouting,
    "VAL": VAL,
    "ROMM": ROMM,
    "RLB": RLB,
    "RLBth": RLBth,
    "IVAL": IVAL,
    "2TURN": lambda torus: design_2turn(torus).routing,
    "DOR~IVAL": lambda torus: Interpolated(
        DimensionOrderRouting(torus), IVAL(torus), 0.3
    ),
    "SP": ShortestPathRouting,
}
CUBE_ROUTINGS = {"ECUBE": ECube, "hypercube-VAL": HypercubeValiant}


@pytest.fixture(
    scope="module",
    params=[f"k{k}-{name}" for k in (3, 4) for name in ROUTINGS]
    + list(CUBE_ROUTINGS),
)
def routing(request):
    if request.param in CUBE_ROUTINGS:
        return CUBE_ROUTINGS[request.param](Hypercube(3))
    k, name = request.param.split("-", 1)
    return ROUTINGS[name](Torus(int(k[1:]), 2))


def test_rows_are_path_distributions(routing):
    net = routing.network
    n = net.num_nodes
    table = routing.path_table()
    assert table.num_rows == n * n
    for s in range(n):
        for d in range(n):
            expected = [
                (tuple(int(v) for v in path), w)
                for path, w in routing.path_distribution(s, d)
            ]
            assert table.distribution(s * n + d) == expected, (routing.name, s, d)
    for i in range(table.num_paths):
        hops = table.channels[table.chan_ptr[i] : table.chan_ptr[i + 1]]
        assert hops.tolist() == pathmod.path_channels(net, table.path(i))


def test_row_flows_accumulate_path_by_path(routing):
    net = routing.network
    n = net.num_nodes
    expected = np.zeros((n * n, net.num_channels))
    for s in range(n):
        for d in range(n):
            for path, prob in routing.path_distribution(s, d):
                for c in pathmod.path_channels(net, path):
                    expected[s * n + d, c] += prob
    assert np.array_equal(
        routing.path_table().row_flows(net.num_channels), expected
    )


def test_without_loops_matches_remove_loops():
    net = Torus(3, 2)
    rng = np.random.default_rng(0)
    walks = []
    for _ in range(300):
        walk = [int(rng.integers(net.num_nodes))]
        for _ in range(int(rng.integers(0, 12))):
            walk.append(int(rng.choice(net.neighbors(walk[-1]))))
        walks.append(tuple(walk))
    table = PathTable.from_distributions(net, [[(w, 1.0) for w in walks]])
    erased = table.without_loops()
    assert erased.num_paths == len(walks)
    for i, walk in enumerate(walks):
        cut = pathmod.remove_loops(walk)
        assert erased.path(i) == cut
        hops = erased.channels[erased.chan_ptr[i] : erased.chan_ptr[i + 1]]
        assert hops.tolist() == pathmod.path_channels(net, cut)


def test_non_adjacent_hop_rejected():
    net = Torus(4, 2)
    with pytest.raises(KeyError, match="no channel 0 -> 2"):
        PathTable.from_distributions(net, [[((0, 2), 1.0)]])
