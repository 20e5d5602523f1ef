"""The simulator's path compile reads the routing's flat path table.

The oracle is the per-pair construction the table replaced: one
``path_distribution`` and one ``path_channels`` call per path, then the
reference simulator's CDF normalization chain.  Every compiled array
must come out bit for bit the same, so every draw stays the same.
"""

import numpy as np
import pytest

from repro.faults import FaultSet, degrade, degrade_routing, random_faults
from repro.routing import VAL, design_2turn
from repro.routing.paths import path_channels
from repro.sim.vectorized import VectorizedSimulator
from repro.topology import Torus
from repro.traffic import uniform


def _per_pair_compile(algorithm, traffic):
    """``(chan_flat, path_start, path_len, npaths, pair_base, cdf)`` built
    pair by pair, path by path."""
    net = algorithm.network
    n = net.num_nodes
    npaths = np.full(n * n, -1, dtype=np.int64)
    npaths[np.arange(n) * (n + 1)] = 1
    pair_base = np.full(n * n, -1, dtype=np.int64)
    starts, lens, chans, cdfs = [], [], [], {}
    for s, d in np.argwhere(traffic > 0.0):
        s, d = int(s), int(d)
        if s == d:
            continue
        dist = algorithm.path_distribution(s, d)
        pair_base[s * n + d] = len(lens)
        npaths[s * n + d] = len(dist)
        for path, _ in dist:
            hops = path_channels(net, path)
            starts.append(len(chans))
            lens.append(len(hops))
            chans.extend(hops)
        probs = np.asarray([w for _, w in dist])
        probs = probs / probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        cdfs[s * n + d] = cdf
    width = max(len(c) for c in cdfs.values())
    cdf_table = np.full((n * n, width), np.inf)
    for key, cdf in cdfs.items():
        cdf_table[key, : len(cdf)] = cdf
    return (
        np.asarray(chans, dtype=np.int32),
        np.asarray(starts, dtype=np.int32),
        np.asarray(lens, dtype=np.int32),
        npaths,
        pair_base,
        cdf_table,
    )


@pytest.fixture(scope="module")
def t4():
    return Torus(4, 2)


def _cases(t4):
    faulted = degrade(t4, random_faults(t4, np.random.default_rng(100), 2))
    return {
        "intact VAL": VAL(t4),
        "intact VAL+detour": degrade_routing(VAL(t4), degrade(t4, FaultSet())),
        "faulted 2TURN+detour": degrade_routing(
            design_2turn(t4).routing, faulted
        ),
    }


@pytest.mark.parametrize(
    "case", ["intact VAL", "intact VAL+detour", "faulted 2TURN+detour"]
)
def test_compile_matches_per_pair_construction(t4, case):
    algorithm = _cases(t4)[case]
    traffic = uniform(t4.num_nodes)
    sim = VectorizedSimulator(algorithm, traffic)
    chans, starts, lens, npaths, pair_base, cdf = _per_pair_compile(
        algorithm, traffic
    )
    for name, expected in (
        ("_chan_flat", chans),
        ("_path_start", starts),
        ("_path_len", lens),
        ("_npaths", npaths),
        ("_pair_base", pair_base),
        ("_cdf", cdf),
    ):
        got = getattr(sim, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name
