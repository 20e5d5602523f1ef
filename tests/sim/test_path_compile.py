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
from repro.sim.vectorized import VectorizedSimulator, choice_cdfs
from repro.topology import Torus
from repro.traffic import uniform
from tests.sim.conftest import SIM_ALGORITHMS


def _per_pair_cdf(weights) -> np.ndarray:
    """The reference simulator's choice-CDF chain for one pair."""
    probs = np.asarray(weights)
    probs = probs / probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _per_pair_compile(algorithm, traffic):
    """``(chan_flat, path_start, path_len, pair_base, path_keys)`` built
    pair by pair, path by path."""
    net = algorithm.network
    n = net.num_nodes
    pair_base = np.full(n * n, -1, dtype=np.int64)
    starts, lens, chans, keys = [], [], [], []
    for s, d in np.argwhere(traffic > 0.0):
        s, d = int(s), int(d)
        if s == d:
            continue
        dist = algorithm.path_distribution(s, d)
        pair_base[s * n + d] = len(lens)
        for path, _ in dist:
            hops = path_channels(net, path)
            starts.append(len(chans))
            lens.append(len(hops))
            chans.extend(hops)
        # A path's key: its pair's first path id above the 32-bit cut
        # of its CDF entry.
        cuts = np.floor(_per_pair_cdf([w for _, w in dist]) * 2.0**32)
        keys.extend((int(pair_base[s * n + d]) << 33) | int(c) for c in cuts)
    return (
        np.asarray(chans, dtype=np.int32),
        np.asarray(starts, dtype=np.int32),
        np.asarray(lens, dtype=np.int32),
        pair_base,
        np.asarray(keys, dtype=np.uint64),
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
    chans, starts, lens, pair_base, keys = _per_pair_compile(
        algorithm, traffic
    )
    for name, expected in (
        ("_chan_flat", chans),
        ("_path_start", starts),
        ("_path_len", lens),
        ("_pair_base", pair_base),
        ("_path_keys", keys),
    ):
        got = getattr(sim, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize(
    "name", sorted(SIM_ALGORITHMS) + ["DOR+faults", "VAL+faults"]
)
def test_choice_cdfs_match_per_pair_chain(make_sim_case, k, name):
    # Every routing of the sim fixtures, plus degraded ones whose pairs
    # carry spliced detour paths: the padded block build equals the
    # per-pair chain bit for bit on every routable pair.
    torus, algorithm, _ = make_sim_case(k, name.split("+")[0])
    if name.endswith("+faults"):
        faults = random_faults(torus, np.random.default_rng(k), 2)
        algorithm = degrade_routing(algorithm, degrade(torus, faults))
    n = torus.num_nodes
    table = algorithm.path_table()
    pairs = np.flatnonzero(table.row_counts)
    pairs = pairs[pairs % (n + 1) != 0]  # self-pairs never draw a path
    paths = table.take_rows(pairs)
    got = choice_cdfs(paths.prob, paths.row_ptr)
    assert got.shape == (pairs.size, int(paths.row_counts.max()))
    for row, pair in enumerate(pairs.tolist()):
        dist = algorithm.path_distribution(pair // n, pair % n)
        want = _per_pair_cdf([w for _, w in dist])
        assert np.array_equal(got[row, : want.size], want), pair
        assert np.isinf(got[row, want.size :]).all(), pair
