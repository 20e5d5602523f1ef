"""Degraded path tables against the per-pair reroute they replaced.

``DegradedRouting`` derives its whole flat path table from the base
routing's table with array operations.  The oracle here is the per-pair
code it replaced — fetch the base distribution of one commodity, drop
or splice its paths, merge and renormalize — fed by the base routing's
own ``path_distribution``.  Every surviving commodity must come out
bit-identical: same paths, same order, same float weights.
"""

import numpy as np
import pytest

from repro.experiments.engine import DesignTask, FaultSpec
from repro.experiments.faults import mean_path_length, solve_fault_wc
from repro.faults import (
    DisconnectedCommodityError,
    FaultSet,
    degrade,
    degrade_routing,
    random_faults,
)
from repro.routing import IVAL, VAL, DimensionOrderRouting, design_2turn
from repro.routing import paths as pathmod
from repro.sim.vectorized import VectorizedSimulator
from repro.topology import Torus


# ----------------------------------------------------------------------
# Oracle: the per-pair reroute, one commodity at a time
# ----------------------------------------------------------------------
class _Unreachable(Exception):
    pass


def _oracle_hops(net, src, dst):
    dist = net.distance_matrix()
    if dist[src, dst] < 0:
        raise _Unreachable(src, dst)
    hops, cur = [], src
    while cur != dst:
        cur = min(
            int(v) for v in net.neighbors(cur) if dist[v, dst] == dist[cur, dst] - 1
        )
        hops.append(cur)
    return hops


def _oracle_renormalize(net, base):
    kept = [
        (path, w)
        for path, w in base
        if all(net.has_channel(a, b) for a, b in zip(path[:-1], path[1:]))
    ]
    total = sum(w for _, w in kept)
    if not kept or total <= 0.0:
        return None
    return [(path, w / total) for path, w in kept]


def _oracle_detour(net, src, base):
    merged = {}
    for path, w in base:
        waypoints = [v for v in path if net.alive[v]]
        out = [src]
        for nxt in waypoints[1:]:
            cur = out[-1]
            if nxt == cur:
                continue
            if net.has_channel(cur, nxt):
                out.append(nxt)
            else:
                out.extend(_oracle_hops(net, cur, nxt))
        spliced = pathmod.remove_loops(tuple(out))
        merged[spliced] = merged.get(spliced, 0.0) + float(w)
    total = sum(merged.values())
    return [(path, w / total) for path, w in sorted(merged.items())]


def _oracle(net, base_dists, mode):
    """``(s, d) -> distribution`` over alive pairs; a lost commodity maps
    to ``None`` (renormalize) or to the ``(a, b)`` waypoint gap no
    detour bridges (detour)."""
    out = {}
    for (s, d), base in base_dists.items():
        if s == d or not (net.alive[s] and net.alive[d]):
            continue
        if mode == "renormalize":
            out[(s, d)] = _oracle_renormalize(net, base)
            continue
        try:
            out[(s, d)] = _oracle_detour(net, s, base)
        except _Unreachable as gap:
            out[(s, d)] = gap.args
    return out


def _lost(dist):
    return dist is None or isinstance(dist, tuple)


def _oracle_flows(net, dists):
    flows = np.zeros((net.num_nodes, net.num_nodes, net.num_channels))
    for (s, d), dist in dists.items():
        for path, prob in dist:
            for c in pathmod.path_channels(net, path):
                flows[s, d, c] += prob
    return flows


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
ALGORITHMS = ("DOR", "VAL", "IVAL", "2TURN")


@pytest.fixture(scope="module")
def bases():
    """``k -> (torus, {name: (routing, {(s, d): base distribution})})``."""
    out = {}
    for k in (3, 4, 5):
        torus = Torus(k, 2)
        algs = {
            "DOR": DimensionOrderRouting(torus),
            "VAL": VAL(torus),
            "IVAL": IVAL(torus),
            "2TURN": design_2turn(torus).routing,
        }
        n = torus.num_nodes
        out[k] = (
            torus,
            {
                name: (
                    alg,
                    {
                        (s, d): alg.path_distribution(s, d)
                        for s in range(n)
                        for d in range(n)
                    },
                )
                for name, alg in algs.items()
            },
        )
    return out


def _fault_sets(torus):
    """Every prefix of three seeded fault sequences, plus a dead node."""
    sets = {()}
    for seed in (11, 12, 13):
        seq = random_faults(torus, np.random.default_rng(seed), 2).channels
        sets.update(seq[:f] for f in range(len(seq) + 1))
    return [FaultSet(channels=c) for c in sorted(sets)] + [
        FaultSet(nodes=(torus.num_nodes // 2,))
    ]


def _lost_message(pair, dist):
    s, d = pair
    message = rf"commodity \({s}, {d}\)"
    if dist is not None:
        message += rf".*no surviving route from {dist[0]} to {dist[1]} "
    return message


def _assert_matches(routing, net, expected):
    """Every routable pair matches; every lost one, and only it, raises."""
    for pair, dist in expected.items():
        if _lost(dist):
            with pytest.raises(
                DisconnectedCommodityError, match=_lost_message(pair, dist)
            ):
                routing.path_distribution(*pair)
        else:
            assert routing.path_distribution(*pair) == dist, pair
    lost = sorted(pair for pair, dist in expected.items() if _lost(dist))
    if lost:
        with pytest.raises(
            DisconnectedCommodityError,
            match=_lost_message(lost[0], expected[lost[0]]),
        ):
            routing.full_flows()
        return
    np.testing.assert_allclose(
        routing.full_flows(), _oracle_flows(net, expected), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("mode", ["detour", "renormalize"])
@pytest.mark.parametrize("alg", ALGORITHMS)
@pytest.mark.parametrize("k", [3, 4, 5])
def test_degraded_table_matches_per_pair_reroute(bases, k, alg, mode):
    torus, algs = bases[k]
    base, base_dists = algs[alg]
    for faults in _fault_sets(torus):
        net = degrade(torus, faults)
        routing = degrade_routing(base, net, mode=mode)
        _assert_matches(routing, net, _oracle(net, base_dists, mode))


def test_renormalized_dor_names_the_lost_commodity(bases):
    torus, algs = bases[3]
    dor, base_dists = algs["DOR"]
    net = degrade(torus, FaultSet(channels=(2,)))
    expected = _oracle(net, base_dists, "renormalize")
    s, d = min(pair for pair, dist in expected.items() if dist is None)
    routing = degrade_routing(dor, net, mode="renormalize")
    with pytest.raises(DisconnectedCommodityError, match=rf"commodity \({s}, {d}\)"):
        routing.path_distribution(s, d)
    with pytest.raises(DisconnectedCommodityError, match="try reroute='detour'"):
        routing.full_flows()


def test_lost_commodity_leaves_the_others_routable(bases):
    torus, algs = bases[3]
    dor, base_dists = algs["DOR"]
    net = degrade(torus, FaultSet(channels=(2,)))
    expected = _oracle(net, base_dists, "renormalize")
    routing = degrade_routing(dor, net, mode="renormalize")
    lost = [pair for pair, dist in expected.items() if dist is None]
    kept = [pair for pair, dist in expected.items() if dist is not None]
    assert lost and kept
    # Ask for a routable pair first, so nothing was raised before.
    assert routing.path_distribution(*kept[0]) == expected[kept[0]]
    routing.validate(kept)
    # Shift permutations d = s + t (mod N): one avoids every lost
    # commodity and simulates, one does not and raises.
    n = torus.num_nodes
    shifts = {
        t: [(s, (s + t) % n) for s in range(n)] for t in range(1, n)
    }
    clear = [t for t, pairs in shifts.items() if not set(pairs) & set(lost)]
    blocked = [t for t in shifts if t not in clear]
    assert clear and blocked
    pairs = shifts[clear[0]]
    traffic = np.zeros((n, n))
    traffic[tuple(np.asarray(pairs).T)] = 1.0
    sim = VectorizedSimulator(routing, traffic)
    assert (sim._npaths[[s * n + d for s, d in pairs]] == 1).all()
    first = min(set(shifts[blocked[0]]) & set(lost))
    traffic = np.zeros((n, n))
    traffic[tuple(np.asarray(shifts[blocked[0]]).T)] = 1.0
    with pytest.raises(
        DisconnectedCommodityError, match=_lost_message(first, None)
    ):
        VectorizedSimulator(routing, traffic)


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_detour_loses_only_commodities_across_components(bases, alg):
    # Cut node 4 off without failing it: commodities to, from or planned
    # through it cannot be detoured (for VAL and 2TURN that is every
    # commodity), every other one still can.
    torus, algs = bases[3]
    base, base_dists = algs[alg]
    cut = np.flatnonzero((torus.channel_src == 4) | (torus.channel_dst == 4))
    net = degrade(
        torus, FaultSet(channels=tuple(cut.tolist())), require_connected=False
    )
    expected = _oracle(net, base_dists, "detour")
    lost = [pair for pair, dist in expected.items() if _lost(dist)]
    assert lost
    assert alg in ("VAL", "2TURN") or len(lost) < len(expected)
    _assert_matches(degrade_routing(base, net), net, expected)


def test_failed_endpoint_rows_are_empty(bases):
    torus, algs = bases[3]
    net = degrade(torus, FaultSet(nodes=(4,)))
    routing = degrade_routing(algs["VAL"][0], net)
    table = routing.path_table()
    n = torus.num_nodes
    counts = table.row_counts.reshape(n, n)
    assert not counts[4, np.arange(n) != 4].any()
    assert not counts[np.arange(n) != 4, 4].any()
    assert routing.full_flows()[4].sum() == 0.0


def _oracle_mean_path_length(net, expected):
    alive = [int(v) for v in net.alive_nodes]
    return np.mean(
        [
            sum(p * (len(path) - 1) for path, p in expected[(s, d)])
            for s in alive
            for d in alive
            if s != d
        ]
    )


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_fault_wc_path_length_matches_per_pair_mean(bases, alg):
    torus, algs = bases[4]
    base, base_dists = algs[alg]
    faults = random_faults(torus, np.random.default_rng(5), 2).channels
    task = DesignTask(kind="fault_wc", k=4, n=2, spec=FaultSpec(alg, faults))
    _, apl, _, payload = solve_fault_wc(task)
    assert not payload["disconnected"]
    net = degrade(torus, FaultSet(channels=faults))
    expected = _oracle_mean_path_length(net, _oracle(net, base_dists, "detour"))
    assert apl == pytest.approx(expected, rel=0, abs=1e-12)
    # A dead node's commodities are left out of the mean.
    net = degrade(torus, FaultSet(nodes=(5,)))
    expected = _oracle_mean_path_length(net, _oracle(net, base_dists, "detour"))
    apl = mean_path_length(degrade_routing(base, net), net)
    assert apl == pytest.approx(expected, rel=0, abs=1e-12)
