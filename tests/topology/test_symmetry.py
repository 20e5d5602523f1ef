"""Unit tests for translation/point-symmetry machinery."""

import numpy as np
import pytest

from repro.topology import Torus, TranslationGroup, stabilizer_maps
from repro.topology.symmetry import point_group_generators
from repro.topology.symmetry import symmetrize_canonical_flows


@pytest.fixture(scope="module")
def t4():
    return Torus(4, 2)


@pytest.fixture(scope="module")
def g4(t4):
    return TranslationGroup(t4)


class TestTranslationGroup:
    def test_node_sum_matches_add(self, t4, g4):
        rng = np.random.default_rng(0)
        a = rng.integers(0, t4.num_nodes, 30)
        b = rng.integers(0, t4.num_nodes, 30)
        assert np.array_equal(g4.node_sum[a, b], t4.add_nodes(a, b))

    def test_node_diff_matches_sub(self, t4, g4):
        rng = np.random.default_rng(1)
        a = rng.integers(0, t4.num_nodes, 30)
        b = rng.integers(0, t4.num_nodes, 30)
        assert np.array_equal(g4.node_diff[a, b], t4.sub_nodes(a, b))

    def test_chan_shift_matches_translate(self, t4, g4):
        for c in range(0, t4.num_channels, 7):
            for s in range(0, t4.num_nodes, 5):
                assert g4.chan_shift[c, s] == t4.translate_channels(c, s)

    def test_untranslate_inverts(self, t4, g4):
        chans = np.arange(t4.num_channels)
        for s in (0, 3, 9):
            shifted = g4.chan_shift[chans, s]
            assert np.array_equal(g4.untranslate_channels(shifted, s), chans)

    def test_commodity_flow_translation(self, t4, g4):
        rng = np.random.default_rng(2)
        x = rng.random((t4.num_nodes, t4.num_channels))
        s, d = 5, 11
        f = g4.commodity_flow(x, s, d)
        t = int(t4.sub_nodes(d, s))
        for c in range(0, t4.num_channels, 5):
            c_canon = int(g4.untranslate_channels(c, s))
            assert f[c] == x[t, c_canon]

    def test_commodity_flow_identity_source(self, t4, g4):
        rng = np.random.default_rng(3)
        x = rng.random((t4.num_nodes, t4.num_channels))
        assert np.array_equal(g4.commodity_flow(x, 0, 7), x[7])


class TestStabilizer:
    def test_group_order(self, t4):
        maps = stabilizer_maps(t4)
        assert len(maps) == 8  # 2^2 * 2! for n = 2

    def test_fixes_origin(self, t4):
        for g in stabilizer_maps(t4):
            assert g.node_map[0] == 0

    def test_node_maps_are_permutations(self, t4):
        for g in stabilizer_maps(t4):
            assert sorted(g.node_map) == list(range(t4.num_nodes))
            assert sorted(g.channel_map) == list(range(t4.num_channels))

    def test_channel_map_is_graph_automorphism(self, t4):
        for g in stabilizer_maps(t4):
            src_img = g.node_map[t4.channel_src]
            dst_img = g.node_map[t4.channel_dst]
            assert np.array_equal(src_img, t4.channel_src[g.channel_map])
            assert np.array_equal(dst_img, t4.channel_dst[g.channel_map])

    def test_identity_present(self, t4):
        maps = stabilizer_maps(t4)
        assert any(
            np.array_equal(g.node_map, np.arange(t4.num_nodes)) for g in maps
        )


@pytest.mark.parametrize(
    "torus",
    [Torus(4, 2), Torus(3, 3), Torus(3, 3, bandwidths=(1.0, 0.5, 1.0))],
    ids=["4x4", "3x3x3", "3x3x3-het"],
)
def test_generators_generate_the_stabilizer(torus):
    def closure(maps):
        seen = {g.channel_map.tobytes(): g.channel_map for g in maps}
        frontier = list(seen.values())
        while frontier:
            nxt = []
            for a in frontier:
                for g in maps:
                    c = g.channel_map[a]
                    if c.tobytes() not in seen:
                        seen[c.tobytes()] = c
                        nxt.append(c)
            frontier = nxt
        return set(seen)

    gens = point_group_generators(torus)
    group = stabilizer_maps(torus)
    assert len(gens) < len(group)
    assert closure(gens) == {g.channel_map.tobytes() for g in group}


class TestSymmetrize:
    def test_preserves_row_sums(self, t4):
        rng = np.random.default_rng(4)
        flows = rng.random((t4.num_nodes, t4.num_channels))
        sym = symmetrize_canonical_flows(t4, flows)
        # total flow per destination-orbit is preserved on average
        assert sym.sum() == pytest.approx(flows.sum())

    def test_fixed_point(self, t4):
        # A constant table is invariant under every automorphism.
        flows = np.ones((t4.num_nodes, t4.num_channels))
        sym = symmetrize_canonical_flows(t4, flows)
        assert np.allclose(sym, flows)

    def test_idempotent(self, t4):
        rng = np.random.default_rng(5)
        flows = rng.random((t4.num_nodes, t4.num_channels))
        once = symmetrize_canonical_flows(t4, flows)
        twice = symmetrize_canonical_flows(t4, once)
        assert np.allclose(once, twice)
