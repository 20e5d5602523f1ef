"""Unit tests for VAL and IVAL (paper Section 5.2)."""

import numpy as np
import pytest

from repro.routing import IVAL, VAL
from repro.routing.base import ObliviousRouting
from repro.routing.valiant import Valiant
from repro.routing.paths import count_turns, path_length
from repro.topology import Torus


@pytest.fixture(scope="module")
def t6():
    return Torus(6, 2)


@pytest.fixture(scope="module")
def val6(t6):
    return VAL(t6)


@pytest.fixture(scope="module")
def ival6(t6):
    return IVAL(t6)


class TestVAL:
    def test_distribution_normalized(self, val6):
        val6.validate(pairs=[(0, d) for d in range(1, 36, 5)])

    def test_trivial_pair(self, val6):
        assert val6.path_distribution(3, 3) == [((3,), 1.0)]

    def test_path_length_twice_minimal(self, val6):
        # For every pair s != d, VAL's expected path length is
        # E_i[d(s,i) + d(i,d)] = 2 * mean distance; the N diagonal pairs
        # contribute zero, giving an exact factor of 2 (N-1)/N.
        t = val6.network
        n = t.num_nodes
        expected = 2 * t.mean_min_distance() * (n - 1) / n
        assert val6.average_path_length() == pytest.approx(expected, rel=1e-9)

    def test_normalized_locality_near_two(self, val6):
        n = val6.network.num_nodes
        assert val6.normalized_path_length() == pytest.approx(2 * (n - 1) / n)

    def test_uniform_loads_balanced(self, val6):
        # VAL load under ANY pattern equals its uniform load; check that
        # canonical flows spread symmetrically over direction classes.
        t = val6.network
        x = val6.canonical_flows
        class_totals = [
            x[:, t.class_members(cls)].sum() for cls in range(t.num_classes)
        ]
        assert np.allclose(class_totals, class_totals[0])


class TestIVAL:
    def test_distribution_normalized(self, ival6):
        ival6.validate(pairs=[(0, d) for d in range(1, 36, 5)])

    def test_shorter_than_val(self, val6, ival6):
        assert ival6.average_path_length() < val6.average_path_length()

    def test_no_node_revisits(self, ival6):
        for d in range(1, 36, 7):
            for path, _ in ival6.path_distribution(0, d):
                assert len(set(path)) == len(path)

    def test_at_most_two_turns(self, ival6):
        # Loop-removed two-phase XY/YX paths have at most two turns
        # (Section 5.2: "every path in IVAL also has at most two turns").
        t = ival6.network
        for d in range(1, 36, 3):
            for path, _ in ival6.path_distribution(0, d):
                assert count_turns(t, path) <= 2

    def test_paper_locality_8ary(self):
        # Paper: IVAL ~= 1.61x minimal on the 8-ary 2-cube.
        ival = IVAL(Torus(8, 2))
        assert ival.normalized_path_length() == pytest.approx(1.61, abs=0.02)

    def test_loads_dominated_by_val(self, t6, val6, ival6):
        # Removing loops only removes channel crossings: IVAL flows are
        # pointwise <= VAL-with-reversed-phase flows... compare the total.
        assert ival6.canonical_flows.sum() < val6.canonical_flows.sum()


class TestValiantVariants:
    def test_reverse_without_removal_keeps_length(self, t6, val6):
        from repro.routing.valiant import Valiant

        rev = Valiant(t6, reverse_second_phase=True, name="VAL-rev")
        assert rev.average_path_length() == pytest.approx(
            val6.average_path_length()
        )

    def test_removal_without_reverse_helps_less(self, t6, ival6):
        from repro.routing.valiant import Valiant

        plain_removed = Valiant(t6, remove_loops=True, name="VAL-rm")
        # Reversing the second phase creates more loops to remove, so
        # IVAL must be at least as short.
        assert (
            ival6.average_path_length()
            <= plain_removed.average_path_length() + 1e-12
        )


class TestConvolvedFlows:
    """VAL's flows are computed by convolving its two DOR phases; they
    must equal the path-enumeration flows of the base class."""

    @pytest.mark.parametrize(
        "torus",
        [
            Torus(3, 2),
            Torus(4, 2),
            Torus(5, 2),
            Torus(3, 3),
            Torus(4, 3, bandwidths=(1.0, 1.0, 0.5)),
            Torus(5, 2, bandwidths=(2.0, 1.0)),
        ],
        ids=["3x3", "4x4", "5x5", "3x3x3", "4x4x4-hetero", "5x5-hetero"],
    )
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_enumeration(self, torus, reverse):
        alg = Valiant(torus, reverse_second_phase=reverse)
        enumerated = ObliviousRouting.canonical_flows.func(alg)
        np.testing.assert_allclose(
            alg.canonical_flows, enumerated, rtol=1e-12, atol=1e-15
        )
        assert not alg.canonical_flows[0].any()

    def test_ival_still_enumerates(self):
        torus = Torus(4, 2)
        alg = IVAL(torus)
        np.testing.assert_array_equal(
            alg.canonical_flows, ObliviousRouting.canonical_flows.func(alg)
        )
