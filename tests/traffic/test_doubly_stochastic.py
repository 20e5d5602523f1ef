"""Unit and property-based tests for doubly-stochastic samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import Hypercube, Torus, TranslationGroup
from repro.topology.symmetry import point_group_generators, stabilizer_maps
from repro.traffic import (
    birkhoff_sample,
    close_under_point_group,
    permutation_matrix,
    random_permutation,
    random_permutations,
    sample_traffic_set,
    sinkhorn_sample,
    uniform,
    validate_doubly_stochastic,
)


class TestValidation:
    def test_accepts_identity(self):
        validate_doubly_stochastic(np.eye(5))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            validate_doubly_stochastic(np.ones((2, 3)) / 3)

    def test_rejects_negative(self):
        m = np.eye(3)
        m[0, 0] = -0.5
        m[0, 1] = 1.5
        with pytest.raises(ValueError, match="negative"):
            validate_doubly_stochastic(m)

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError, match="row sums"):
            validate_doubly_stochastic(np.ones((3, 3)))

    def test_rejects_bad_col_sum(self):
        m = np.zeros((2, 2))
        m[0] = [0.5, 0.5]
        m[1] = [0.9, 0.1]
        with pytest.raises(ValueError, match="column sums"):
            validate_doubly_stochastic(m)


class TestBirkhoff:
    @given(st.integers(min_value=2, max_value=20), st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_always_doubly_stochastic(self, n, r):
        rng = np.random.default_rng(n * 100 + r)
        validate_doubly_stochastic(birkhoff_sample(rng, n, r))

    def test_sparsity_bound(self):
        rng = np.random.default_rng(0)
        m = birkhoff_sample(rng, 32, num_permutations=4)
        assert np.count_nonzero(m) <= 4 * 32

    def test_single_permutation_is_permutation(self):
        rng = np.random.default_rng(1)
        m = birkhoff_sample(rng, 10, num_permutations=1)
        assert set(np.unique(m)) <= {0.0, 1.0}

    def test_rejects_zero_permutations(self):
        with pytest.raises(ValueError):
            birkhoff_sample(np.random.default_rng(0), 4, 0)

    def test_reproducible(self):
        a = birkhoff_sample(np.random.default_rng(7), 8, 3)
        b = birkhoff_sample(np.random.default_rng(7), 8, 3)
        assert np.array_equal(a, b)


class TestSinkhorn:
    @given(st.integers(min_value=2, max_value=16))
    @settings(max_examples=20, deadline=None)
    def test_always_doubly_stochastic(self, n):
        rng = np.random.default_rng(n)
        validate_doubly_stochastic(sinkhorn_sample(rng, n), tol=1e-6)

    def test_dense(self):
        m = sinkhorn_sample(np.random.default_rng(0), 16)
        assert (m > 0).all()

    def test_column_sums_regression(self):
        # Seed 498 at n=2 converges slowly: the pre-fix implementation
        # (row-residual check only, plus an unconditional final row
        # normalize) returned a matrix whose column sums were off by
        # ~1.6e-5 — six orders of magnitude past its own tolerance.
        m = sinkhorn_sample(np.random.default_rng(498), 2)
        validate_doubly_stochastic(m, tol=1e-9)
        assert np.abs(m.sum(axis=0) - 1.0).max() < 1e-9
        assert np.abs(m.sum(axis=1) - 1.0).max() < 1e-9

    def test_both_axes_balanced_tightly(self):
        for seed in (0, 7, 112, 178):
            m = sinkhorn_sample(np.random.default_rng(seed), 8)
            assert np.abs(m.sum(axis=0) - 1.0).max() < 1e-9
            assert np.abs(m.sum(axis=1) - 1.0).max() < 1e-9

    def test_raises_when_not_converged(self):
        with pytest.raises(RuntimeError, match="did not reach"):
            sinkhorn_sample(np.random.default_rng(498), 2, iterations=3)


class TestSampleSet:
    def test_count_and_validity(self):
        rng = np.random.default_rng(0)
        mats = sample_traffic_set(rng, 16, 5)
        assert len(mats) == 5
        for m in mats:
            validate_doubly_stochastic(m)

    def test_sinkhorn_method(self):
        mats = sample_traffic_set(np.random.default_rng(0), 8, 2, "sinkhorn")
        assert len(mats) == 2

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown sampling method"):
            sample_traffic_set(np.random.default_rng(0), 8, 2, "nope")

    def test_zero_count(self):
        with pytest.raises(ValueError, match="positive"):
            sample_traffic_set(np.random.default_rng(0), 8, 0)


class TestRandomPermutations:
    def test_permutation_is_valid(self):
        m = random_permutation(np.random.default_rng(0), 12)
        validate_doubly_stochastic(m)

    def test_fixed_point_free(self):
        for seed in range(10):
            m = random_permutation(
                np.random.default_rng(seed), 6, fixed_point_free=True
            )
            assert np.trace(m) == 0.0

    def test_batch(self):
        mats = random_permutations(np.random.default_rng(0), 8, 4)
        assert len(mats) == 4


class TestCloseUnderPointGroup:
    """``close_under_point_group``: every ``Λ∘g`` once, weights that
    count ``(Λ, g)`` pairs, and the permutation each generator induces."""

    def test_uniform_and_point_symmetric_traffic_close_to_themselves(self):
        torus = Torus(4, 2)
        closed = close_under_point_group([uniform(16)], torus)
        assert len(closed) == 1 and np.array_equal(closed.matrices[0], uniform(16))
        assert closed.weights.tolist() == [1.0]
        assert closed.perms.tolist() == [[0]] * len(point_group_generators(torus))
        # d = -s commutes with every point map: one matrix, again.
        negate = permutation_matrix(TranslationGroup(torus).node_diff[0])
        assert len(close_under_point_group([negate], torus)) == 1

    def test_duplicates_are_merged_and_counted(self):
        torus = Torus(4, 2)
        lam = birkhoff_sample(np.random.default_rng(0), 16, 3)
        once = close_under_point_group([lam], torus)
        twice = close_under_point_group([lam, uniform(16), lam], torus)
        assert len(twice) == len(once) + 1
        assert twice.weights.sum() == pytest.approx(1.0)
        # uniform takes all 8 of its pairs: a third of the 24.
        assert twice.weights[len(once)] == pytest.approx(1 / 3)

    @pytest.mark.parametrize("torus", [Torus(4, 2), Torus(3, 3)], ids=["2d", "3d"])
    def test_closed_with_generator_permutations(self, torus):
        sample = sample_traffic_set(np.random.default_rng(1), torus.num_nodes, 2)
        closed = close_under_point_group(sample, torus)
        maps = stabilizer_maps(torus)
        assert len(closed) <= len(sample) * len(maps)
        assert np.array_equal(closed.matrices[0], sample[0])
        keys = [m.tobytes() for m in closed.matrices]
        assert len(set(keys)) == len(keys)
        for g in maps:  # closed under the whole group
            for mat in closed.matrices:
                img = np.empty_like(mat)
                img[np.ix_(g.node_map, g.node_map)] = mat
                assert img.tobytes() in keys
        gens = point_group_generators(torus)
        assert closed.perms.shape == (len(gens), len(closed))
        for g, perm in zip(gens, closed.perms):
            assert sorted(perm) == list(range(len(closed)))
            for j, mat in enumerate(closed.matrices):
                img = closed.matrices[perm[j]]
                assert np.array_equal(img[np.ix_(g.node_map, g.node_map)], mat)
            # Weights are invariant, so the mean row maps onto itself.
            assert np.array_equal(closed.weights[perm], closed.weights)

    def test_other_topologies_keep_the_sample(self):
        cube = Hypercube(3)
        sample = sample_traffic_set(np.random.default_rng(2), 8, 3)
        closed = close_under_point_group(sample, cube)
        assert closed.perms is None and len(closed) == 3
        assert closed.weights.tolist() == [1 / 3] * 3
