"""Kernel assembly against enumeration oracles, spectral summaries, invariants."""

import numpy as np
import pytest
import scipy.stats

from spectel import (
    CondContext,
    DomainError,
    EMPTY_CONTEXT,
    FiniteTarget,
    NumericalContractError,
    ResourceLimitError,
    STATE_CAP,
    WeightedKernel,
    gibbs_kernel,
    product_target,
    random_target,
    random_walk_kernel,
    sample_gibbs_chain,
    spectral_summary,
    supported_contexts,
)
from spectel.kernels import (
    _gibbs_spectra,
    _gibbs_stack,
    _gram_order,
    _gram_stack,
    _spectral_stack,
)

from conftest import (
    altered_random_walk_kernel,
    coupled_pair_target,
    indexed_states,
    oracle_gap,
    oracle_gibbs_chain,
    oracle_gibbs_matrix,
    oracle_rw_matrix,
    peak,
    random_small_target,
    recursive_gibbs_kernel,
)


def assert_reversible(kernel, tol=1e-12):
    flux = kernel.weights[:, None] * kernel.matrix
    assert np.abs(flux - flux.T).max() <= tol


class TestGibbsKernel:
    def test_full_block_rows_equal_weights(self, rng):
        t = random_small_target(rng)
        k = gibbs_kernel(t, EMPTY_CONTEXT, t.n)
        np.testing.assert_allclose(
            k.matrix, np.tile(k.weights, (k.order, 1)), atol=1e-14
        )
        assert spectral_summary(k).gap == pytest.approx(1.0, abs=1e-12)

    def test_product_pair_single_site_gap_half(self):
        t = product_target([np.array([0.4, 0.6]), np.array([0.3, 0.7])])
        k = gibbs_kernel(t, EMPTY_CONTEXT, 1)
        # Independent eigendecomposition oracle on the same matrix.
        assert oracle_gap(k.matrix, k.weights) == pytest.approx(0.5, abs=1e-12)
        assert spectral_summary(k).gap == pytest.approx(0.5, abs=1e-12)

    def test_hand_assembled_two_by_two(self):
        t = FiniteTarget([2, 2], [0.1, 0.2, 0.3, 0.4])
        # Resample coordinate 1 given coordinate 2; rows indexed (x1, x2).
        p1_given_x2 = {0: [0.1 / 0.4, 0.3 / 0.4], 1: [0.2 / 0.6, 0.4 / 0.6]}
        p2_given_x1 = {0: [0.1 / 0.3, 0.2 / 0.3], 1: [0.3 / 0.7, 0.4 / 0.7]}
        states = [(0, 0), (0, 1), (1, 0), (1, 1)]
        expected = np.zeros((4, 4))
        for a, (x1, x2) in enumerate(states):
            for b, (z1, z2) in enumerate(states):
                if z2 == x2:
                    expected[a, b] += 0.5 * p1_given_x2[x2][z1]
                if z1 == x1:
                    expected[a, b] += 0.5 * p2_given_x1[x1][z2]
        k = gibbs_kernel(t, EMPTY_CONTEXT, 1)
        np.testing.assert_allclose(k.matrix, expected, atol=1e-14)

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(4):
            t = random_small_target(rng, n_choices=(3,), axes_choices=(2, 3))
            for ctx in [EMPTY_CONTEXT, CondContext((2,), (0,))]:
                m = t.n - ctx.size
                for l in range(1, m + 1):
                    k = gibbs_kernel(t, ctx, l)
                    mat, w, _ = oracle_gibbs_matrix(t, ctx.lam, ctx.y, l)
                    np.testing.assert_allclose(k.matrix, mat, atol=1e-13)
                    np.testing.assert_allclose(k.weights, w, atol=1e-13)

    def test_oracle_match_with_zero_mass_states(self):
        probs = np.array([0.25, 0.0, 0.05, 0.1, 0.0, 0.2, 0.15, 0.25])
        t = FiniteTarget([2, 2, 2], probs)
        for l in (1, 2):
            k = gibbs_kernel(t, EMPTY_CONTEXT, l)
            mat, w, _ = oracle_gibbs_matrix(t, (), (), l)
            np.testing.assert_allclose(k.matrix, mat, atol=1e-13)
            assert_reversible(k)

    def test_reversibility_and_stationarity(self, rng):
        for _ in range(5):
            t = random_small_target(rng)
            for ctx in [EMPTY_CONTEXT, next(supported_contexts(t, 1))]:
                k = gibbs_kernel(t, ctx, 1)
                assert_reversible(k)
                np.testing.assert_allclose(
                    k.weights @ k.matrix, k.weights, atol=1e-10
                )

    def test_unsupported_context_rejected(self):
        t = FiniteTarget([2, 2], [0.5, 0.5, 0.0, 0.0])
        with pytest.raises(DomainError):
            gibbs_kernel(t, CondContext((1,), (1,)), 1)

    def test_block_size_range(self):
        t = FiniteTarget([2, 2], [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(DomainError):
            gibbs_kernel(t, EMPTY_CONTEXT, 0)
        with pytest.raises(DomainError):
            gibbs_kernel(t, EMPTY_CONTEXT, 3)

    def test_state_cap(self):
        t = FiniteTarget([150, 150], np.full(22500, 1.0 / 22500))
        with pytest.raises(ResourceLimitError):
            gibbs_kernel(t, EMPTY_CONTEXT, 1)


class TestRecursiveGibbs:
    def test_base_case_is_full_block(self, rng):
        t = random_small_target(rng)
        ctx = next(supported_contexts(t, t.n - 1))
        direct = gibbs_kernel(t, ctx, 1)
        rec = recursive_gibbs_kernel(t, ctx, 1)
        np.testing.assert_allclose(rec.matrix, direct.matrix, atol=1e-15)

    def test_three_coordinate_site_updates(self, rng):
        t = random_small_target(rng, n_choices=(3,))
        direct = gibbs_kernel(t, EMPTY_CONTEXT, 1)
        rec = recursive_gibbs_kernel(t, EMPTY_CONTEXT, 1)
        assert np.abs(direct.matrix - rec.matrix).max() <= 1e-12

    def test_four_coordinate_pair_blocks_with_context(self, rng):
        t = random_small_target(rng, n_choices=(4,), axes_choices=(2, 3))
        ctx = CondContext((4,), (0,))
        direct = gibbs_kernel(t, ctx, 2)
        rec = recursive_gibbs_kernel(t, ctx, 2)
        assert np.abs(direct.matrix - rec.matrix).max() <= 1e-12

    def test_all_contexts_all_block_sizes(self, rng):
        for _ in range(3):
            t = random_small_target(rng, n_choices=(3, 4), axes_choices=(2, 3))
            for size in range(t.n):
                for ctx in supported_contexts(t, size):
                    m = t.n - size
                    for l in range(1, m + 1):
                        direct = gibbs_kernel(t, ctx, l)
                        rec = recursive_gibbs_kernel(t, ctx, l)
                        assert np.abs(direct.matrix - rec.matrix).max() <= 1e-12

    def test_equivalence_survives_zero_mass_states(self):
        probs = np.array([0.25, 0.0, 0.05, 0.1, 0.0, 0.2, 0.15, 0.25])
        t = FiniteTarget([2, 2, 2], probs)
        for l in (1, 2):
            direct = gibbs_kernel(t, EMPTY_CONTEXT, l)
            rec = recursive_gibbs_kernel(t, EMPTY_CONTEXT, l)
            assert np.abs(direct.matrix - rec.matrix).max() <= 1e-12


class TestRandomWalk:
    def test_product_pair_gap_half(self):
        t = product_target([np.array([0.4, 0.6]), np.array([0.3, 0.7])])
        k = random_walk_kernel(t, EMPTY_CONTEXT)
        assert spectral_summary(k).gap == pytest.approx(0.5, abs=1e-12)

    def test_fully_coupled_pair_gap_zero(self):
        k = random_walk_kernel(coupled_pair_target(), EMPTY_CONTEXT)
        assert spectral_summary(k).gap == pytest.approx(0.0, abs=1e-12)

    def test_stationarity(self, rng):
        for _ in range(5):
            t = random_small_target(rng)
            k = random_walk_kernel(t, EMPTY_CONTEXT)
            np.testing.assert_allclose(k.weights @ k.matrix, k.weights, atol=1e-12)
            assert_reversible(k)

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(3):
            t = random_small_target(rng, n_choices=(3,), axes_choices=(2, 3))
            for ctx in [EMPTY_CONTEXT, CondContext((1,), (0,))]:
                k = random_walk_kernel(t, ctx)
                mat, w, states = oracle_rw_matrix(t, ctx.lam, ctx.y)
                assert states == indexed_states(t, ctx)
                np.testing.assert_allclose(k.matrix, mat, atol=1e-13)
                np.testing.assert_allclose(k.weights, w, atol=1e-13)

    def test_needs_two_free_coordinates(self):
        t = FiniteTarget([2, 2], [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(DomainError):
            random_walk_kernel(t, CondContext((1,), (0,)))


class TestAlteredRandomWalk:
    def test_product_target_is_rank_one(self, rng):
        t = product_target([np.array([0.4, 0.6]), np.array([0.3, 0.7]), np.array([0.2, 0.8])])
        k = altered_random_walk_kernel(t, EMPTY_CONTEXT)
        np.testing.assert_allclose(k.matrix, np.tile(k.weights, (k.order, 1)), atol=1e-14)
        assert spectral_summary(k).norm == pytest.approx(0.0, abs=1e-12)

    def test_identity_on_componentwise_mean_zero(self, rng):
        for _ in range(5):
            t = random_small_target(rng)
            for ctx in [EMPTY_CONTEXT, next(supported_contexts(t, 1))]:
                m = t.n - ctx.size
                if m < 2:
                    continue
                walk = random_walk_kernel(t, ctx)
                altered = altered_random_walk_kernel(t, ctx)
                states = indexed_states(t, ctx)
                funcs = rng.normal(size=(walk.order, 100))
                # Project each coordinate component to zero weighted mean.
                for i in sorted({s[0] for s in states}):
                    sel = np.array([s[0] == i for s in states])
                    w = walk.weights[sel]
                    w = w / w.sum()
                    funcs[sel] -= w @ funcs[sel]
                resid = walk.matrix @ funcs - altered.matrix @ funcs - funcs / m
                assert np.abs(resid).max() <= 1e-12

    def test_stationarity(self, rng):
        t = random_small_target(rng)
        k = altered_random_walk_kernel(t, EMPTY_CONTEXT)
        np.testing.assert_allclose(k.weights @ k.matrix, k.weights, atol=1e-12)
        assert_reversible(k)


class TestSpectralSummary:
    def test_identity_has_zero_gap(self):
        k = WeightedKernel(np.eye(3), np.array([0.2, 0.3, 0.5]))
        assert spectral_summary(k).gap == pytest.approx(0.0, abs=1e-14)

    def test_rank_one_projector_has_gap_one(self):
        w = np.array([0.2, 0.3, 0.5])
        k = WeightedKernel(np.tile(w, (3, 1)), w)
        s = spectral_summary(k)
        assert s.gap == pytest.approx(1.0, abs=1e-14)
        assert s.min_eigenvalue == pytest.approx(0.0, abs=1e-14)

    def test_two_state_closed_form(self):
        a, b = 0.3, 0.6
        matrix = np.array([[1 - a, a], [b, 1 - b]])
        weights = np.array([b, a]) / (a + b)
        s = spectral_summary(WeightedKernel(matrix, weights))
        assert s.norm == pytest.approx(abs(1 - a - b), abs=1e-14)
        assert s.gap == pytest.approx(0.9, abs=1e-14)

    def test_non_reversible_kernel_rejected(self):
        matrix = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        k = WeightedKernel(matrix, np.full(3, 1 / 3))
        with pytest.raises(NumericalContractError):
            spectral_summary(k)

    def test_zero_weight_states_dropped(self):
        # A state with zero mass may carry arbitrary outgoing probabilities.
        matrix = np.array([[0.6, 0.4, 0.0], [0.4, 0.6, 0.0], [0.3, 0.3, 0.4]])
        weights = np.array([0.5, 0.5, 0.0])
        s = spectral_summary(WeightedKernel(matrix, weights))
        assert s.norm == pytest.approx(0.2, abs=1e-14)


class TestPsdCheck:
    def test_gibbs_kernels_are_psd(self, rng):
        for _ in range(5):
            t = random_small_target(rng)
            for l in range(1, t.n + 1):
                bottom = spectral_summary(gibbs_kernel(t, EMPTY_CONTEXT, l)).min_eigenvalue
                assert -1e-10 <= bottom <= 0.0
        # A rank-one kernel whose deflated bottom rounds to 2.1e-17: it reads 0.0.
        t = random_target((2,) * 6, np.random.default_rng(0))
        ctx = CondContext((1, 2, 3, 4, 5), (0, 0, 1, 1, 1))
        bottom = spectral_summary(gibbs_kernel(t, ctx, 1)).min_eigenvalue
        assert -1e-10 <= bottom <= 0.0

    def test_rank_one_projector_min_zero(self):
        w = np.array([0.5, 0.5])
        k = WeightedKernel(np.tile(w, (2, 1)), w)
        assert spectral_summary(k).min_eigenvalue == pytest.approx(0.0, abs=1e-14)

    def test_lazy_two_state_min_eigenvalue_is_zero(self):
        # Eigenvalues 1 and 1/2: deflating the constant leaves 0 and 1/2, so
        # min_eigenvalue is min(lambda_min, 0) = 0, not 1/2.
        lazy = WeightedKernel(np.array([[0.75, 0.25], [0.25, 0.75]]), np.array([0.5, 0.5]))
        assert spectral_summary(lazy).min_eigenvalue == pytest.approx(0.0, abs=1e-14)

    def test_antidiagonal_swap_is_minus_one(self):
        k = WeightedKernel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
        assert spectral_summary(k).min_eigenvalue == pytest.approx(-1.0, abs=1e-14)


def dirichlet_stack(rng, shape, size=3):
    return rng.dirichlet(np.ones(int(np.prod(shape))), size=size).reshape((size,) + shape)


class TestGramStack:
    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2)])
    def test_matches_dense_route(self, shape, rng):
        weights = dirichlet_stack(rng, shape)
        for l in range(1, len(shape)):
            norm, gap, bottom = _gram_stack(weights, l)
            dense_norm, dense_gap, _ = _spectral_stack(
                _gibbs_stack(weights, l), weights.reshape(len(weights), -1)
            )
            assert np.abs(norm - dense_norm).max() <= 1e-12, l
            assert np.abs(gap - dense_gap).max() <= 1e-12, l
            assert ((bottom <= 0.0) & (bottom >= -1e-12)).all(), l

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4)])
    def test_route_follows_each_context_not_its_stack(self, shape, rng):
        # A zero weight sends its own context to the dense route and no other;
        # the rest take the Gram route, and every context's bits are its own.
        l = len(shape) - 1
        assert _gram_order(shape, l) < np.prod(shape)
        weights = dirichlet_stack(rng, shape, size=4)
        weights[(1,) + (0,) * len(shape)] = 0.0
        weights[1] /= weights[1].sum()
        stacked = _gibbs_spectra(weights, l)
        for b in range(len(weights)):
            single = _gibbs_spectra(weights[b : b + 1], l)
            assert [part[0] for part in single] == [part[b] for part in stacked]

    def test_many_kept_sets_stay_within_the_dense_footprint(self, rng):
        # (2,)^10 at l = 7 has C(120, 2) = 7,140 pairs of kept sets against
        # N = 1,024 states; building every pair's codes at once would take
        # about 58 MB per array against an 8 MB dense kernel.
        shape, l = (2,) * 10, 7
        assert _gram_order(shape, l) < np.prod(shape)
        weights = dirichlet_stack(rng, shape, size=1)
        flat = weights.reshape(1, -1)
        gram_peak, (norm, _, _) = peak(lambda: _gibbs_spectra(weights, l))
        dense_peak, (dense_norm, _, _) = peak(
            lambda: _spectral_stack(_gibbs_stack(weights, l), flat)
        )
        assert abs(norm[0] - dense_norm[0]) <= 1e-12
        assert gram_peak <= dense_peak, (gram_peak, dense_peak)

    def test_full_block_rejected(self, rng):
        with pytest.raises(DomainError):
            _gram_stack(dirichlet_stack(rng, (2, 3)), 2)


class TestWeightedKernelValidation:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(DomainError):
            WeightedKernel(np.array([[0.5, 0.4], [0.5, 0.5]]), np.array([0.5, 0.5]))

    def test_weights_must_normalize(self):
        with pytest.raises(DomainError):
            WeightedKernel(np.eye(2), np.array([0.5, 0.4]))

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError):
            WeightedKernel(np.array([[1.1, -0.1], [0.0, 1.0]]), np.array([0.5, 0.5]))
        # NaN fails every check; inf fails the row or weight sum.
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError):
                WeightedKernel(np.array([[bad, 1.0], [0.5, 0.5]]), np.array([0.5, 0.5]))
            with pytest.raises(DomainError):
                WeightedKernel(np.eye(2), np.array([bad, 1.0]))


class TestSampleGibbsChain:
    def test_oversized_run_refused(self):
        # The trajectory alone would hold more values than the largest dense kernel.
        t = random_target([2, 3, 2], np.random.default_rng(5))
        with pytest.raises(ResourceLimitError, match="would store"):
            sample_gibbs_chain(t, STATE_CAP**2 // 3 + 1, np.random.default_rng(0))

    def test_determinism(self, rng):
        t = random_target([2, 3, 2], np.random.default_rng(5))
        a = sample_gibbs_chain(t, 200, np.random.default_rng(11))
        b = sample_gibbs_chain(t, 200, np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)

    def test_values_in_range(self, rng):
        t = random_target([2, 3, 2], rng)
        states = sample_gibbs_chain(t, 500, rng, l=2)
        assert states.shape == (500, 3)
        for p, size in enumerate(t.axes):
            assert states[:, p].min() >= 0 and states[:, p].max() < size

    @pytest.mark.parametrize("axes", [(2, 3, 4, 2), (3, 2, 3)], ids=["2x3x4x2", "3x2x3"])
    def test_matches_replay_oracle(self, axes):
        # Mixed sizes with zeroed entries: a block whose values land on the
        # wrong coordinates, or a wrong rest row, changes the trajectory.
        gen = np.random.default_rng(29)
        probs = gen.dirichlet(np.ones(int(np.prod(axes))))
        probs[gen.random(probs.size) < 0.4] = 0.0
        t = FiniteTarget(axes, probs / probs.sum())
        for l in range(1, len(axes) + 1):
            for steps in (0, 1, 3000):
                got = sample_gibbs_chain(t, steps, np.random.default_rng(steps + l), l=l)
                want = oracle_gibbs_chain(t, steps, np.random.default_rng(steps + l), l)
                assert got.dtype == np.int64 and got.shape == (steps, len(axes))
                np.testing.assert_array_equal(got, want, err_msg=f"l={l} steps={steps}")

    def test_stationary_frequencies_chi_square(self):
        # Thin the chain so the chi-square independence assumption holds:
        # spacing 50 makes residual correlation (1 - l/n)^50 negligible.
        t = random_target([2, 2, 2], np.random.default_rng(3))
        states = sample_gibbs_chain(t, 1_000_000, np.random.default_rng(17))
        thinned = states[::50]
        flat = thinned[:, 0] * 4 + thinned[:, 1] * 2 + thinned[:, 2]
        counts = np.bincount(flat, minlength=8)
        expected = t.probs.ravel() * len(thinned)
        _, p_value = scipy.stats.chisquare(counts, expected)
        assert p_value > 0.001
