"""Gap profiles, telescope residuals, correlation routes, and bound assembly."""

import numpy as np
import pytest

from spectel import (
    CondContext,
    DomainError,
    EMPTY_CONTEXT,
    FiniteTarget,
    InfluenceMatrix,
    assemble_bounds,
    correlation_coefficient,
    gap_profile,
    influence_matrix_tv,
    product_target,
    random_target,
    spectral_radius,
    supported_contexts,
    telescope_verify,
)
from spectel import bounds, kernels

from conftest import (
    correlation_via_walk,
    coupled_pair_target,
    peak,
    product_of_marginals,
    random_small_target,
)


class TestGapProfile:
    def test_product_three_coordinates(self):
        t = product_target([[0.5, 0.5]] * 3)
        profile = gap_profile(t)
        # Independence gives Gap(m, l) = l/m for every level.
        for (m, l), entry in profile.entries.items():
            assert entry.gap == pytest.approx(l / m, abs=1e-9)

    def test_full_block_gap_is_one(self, rng):
        t = random_small_target(rng)
        profile = gap_profile(t)
        for m in range(1, t.n + 1):
            assert profile.gap(m, m) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["dirichlet", "zeroed", "product", "point-mass"])
    def test_top_full_block_gap_is_exact(self, rng, kind):
        # The top level has one context, the empty one, and its full-block
        # kernel 1 pi^T is 0 on mean-zero functions: Gap(n, n) is exactly 1.
        if kind == "dirichlet":
            t = random_target([2, 3, 2], rng)
        elif kind == "zeroed":
            probs = rng.dirichlet(np.ones(18))
            probs[[0, 4, 5, 11]] = 0.0
            t = FiniteTarget((3, 2, 3), probs / probs.sum())
        elif kind == "product":
            t = product_target([[0.2, 0.8], [0.1, 0.3, 0.6], [0.5, 0.5]])
        else:
            probs = np.zeros(8)
            probs[5] = 1.0
            t = FiniteTarget((2, 2, 2), probs)
        entry = assemble_bounds(t, 1).profile.entries[(t.n, t.n)]
        assert entry == bounds.GapEntry(1.0, (), ())

    def test_only_the_top_full_block_is_not_solved(self, rng, monkeypatch):
        calls = []
        solve = bounds._gibbs_spectra

        def spy(weights, l):
            calls.append((weights.ndim - 1, l))
            return solve(weights, l)

        monkeypatch.setattr(bounds, "_gibbs_spectra", spy)
        t = random_target([2, 3, 2, 2], rng)
        n = t.n
        solved = {(m, l) for m in range(1, n + 1) for l in range(1, m + 1)} - {(n, n)}
        for run in (lambda: assemble_bounds(t, 1), lambda: gap_profile(t)):
            calls.clear()
            run()
            # Every (m, m) with m < n is still solved, densely.
            assert set(calls) == solved

    def test_fully_coupled_pair_gap_zero(self):
        profile = gap_profile(coupled_pair_target())
        assert profile.gap(2, 1) == pytest.approx(0.0, abs=1e-12)

    def test_argmin_recorded(self, rng):
        t = random_small_target(rng, n_choices=(3,))
        profile = gap_profile(t)
        entry = profile.entries[(2, 1)]
        assert len(entry.lam) == 1
        ctx = CondContext(entry.lam, entry.y)
        from spectel import gibbs_kernel, spectral_summary

        assert spectral_summary(gibbs_kernel(t, ctx, 1)).gap == pytest.approx(
            entry.gap, abs=1e-12
        )

    @pytest.mark.parametrize("axes", [(2, 3, 4), (3, 3, 3), (2, 2, 2, 2), (3, 2, 3, 2)])
    def test_one_step_down_gap_equals_walk_gap(self, axes, rng):
        # At l = m - 1 the kept sets are single coordinates, so the Gram
        # matrix (1/m) J*J is the index/value walk: Gap(m, m-1) = G(m).
        report = assemble_bounds(random_target(axes, rng), 1)
        for m in range(2, len(axes) + 1):
            assert abs(report.profile.gap(m, m - 1) - report.g_profile[m]) <= 1e-12, m


class TestTelescope:
    def test_product_target_residuals_vanish(self):
        t = product_target([[0.3, 0.7], [0.5, 0.5], [0.2, 0.8]])
        report = telescope_verify(gap_profile(t))
        assert report.passed
        for residual in report.residuals.values():
            assert abs(residual) <= 1e-12
        for residual in report.chained.values():
            assert abs(residual) <= 1e-12

    def test_random_sweep(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(3, 5))
            t = random_target([int(rng.integers(2, 4)) for _ in range(n)], rng)
            report = telescope_verify(gap_profile(t))
            assert report.passed
            assert min(report.residuals.values()) >= -1e-9

    def test_zero_factor_is_trivially_satisfied(self):
        report = telescope_verify(gap_profile(coupled_pair_target()))
        assert report.passed
        assert report.residuals[(2, 1)] == pytest.approx(0.0, abs=1e-12)


class TestCorrelation:
    def test_product_target_is_one_over_m(self):
        t = product_target([[0.4, 0.6], [0.3, 0.7], [0.2, 0.8]])
        assert correlation_via_walk(t, EMPTY_CONTEXT) == pytest.approx(1 / 3, abs=1e-12)
        assert correlation_coefficient(t, EMPTY_CONTEXT) == pytest.approx(1 / 3, abs=1e-12)

    def test_fully_coupled_pair_is_one(self):
        t = coupled_pair_target()
        assert correlation_via_walk(t, EMPTY_CONTEXT) == pytest.approx(1.0, abs=1e-12)
        assert correlation_coefficient(t, EMPTY_CONTEXT) == pytest.approx(1.0, abs=1e-12)

    def test_routes_agree_on_random_targets(self, rng):
        for _ in range(10):
            t = random_small_target(rng)
            for size in range(t.n - 1):
                for ctx in supported_contexts(t, size):
                    walk = correlation_via_walk(t, ctx)
                    direct = correlation_coefficient(t, ctx)
                    assert abs(walk - direct) <= 1e-8

    def test_pair_matches_maximal_correlation(self, rng):
        # For two coordinates the coefficient is (1 + rho)/2 with rho the
        # maximal correlation: the second singular value of the standardized
        # contingency matrix.
        for _ in range(5):
            t = random_target([3, 4], rng)
            joint = t.probs
            r = joint.sum(axis=1)
            c = joint.sum(axis=0)
            standardized = joint / np.sqrt(np.outer(r, c))
            rho = np.linalg.svd(standardized, compute_uv=False)[1]
            expected = (1 + rho) / 2
            assert correlation_coefficient(t, EMPTY_CONTEXT) == pytest.approx(
                expected, abs=1e-10
            )

    def test_range_on_full_support(self, rng):
        for _ in range(10):
            t = random_small_target(rng)
            m = t.n
            s = correlation_via_walk(t, EMPTY_CONTEXT)
            assert 1 / m - 1e-10 <= s <= 1 + 1e-10

    def test_agreement_with_zero_mass_values(self):
        probs = np.array([0.25, 0.0, 0.05, 0.1, 0.0, 0.2, 0.15, 0.25])
        t = FiniteTarget([2, 2, 2], probs)
        walk = correlation_via_walk(t, EMPTY_CONTEXT)
        direct = correlation_coefficient(t, EMPTY_CONTEXT)
        assert abs(walk - direct) <= 1e-10


class TestInfluenceTv:
    def test_product_target_zero_matrix(self):
        t = product_target([[0.4, 0.6], [0.3, 0.7], [0.2, 0.8]])
        phi = influence_matrix_tv(t, EMPTY_CONTEXT)
        np.testing.assert_allclose(phi.entries, 0.0, atol=1e-14)

    def test_fully_coupled_pair_off_diagonal_one(self):
        phi = influence_matrix_tv(coupled_pair_target(), EMPTY_CONTEXT)
        np.testing.assert_allclose(phi.entries, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_hand_value(self):
        t = FiniteTarget([2, 2], [0.1, 0.2, 0.3, 0.4])
        phi = influence_matrix_tv(t, EMPTY_CONTEXT)
        assert phi.entries[0, 1] == pytest.approx(2 / 21, abs=1e-14)
        assert phi.entries[1, 0] == pytest.approx(abs(0.25 - 1 / 3), abs=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            InfluenceMatrix(2, np.array([[0.0, -0.1], [0.1, 0.0]]), "tv-discrete")
        with pytest.raises(DomainError):
            InfluenceMatrix(2, np.array([[0.5, 0.1], [0.1, 0.0]]), "tv-discrete")
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError):
                InfluenceMatrix(2, np.array([[0.0, bad], [1.0, 0.0]]), "tv-discrete")


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_constant_off_diagonal_circulant(self):
        for m, c in [(3, 0.25), (5, 0.1)]:
            mat = np.full((m, m), c)
            np.fill_diagonal(mat, 0.0)
            assert spectral_radius(mat) == pytest.approx(c * (m - 1), abs=1e-12)

    def test_half_off_diagonal_m4(self):
        mat = np.full((4, 4), 0.5)
        np.fill_diagonal(mat, 0.0)
        assert spectral_radius(mat) == pytest.approx(1.5, abs=1e-12)

    def test_negative_entry_rejected(self):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                spectral_radius(np.array([[0.0, bad], [1.0, 0.0]]))


class TestAssembleBounds:
    def test_product_three_site_bound_is_exact(self):
        t = product_target([[0.5, 0.5]] * 3)
        report = assemble_bounds(t, 1)
        assert report.passed
        assert report.corr_bound == pytest.approx(1 / 3, abs=1e-9)
        assert report.rw_bound == pytest.approx(1 / 3, abs=1e-9)
        assert report.exact_gap == pytest.approx(1 / 3, abs=1e-9)
        assert report.upper_bound == pytest.approx(1 / 3, abs=1e-12)
        # Independence: every influence matrix vanishes, eta = 0.
        assert report.specind_bound == pytest.approx(1 / 3, abs=1e-9)

    @pytest.mark.parametrize("axes", [(2, 2), (2, 2, 2)])
    def test_point_mass_ceiling_is_one(self, axes):
        # One supported state: no non-constant function, so l/n is no ceiling.
        probs = np.zeros(int(np.prod(axes)))
        probs[0] = 1.0
        t = FiniteTarget(axes, probs)
        for l in range(1, len(axes) + 1):
            report = assemble_bounds(t, l)
            assert report.upper_bound == 1.0
            assert report.checks["gap_le_upper"] and report.passed, l

    def test_two_state_support_keeps_ceiling(self):
        t = FiniteTarget((2, 2), [0.5, 0.5, 0.0, 0.0])
        for l in (1, 2):
            assert assemble_bounds(t, l).upper_bound == l / 2

    def test_walk_gap_equals_one_minus_s(self, rng):
        for _ in range(5):
            t = random_small_target(rng)
            report = assemble_bounds(t, 1)
            assert report.checks["walk_gap_equals_one_minus_s"]
            for m in report.g_profile:
                assert abs(report.g_profile[m] - (1 - report.s_profile[m])) <= 1e-8

    def test_fully_coupled_pair_degenerate(self):
        report = assemble_bounds(coupled_pair_target(), 1)
        assert report.exact_gap == pytest.approx(0.0, abs=1e-12)
        assert report.corr_bound == pytest.approx(0.0, abs=1e-12)
        assert report.rw_bound == pytest.approx(0.0, abs=1e-12)
        # eta = 1 = m - 1 for the coupled pair: bound inapplicable, not clamped.
        assert report.specind_bound is None
        assert report.passed

    def test_random_targets_sandwich(self, rng):
        for _ in range(8):
            t = random_small_target(rng)
            report = assemble_bounds(t, 1)
            assert report.passed
            for bound in (report.corr_bound, report.rw_bound):
                assert bound <= report.exact_gap + 1e-9
            if report.specind_bound is not None:
                assert report.specind_bound <= report.exact_gap + 1e-9
            assert report.exact_gap <= report.upper_bound + 1e-9

    def test_product_of_marginals_attains_ceiling(self, rng):
        t = random_small_target(rng)
        prod = product_of_marginals(t)
        profile = gap_profile(prod)
        for l in range(1, prod.n + 1):
            assert profile.gap(prod.n, l) == pytest.approx(l / prod.n, abs=1e-9)

    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_each_level_enumerated_once(self, rng, monkeypatch, l):
        # The gap profile and the S/G/eta routes share one pass over the levels.
        calls = []
        enumerate_level = bounds._supported_level

        def counted(target, m, *args):
            calls.append(m)
            return enumerate_level(target, m, *args)

        monkeypatch.setattr(bounds, "_supported_level", counted)
        t = random_target([2, 3, 2, 2], rng)
        assemble_bounds(t, l)
        # From the top down, so the largest solves come first.
        assert calls == [4, 3, 2, 1]

    @pytest.mark.parametrize("axes", [(2, 3, 4), (3, 3, 3, 3), (2,) * 5, (2, 3, 2, 3)])
    def test_largest_solve_is_the_largest_matrix_solved(self, axes, rng, monkeypatch):
        orders = []
        solve = kernels._solve

        def spy(mat):
            orders.append(mat.shape[-1])
            return solve(mat)

        monkeypatch.setattr(kernels, "_solve", spy)
        assemble_bounds(random_target(axes, rng), 1)
        assert max(orders) == bounds._largest_solve(axes)

    def test_largest_solve_of_the_benchmark_shapes(self):
        # The (4, 1) Gram matrix on (6,6,6,6); the top kernel on (2,)^8, whose
        # Gram matrix at (8, 1) is larger, of order 1,024.
        assert bounds._largest_solve((6, 6, 6, 6)) == 864
        assert bounds._largest_solve((2,) * 8) == 256

    def test_peak_memory_within_the_largest_solve(self):
        # The largest solve on (6,6,6,6) is the 5.7 MiB Gram matrix at (4, 1).
        # Stacks cut to the full state space, with stack-sized temporaries,
        # peaked at 17.5 MiB.
        t = random_target((6, 6, 6, 6), np.random.default_rng(0))
        used, report = peak(lambda: assemble_bounds(t, 1))
        assert report.passed
        assert used <= 10 * 2**20, used / 2**20

    def test_block_size_two(self, rng):
        t = random_small_target(rng, n_choices=(4,), axes_choices=(2, 3))
        report = assemble_bounds(t, 2)
        assert report.passed
        assert report.upper_bound == pytest.approx(0.5, abs=1e-15)

    def test_json_schema(self, rng):
        t = random_small_target(rng, n_choices=(3,))
        data = assemble_bounds(t, 1).to_json_dict()
        for key in ("n", "l", "gap", "S", "G", "eta", "bounds", "residuals", "argmin"):
            assert key in data
        assert set(data["bounds"]) == {"corr", "rw", "specind", "upper"}
        assert "3,1" in data["gap"]
        assert data["residuals"]["passed"] is True

    def test_specind_inapplicable_serialization(self):
        data = assemble_bounds(coupled_pair_target(), 1).to_json_dict()
        assert data["bounds"]["specind"] == "inapplicable"
