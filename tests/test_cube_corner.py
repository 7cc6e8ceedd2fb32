"""Cube-corner densities, closed forms, quadrature checks, and chain statistics."""

import numpy as np
import pytest

from spectel import (
    CondSlack,
    CornerState,
    DomainError,
    NumericalContractError,
    OrthoBasis,
    StatisticalContractError,
    conditional_density,
    contraction_metric,
    corner_gap_lower_bound,
    correlation_coefficient_bound,
    coupling_sample,
    empirical_gap_estimate,
    nested_conditional_density,
    poly_eigenvalue,
    run_corner_chain,
    sample_conditional,
    spectral_radius,
    stationary_corner_sample,
    sum_square_constant,
    tv_contraction_check,
    verify_eigenrelation,
    wasserstein_influence,
)
from spectel.cube_corner import _fit_decay_rate, _gl_rule


def ks_distance(samples: np.ndarray, cdf) -> float:
    s = np.sort(samples)
    grid = np.arange(1, len(s) + 1) / len(s)
    theo = cdf(s)
    return max(np.abs(grid - theo).max(), np.abs(grid - 1 / len(s) - theo).max())


class TestConditionalDensity:
    def test_point_values(self):
        assert conditional_density(CondSlack(1.0, 2), 1e-9) == pytest.approx(2.0, abs=1e-6)
        assert conditional_density(CondSlack(0.5, 3), 0.25) == pytest.approx(1.5, abs=1e-14)

    def test_zero_outside_support(self):
        slack = CondSlack(0.5, 3)
        assert conditional_density(slack, -0.1) == 0.0
        assert conditional_density(slack, 0.6) == 0.0

    def test_normalization_by_quadrature(self):
        for m in range(2, 9):
            for budget in (0.3, 1.0):
                nodes, weights = _gl_rule(0.0, budget)
                integral = conditional_density(CondSlack(budget, m), nodes) @ weights
                assert abs(integral - 1.0) <= 1e-10

    def test_nested_density_normalizes(self):
        for m in (3, 5):
            x = 0.2
            nodes, weights = _gl_rule(0.0, 1.0 - x)
            integral = nested_conditional_density(m, 1.0, x, nodes) @ weights
            assert abs(integral - 1.0) <= 1e-10

    def test_slack_validation(self):
        with pytest.raises(DomainError):
            CondSlack(0.0, 2)
        with pytest.raises(DomainError):
            CondSlack(1.5, 2)
        with pytest.raises(DomainError):
            CondSlack(0.5, 0)


class TestSampleConditional:
    def test_uniform_full_conditional(self):
        assert sample_conditional(CondSlack(0.4, 1), 0.5) == pytest.approx(0.2, abs=1e-15)

    def test_inverse_cdf_value(self):
        assert sample_conditional(CondSlack(1.0, 2), 0.75) == pytest.approx(0.5, abs=1e-15)

    def test_u_range_checked(self):
        with pytest.raises(DomainError):
            sample_conditional(CondSlack(1.0, 2), 0.0)

    def test_kolmogorov_smirnov(self):
        rng = np.random.default_rng(2024)
        m, budget = 3, 0.8
        u = rng.random(1_000_000)
        samples = budget * (1.0 - (1.0 - u) ** (1.0 / m))
        assert ks_distance(samples, lambda x: 1 - ((budget - x) / budget) ** m) < 0.002


class TestPolyEigenvalue:
    def test_first_is_minus_one_over_m(self):
        for m in range(2, 13):
            assert poly_eigenvalue(1, m) == pytest.approx(-1.0 / m, abs=1e-16)

    def test_second_at_m3(self):
        assert poly_eigenvalue(2, 3) == pytest.approx(1 / 6, abs=1e-16)

    def test_magnitude_strictly_decreasing(self):
        for m in (2, 5, 9):
            mags = [abs(poly_eigenvalue(k, m)) for k in range(1, 12)]
            assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_no_overflow_at_large_degree(self):
        # k! (m-1)! / (m+k-1)! collapses to 2/((k+1)(k+2)) at m = 3; the
        # iterated-ratio evaluation must reach it without factorial overflow.
        assert poly_eigenvalue(400, 3) == pytest.approx(2 / (401 * 402), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            poly_eigenvalue(0, 3)
        with pytest.raises(DomainError):
            poly_eigenvalue(1, 1)


class TestOrthoBasis:
    def test_orthonormality(self):
        for m in (2, 4, 6):
            for budget in (0.3, 1.0):
                basis = OrthoBasis(m, budget, 6)
                assert basis.orthonormality_residual() <= 1e-10

    def test_degree_cap(self):
        with pytest.raises(DomainError):
            OrthoBasis(3, 1.0, 9)

    def test_first_polynomial_is_affine(self):
        basis = OrthoBasis(3, 1.0, 2)
        assert np.abs(basis.coeffs[1, 2:]).max() <= 1e-12


class TestEigenrelation:
    def test_degree_one_residual_tiny(self):
        assert verify_eigenrelation(4, 1.0, 1) <= 1e-10

    def test_all_degrees_up_to_six(self):
        for m in range(2, 7):
            for budget in (0.3, 1.0):
                assert verify_eigenrelation(m, budget, 6) <= 1e-8


class TestCorrelationBound:
    def test_pair_value(self):
        assert correlation_coefficient_bound(2) == pytest.approx(0.75, abs=1e-16)

    def test_triple_value(self):
        assert correlation_coefficient_bound(3) == pytest.approx(4 / 9, abs=1e-15)

    def test_consistency_with_sum_square_constant(self):
        for m in range(2, 25):
            assert (
                abs(correlation_coefficient_bound(m) * m - sum_square_constant(m))
                <= 1e-14
            )


class TestCornerGapLowerBound:
    def test_simplified_floor_at_four(self):
        assert corner_gap_lower_bound(4).simplified_floor == pytest.approx(
            5 / 72, abs=1e-16
        )

    def test_product_form_at_three(self):
        bound = corner_gap_lower_bound(3)
        assert bound.product_form == pytest.approx(5 / 36, abs=1e-15)
        assert bound.simplified_floor is None

    def test_product_dominates_floor(self):
        for n in range(4, 21):
            bound = corner_gap_lower_bound(n)
            assert bound.product_form >= bound.simplified_floor

    def test_never_crosses_block_ceiling(self):
        for n in range(3, 21):
            assert corner_gap_lower_bound(n).product_form <= 1.0 / n

    def test_needs_three_coordinates(self):
        with pytest.raises(DomainError):
            corner_gap_lower_bound(2)


class TestContractionMetric:
    def test_identity_of_indiscernibles(self):
        assert contraction_metric(1.0, 0.3, 0.3) == 0.0

    def test_hand_value(self):
        assert contraction_metric(1.0, 0.2, 0.5) == pytest.approx(0.6, abs=1e-15)

    def test_symmetry(self, rng):
        for _ in range(20):
            budget = float(rng.uniform(0.2, 1.0))
            x, xp = rng.uniform(0, budget, 2)
            if not (0 < x < budget and 0 < xp < budget):
                continue
            assert contraction_metric(budget, x, xp) == contraction_metric(
                budget, xp, x
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            contraction_metric(0.5, 0.2, 0.6)


class TestCoupling:
    def test_equal_inputs_give_equal_outputs(self, rng):
        a, b = coupling_sample(1.0, 4, 0.3, 0.3, rng)
        assert a == b

    def test_marginal_kolmogorov_smirnov(self):
        rng = np.random.default_rng(77)
        m, budget, x = 4, 1.0, 0.25
        samples, _ = coupling_sample(budget, m, x, 0.5, rng, size=1_000_000)
        top = budget - x

        def cdf(z):
            return 1.0 - ((top - z) / top) ** (m - 1)

        assert ks_distance(samples, cdf) < 0.002

    def test_contraction_ratio_monte_carlo(self):
        rng = np.random.default_rng(5150)
        m, budget = 5, 1.0
        x, xp = 0.2, 0.5
        d_in = contraction_metric(budget, x, xp)
        draws = 100_000
        out_a, out_b = coupling_sample(budget, m, x, xp, rng, size=draws)
        ratios = (np.abs(out_a - out_b) / (budget - np.maximum(out_a, out_b))) / d_in
        mean, se = ratios.mean(), ratios.std(ddof=1) / np.sqrt(draws)
        assert mean <= 1.0 / (m - 2) + 3 * se

    def test_needs_m_at_least_three(self, rng):
        with pytest.raises(DomainError):
            coupling_sample(1.0, 2, 0.2, 0.4, rng)

    def test_size_matches_scalar_draws(self):
        a, b = coupling_sample(0.9, 5, 0.18, 0.54, np.random.default_rng(3), size=5)
        rng = np.random.default_rng(3)
        scalar = [coupling_sample(0.9, 5, 0.18, 0.54, rng) for _ in range(5)]
        assert a.shape == b.shape == (5,)
        assert a.tolist() == [pair[0] for pair in scalar]
        assert b.tolist() == [pair[1] for pair in scalar]


class TestWassersteinInfluence:
    def test_m4(self):
        matrix = wasserstein_influence(4)
        assert matrix.entries[0, 1] == pytest.approx(0.5, abs=1e-16)
        assert spectral_radius(matrix.entries) == pytest.approx(1.5, abs=1e-14)

    def test_m10(self):
        assert spectral_radius(wasserstein_influence(10).entries) == pytest.approx(
            9 / 8, abs=1e-14
        )

    def test_m3_flagged(self):
        with pytest.warns(UserWarning):
            matrix = wasserstein_influence(3)
        assert spectral_radius(matrix.entries) == pytest.approx(2.0, abs=1e-14)

    def test_m2_rejected(self):
        with pytest.raises(DomainError):
            wasserstein_influence(2)

    def test_discrete_metric_variant_is_vacuous(self):
        # With unit off-diagonal coefficients the radius hits m - 1, so the
        # spectral-independence route yields nothing.
        for m in (4, 6):
            mat = np.full((m, m), 1.0)
            np.fill_diagonal(mat, 0.0)
            radius = spectral_radius(mat)
            assert radius == pytest.approx(m - 1, abs=1e-12)
            assert radius >= m - 1 - 1e-12


class TestTvContraction:
    def test_equal_points_all_zero(self):
        assert tv_contraction_check(4, 1.0, 0.3, 0.3) == (0.0, 0.0, 0.0)

    def test_m4_formula_matches_quadrature(self):
        result = tv_contraction_check(4, 1.0, 0.1, 0.3)
        assert abs(result.tv_quadrature - result.tv_formula) <= 1e-8
        assert result.tv_quadrature <= result.bound + 1e-10

    def test_contract_violations_raise(self):
        # Quadrature and formula differ by about 2e-16 here.
        with pytest.raises(NumericalContractError, match="disagrees"):
            tv_contraction_check(4, 1.0, 0.1, 0.3, match_tol=1e-17)
        with pytest.raises(NumericalContractError, match="ceiling"):
            tv_contraction_check(4, 1.0, 0.1, 0.3, bound_slack=-0.1)

    def test_m3_closed_form_value(self):
        # Direct single-crossing computation gives 1/3 for these inputs.
        result = tv_contraction_check(3, 1.0, 1e-9, 0.5)
        assert result.tv_formula == pytest.approx(1 / 3, abs=1e-6)
        assert result.tv_quadrature == pytest.approx(result.tv_formula, abs=1e-10)

    def test_random_sweep(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            m = int(rng.integers(3, 9))
            budget = float(rng.uniform(0.3, 1.0))
            x, xp = np.sort(rng.uniform(0.0, budget, 2))
            if not 0 < x < xp < budget:
                continue
            result = tv_contraction_check(m, budget, float(x), float(xp))
            assert result.tv_quadrature <= result.bound + 1e-10

    @pytest.mark.parametrize("m", range(3, 9))
    def test_edge_points_match_formula(self, m):
        # Near-equal pairs, pairs near the budget edge and pairs near zero,
        # as fractions of the budget; the crossing must still split the
        # panels at the kink.
        pairs = [
            (0.4, 0.4 + 1e-15), (0.4, 0.4 + 1e-12), (0.4, 0.4 + 1e-9), (0.4, 0.401),
            (0.999, 1 - 1e-12), (0.5, 1 - 1e-9), (1 - 1e-6, 1 - 1e-15),
            (1 - 1e-3, 1 - 1e-3 + 1e-12), (1e-15, 1e-12), (1e-12, 1e-9),
            (1e-15, 0.5), (1e-9, 1 - 1e-9), (1e-6, 1e-6 + 1e-15),
        ]
        for budget in (0.3, 1.0):
            for u, v in pairs:
                result = tv_contraction_check(m, budget, u * budget, v * budget)
                mismatch = abs(result.tv_quadrature - result.tv_formula)
                assert mismatch <= 1e-13, (budget, u, v, mismatch)


class TestCornerChain:
    def test_state_validation(self):
        with pytest.raises(DomainError):
            CornerState(3, (0.2, 0.3, 0.5))
        with pytest.raises(DomainError):
            CornerState(3, (0.2, -0.1, 0.3))
        CornerState(3, (0.2, 0.3, 0.4))

    def test_step_preserves_support(self, rng):
        trajectory = run_corner_chain(4, 500, rng)
        assert (trajectory > 0.0).all() and (trajectory.sum(axis=1) < 1.0).all()

    def test_determinism(self):
        x0 = (0.1, 0.2, 0.3)
        a = run_corner_chain(3, 100, np.random.default_rng(8), x0=x0)
        b = run_corner_chain(3, 100, np.random.default_rng(8), x0=x0)
        np.testing.assert_array_equal(a, b)

    def test_two_starts_coalesce_under_shared_randomness(self):
        # The update is multiplicatively contracting, so two chains driven by
        # the same stream become bitwise identical after enough steps.
        burn, tail = 20_000, 100
        a = run_corner_chain(3, burn + tail, np.random.default_rng(4), x0=(0.01, 0.01, 0.01))
        b = run_corner_chain(3, burn + tail, np.random.default_rng(4), x0=(0.3, 0.3, 0.3))
        np.testing.assert_array_equal(a[burn:], b[burn:])

    def test_long_run_coordinate_mean(self):
        # Stationary mean of each coordinate is 1/(n+1); use batch means so
        # the standard error accounts for autocorrelation.
        n, steps, batches = 3, 1_000_000, 100
        trace = run_corner_chain(n, steps, np.random.default_rng(12), trace_coord=0)
        means = trace.reshape(batches, -1).mean(axis=1)
        se = means.std(ddof=1) / np.sqrt(batches)
        assert abs(means.mean() - 1.0 / (n + 1)) <= 3 * se

    def test_stationary_sampler_in_support(self, rng):
        for _ in range(100):
            x = stationary_corner_sample(5, rng)
            assert sum(x) < 1.0 and all(v > 0 for v in x)


class TestEmpiricalGapEstimate:
    def test_fit_matches_direct_autocovariance(self):
        # An AR(1) trace decays slowly enough that the fit reads lags up to
        # max_lag = 400; an FFT too short for n + max_lag wraps those lags.
        rng = np.random.default_rng(3)
        phi, n = 0.995, 4000
        noise = rng.standard_normal(n)
        trace = np.empty(n)
        trace[0] = noise[0] / np.sqrt(1 - phi**2)
        for t in range(1, n):
            trace[t] = phi * trace[t - 1] + noise[t]

        y = trace - trace.mean()
        max_lag = min(1000, n // 10)
        acov = np.array([y[: n - k] @ y[k:] / n for k in range(max_lag + 1)])
        ac = acov / acov[0]
        lags = []
        for k in range(1, max_lag + 1):
            if ac[k] <= 0.05:
                break
            if ac[k] < 0.9:
                lags.append(k)
        expected = np.exp(np.polyfit(lags, np.log(ac[lags]), 1)[0])

        rho, used = _fit_decay_rate(trace)
        assert used == len(lags)
        assert abs(rho - expected) <= 1e-12

    def test_sandwich_n3(self):
        estimate = empirical_gap_estimate(3, 1_000_000, np.random.default_rng(6))
        lower = corner_gap_lower_bound(3).product_form
        assert lower - estimate.ci <= estimate.gap <= 1 / 3 + estimate.ci
        assert estimate.lags_used >= 5

    def test_insufficient_steps_rejected(self):
        with pytest.raises(StatisticalContractError):
            empirical_gap_estimate(4, 1000, np.random.default_rng(0))

    def test_dimension_range(self):
        with pytest.raises(DomainError):
            empirical_gap_estimate(2, 2_000_000, np.random.default_rng(0))

    def test_more_steps_shrink_margin(self):
        small = empirical_gap_estimate(4, 1_000_000, np.random.default_rng(9))
        large = empirical_gap_estimate(4, 2_000_000, np.random.default_rng(9))
        assert large.ci < small.ci
