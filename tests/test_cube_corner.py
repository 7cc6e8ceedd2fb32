"""Cube-corner densities, closed forms, quadrature checks, and chain statistics."""

import numpy as np
import pytest

from spectel import (
    DomainError,
    MEMORY_CAP,
    OrthoBasis,
    ResourceLimitError,
    StatisticalContractError,
    contraction_metric,
    corner_gap_lower_bound,
    correlation_coefficient_bound,
    coupling_sample,
    empirical_gap_estimate,
    poly_eigenvalue,
    run_corner_chain,
    spectral_radius,
    stationary_corner_sample,
    sum_square_constant,
    tv_contraction_check,
    verify_eigenrelation,
    wasserstein_influence,
)
from spectel import cube_corner as corner
from spectel.cube_corner import (
    _chain_bytes,
    _density,
    _estimate_bytes,
    _fit_decay_rate,
    _gl_rule,
)

from conftest import MemoryChecked, oracle_corner_chain, peak, spy_memory_check


def ks_distance(samples: np.ndarray, cdf) -> float:
    s = np.sort(samples)
    grid = np.arange(1, len(s) + 1) / len(s)
    theo = cdf(s)
    return max(np.abs(grid - theo).max(), np.abs(grid - 1 / len(s) - theo).max())


class TestConditionalDensity:
    def test_point_values(self):
        assert float(_density(2, 1.0, 1e-9)) == pytest.approx(2.0, abs=1e-6)
        assert float(_density(3, 0.5, 0.25)) == pytest.approx(1.5, abs=1e-14)

    def test_zero_outside_support(self):
        assert float(_density(3, 0.5, -0.1)) == 0.0
        assert float(_density(3, 0.5, 0.6)) == 0.0

    def test_normalization_by_quadrature(self):
        for m in range(2, 9):
            for budget in (0.3, 1.0):
                nodes, weights = _gl_rule(0.0, budget)
                integral = _density(m, budget, nodes) @ weights
                assert abs(integral - 1.0) <= 1e-10

    def test_nested_density_normalizes(self):
        # Given one more coordinate at x, m - 1 free ones share the budget R - x.
        for m in (3, 5):
            x = 0.2
            nodes, weights = _gl_rule(0.0, 1.0 - x)
            integral = _density(m - 1, 1.0 - x, nodes) @ weights
            assert abs(integral - 1.0) <= 1e-10


def cdf_by_quadrature(m: int, budget: float, x) -> np.ndarray:
    """The density integrated over (0, x), one rule per entry of ``x``."""
    nodes, weights = _gl_rule(0.0, np.asarray(x, dtype=float)[..., None])
    return (_density(m, budget, nodes) * weights).sum(axis=-1)


class TestConditionalCdf:
    """The density integrates to the closed-form CDF ``1 - ((R - x)/R)^m``."""

    def test_uniform_full_conditional(self):
        # m = 1 is the chain's update: u = 0.5 draws 0.2 on (0, 0.4).
        assert cdf_by_quadrature(1, 0.4, 0.2) == pytest.approx(0.5, abs=1e-14)

    def test_inverse_cdf_value(self):
        # u = 0.75 draws 1 - 0.25^(1/2) = 0.5.
        assert cdf_by_quadrature(2, 1.0, 0.5) == pytest.approx(0.75, abs=1e-14)

    def test_closed_form(self):
        for budget in (0.3, 1.0):
            x = np.linspace(budget / 40, budget, 40)
            for m in range(1, 9):
                want = 1.0 - ((budget - x) / budget) ** m
                error = np.abs(cdf_by_quadrature(m, budget, x) - want).max()
                assert error <= 1e-13, (budget, m, error)


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

    @pytest.mark.parametrize("m, budget", [(2, 0.0), (2, 1.5), (0, 0.5)])
    def test_budget_and_count_checked(self, m, budget):
        with pytest.raises(DomainError):
            OrthoBasis(m, budget, 2)

    def test_first_polynomial_is_affine(self):
        basis = OrthoBasis(3, 1.0, 2)
        assert np.abs(basis.coeffs[1, 2:]).max() <= 1e-12


class TestEigenrelation:
    def test_degree_one_residual_tiny(self):
        assert verify_eigenrelation(OrthoBasis(4, 1.0, 1)) <= 1e-10

    def test_all_degrees_up_to_six(self):
        for m in range(2, 7):
            for budget in (0.3, 1.0):
                assert verify_eigenrelation(OrthoBasis(m, budget, 6)) <= 1e-8

    def test_nan_residual_is_returned(self, monkeypatch):
        # A residual is returned, never compared here, and a NaN at one
        # degree is not dropped by the maximum over degrees.
        basis = OrthoBasis(4, 1.0, 3)
        evaluate = basis.evaluate
        monkeypatch.setattr(
            basis, "evaluate", lambda k, x: evaluate(k, x) * (np.nan if k == 2 else 1.0)
        )
        assert np.isnan(verify_eigenrelation(basis))


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
        a, b = coupling_sample(1.0, 4, 0.3, 0.3, rng, size=5)
        assert a.shape == (5,)
        np.testing.assert_array_equal(a, b)

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
            coupling_sample(1.0, 2, 0.2, 0.4, rng, size=1)

    @pytest.mark.parametrize("size", [3])
    def test_exact_zero_uniforms_redrawn(self, size):
        class ZerosFirst:
            """Exact zeros on the first call, then 0.5 for every uniform."""

            calls = 0

            def random(self, size):
                self.calls += 1
                return np.full(size, 0.0 if self.calls == 1 else 0.5)

        rng = ZerosFirst()
        a, b = coupling_sample(1.0, 3, 0.2, 0.4, rng, size=size)
        fraction = 1.0 - 0.5**0.5
        assert rng.calls == 2
        np.testing.assert_array_equal(a, np.full(size, 0.8 * fraction))
        np.testing.assert_array_equal(b, np.full(size, 0.6 * fraction))


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
        # The radius reaches m - 1: verify-cube reports m = 3 as beyond the hypothesis.
        assert spectral_radius(wasserstein_influence(3).entries) == pytest.approx(2.0, abs=1e-14)

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

    @pytest.mark.parametrize(
        "m, budget, x, xp",
        [
            (4, 1.0, 0.3, 0.3000000000000001),  # a^p - b^p rounds to 0
            (5, 0.5, 1e-20, 1e-19),
            (4, 1.0, 1e-300, 2e-300),  # (xp - x)^(m-1) underflows
            (8, 1.0, 1e-200, 3e-200),
        ],
    )
    def test_close_and_tiny_points_finite(self, m, budget, x, xp):
        # Distinct valid points whose remaining budgets round to equal or
        # nearly equal values: both densities coincide, the quadrature is 0,
        # and the closed form is a tiny finite number.
        result = tv_contraction_check(m, budget, x, xp)
        assert result.tv_quadrature == 0.0
        assert np.isfinite(result.tv_formula) and 0.0 < result.tv_formula <= 1e-14
        assert result.tv_quadrature <= result.bound


def start_at(monkeypatch, x0) -> None:
    """Start the chain at ``x0``, drawing no randomness for the start."""
    monkeypatch.setattr(corner, "stationary_corner_sample", lambda n, rng: tuple(x0))


class TestCornerChain:
    def test_step_preserves_support(self, rng):
        trajectory = run_corner_chain(4, 500, rng)
        assert (trajectory > 0.0).all() and (trajectory.sum(axis=1) < 1.0).all()

    def test_determinism(self, monkeypatch):
        start_at(monkeypatch, (0.1, 0.2, 0.3))
        a = run_corner_chain(3, 100, np.random.default_rng(8))
        b = run_corner_chain(3, 100, np.random.default_rng(8))
        np.testing.assert_array_equal(a, b)

    def test_two_starts_coalesce_under_shared_randomness(self, monkeypatch):
        # The update is multiplicatively contracting, so two chains driven by
        # the same stream become bitwise identical after enough steps.
        burn, tail = 20_000, 100
        start_at(monkeypatch, (0.01, 0.01, 0.01))
        a = run_corner_chain(3, burn + tail, np.random.default_rng(4))
        start_at(monkeypatch, (0.3, 0.3, 0.3))
        b = run_corner_chain(3, burn + tail, np.random.default_rng(4))
        np.testing.assert_array_equal(a[burn:], b[burn:])

    def test_long_run_coordinate_mean(self):
        # Stationary mean of each coordinate is 1/(n+1); use batch means so
        # the standard error accounts for autocorrelation.
        n, steps, batches = 3, 1_000_000, 100
        trace = run_corner_chain(n, steps, np.random.default_rng(12), trace_coord=0)
        means = trace.reshape(batches, -1).mean(axis=1)
        se = means.std(ddof=1) / np.sqrt(batches)
        assert abs(means.mean() - 1.0 / (n + 1)) <= 3 * se

    @pytest.mark.parametrize(
        "n, steps, x0",
        [(n, steps, None) for n in (2, 5) for steps in (0, 1, 65_537, 140_000)]
        + [
            pytest.param(2, 65_537, (0.4, 0.5), id="2-65537-x0"),
            pytest.param(5, 140_000, (0.1, 0.2, 0.05, 0.3, 0.01), id="5-140000-x0"),
        ],
    )
    def test_matches_stream_oracle(self, monkeypatch, n, steps, x0):
        # Crossing the 65,536-step block boundary checks that a coordinate not
        # yet drawn in a block keeps its value from the block start.
        want = oracle_corner_chain(n, steps, np.random.default_rng(steps + n), x0)
        if x0 is not None:
            start_at(monkeypatch, x0)
        full = run_corner_chain(n, steps, np.random.default_rng(steps + n))
        assert full.shape == (steps, n)
        np.testing.assert_array_equal(full, want)
        for j in range(n):
            trace = run_corner_chain(n, steps, np.random.default_rng(steps + n), trace_coord=j)
            assert trace.shape == (steps,)
            np.testing.assert_array_equal(trace, want[:, j])

    def test_oversized_run_refused(self, monkeypatch):
        # The byte boundary for either output shape, n = 3 columns or one:
        # 8 bytes a step and column, beside the start state and one block's
        # 96 + 24 bytes a step and column.
        spy_memory_check(monkeypatch, corner, stop=True)
        for cols, trace_coord in ((3, None), (1, 0)):
            steps = (MEMORY_CAP - 64 * 3 - 2**16 * (96 + 24 * cols)) // (8 * cols)
            with pytest.raises(ResourceLimitError, match="chain"):
                run_corner_chain(3, steps + 1, np.random.default_rng(0), trace_coord=trace_coord)
            with pytest.raises(MemoryChecked):
                run_corner_chain(3, steps, np.random.default_rng(0), trace_coord=trace_coord)

    def test_footprint_covers_the_peak(self):
        # A full block and one step; every term beyond the blocks is per step.
        steps = 2**16 + 1
        used, _ = peak(lambda: run_corner_chain(8, steps, np.random.default_rng(0)))
        assert used <= _chain_bytes(8, steps, 8), used

    @pytest.mark.parametrize("coord", [-1, 3, 7])
    def test_trace_coord_out_of_range(self, coord):
        with pytest.raises(DomainError, match="trace_coord"):
            run_corner_chain(3, 10, np.random.default_rng(0), trace_coord=coord)

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

    def test_footprint_covers_the_peak(self):
        # The trace and its fit, the bulk of the estimate, at 10^5 steps.
        def run():
            _fit_decay_rate(run_corner_chain(4, 100_000, np.random.default_rng(0), trace_coord=0))

        used, _ = peak(run)
        assert used <= _estimate_bytes(4, 100_000), used

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
