"""Acceptance suite: one test per criterion, pinned tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.  The 200-target random sweep is computed once (session fixture)
and shared by the telescope, equivalence, sandwich, and PSD criteria.
"""

import time

import numpy as np
import pytest

from spectel.bounds import assemble_bounds
from spectel.cube_corner import (
    OrthoBasis,
    contraction_metric,
    corner_gap_lower_bound,
    correlation_coefficient_bound,
    empirical_gap_estimate,
    poly_eigenvalue,
    sum_square_constant,
    tv_contraction_check,
    verify_eigenrelation,
    wasserstein_influence,
)
from spectel.target import random_target

from conftest import (
    EMPTY_CONTEXT,
    altered_random_walk_kernel,
    correlation_coefficient,
    correlation_via_walk,
    gap_profile,
    gibbs_kernel,
    indexed_states,
    product_target,
    random_walk_kernel,
    recursive_gibbs_kernel,
    spectral_radius,
    supported_contexts,
)

SWEEP_SEED = 20250810
SWEEP_SIZE = 200


def _random_axes(rng, n_choices=(3, 4), axes_max=4):
    n = int(rng.choice(n_choices))
    return [int(rng.integers(2, axes_max + 1)) for _ in range(n)]


@pytest.fixture(scope="session")
def sweep():
    """200 random full-support targets with their full bound reports."""
    rng = np.random.default_rng(SWEEP_SEED)
    targets = [random_target(_random_axes(rng), rng) for _ in range(SWEEP_SIZE)]
    started = time.monotonic()
    reports = [assemble_bounds(t, l=1) for t in targets]
    elapsed = time.monotonic() - started
    return targets, reports, elapsed


def test_criterion_1_telescope_inequality(sweep):
    """Every residual >= -1e-9 and every chained product bound holds."""
    targets, reports, elapsed = sweep
    assert len(targets) >= 200
    for report in reports:
        for residual in report["residuals"]["telescope"].values():
            assert residual >= -1e-9
        for residual in report["residuals"]["chained"].values():
            assert residual >= -1e-9
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s, budget is 2 minutes"
    print(f"\nACCEPTANCE 1: telescope inequality on {len(targets)} targets "
          f"({elapsed:.1f}s sweep): PASS")


def test_criterion_2_algorithm_equivalence(sweep):
    """Recursive and direct Gibbs kernels agree entrywise within 1e-12."""
    targets, _, _ = sweep
    worst = 0.0
    for k, target in enumerate(targets):
        contexts = [EMPTY_CONTEXT]
        if k < 20:  # exhaustive context coverage on a slice of the sweep
            for size in range(1, target.n):
                contexts.extend(supported_contexts(target, size))
        for ctx in contexts:
            m = target.n - ctx.size
            for l in range(1, m + 1):
                direct = gibbs_kernel(target, ctx, l)
                recursive = recursive_gibbs_kernel(target, ctx, l)
                worst = max(worst, float(np.abs(direct.matrix - recursive.matrix).max()))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 2: algorithm equivalence, max entrywise diff {worst:.2e}: PASS")


@pytest.fixture(scope="session")
def lemma_targets():
    rng = np.random.default_rng(SWEEP_SEED + 1)
    return [
        random_target(_random_axes(rng, axes_max=3), rng) for _ in range(50)
    ]


def test_criterion_3_walk_gap_equals_correlation(lemma_targets):
    """|(1 - walk gap) - Rayleigh coefficient| <= 1e-8 on every supported context."""
    worst = 0.0
    checked = 0
    for target in lemma_targets:
        for size in range(target.n - 1):
            for ctx in supported_contexts(target, size):
                via_walk = correlation_via_walk(target, ctx)
                direct = correlation_coefficient(target, ctx)
                worst = max(worst, abs(via_walk - direct))
                checked += 1
    assert worst <= 1e-8
    print(f"\nACCEPTANCE 3: walk gap vs correlation on {checked} contexts, "
          f"max |diff| {worst:.2e}: PASS")


def test_criterion_4_walk_identity_on_component_mean_zero(lemma_targets):
    """||RW f - altered f - f/m||_inf <= 1e-12 for 100 random f per target."""
    rng = np.random.default_rng(SWEEP_SEED + 2)
    worst = 0.0
    for k, target in enumerate(lemma_targets):
        contexts = [EMPTY_CONTEXT]
        if k < 10:
            contexts.extend(supported_contexts(target, 1))
        for ctx in contexts:
            m = target.n - ctx.size
            if m < 2:
                continue
            walk = random_walk_kernel(target, ctx)
            altered = altered_random_walk_kernel(target, ctx)
            states = indexed_states(target, ctx)
            funcs = rng.normal(size=(walk.order, 100))
            for i in sorted({s[0] for s in states}):
                sel = np.array([s[0] == i for s in states])
                w = walk.weights[sel]
                w = w / w.sum()
                funcs[sel] -= w @ funcs[sel]
            resid = walk.matrix @ funcs - altered.matrix @ funcs - funcs / m
            worst = max(worst, float(np.abs(resid).max()))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 4: walk identity, max residual {worst:.2e}: PASS")


def test_criterion_5_bound_sandwich(sweep):
    """Each lower bound <= exact gap + 1e-9 and exact gap <= l/n + 1e-9;
    product targets attain the l/n ceiling."""
    targets, reports, _ = sweep
    for report in reports:
        bound, exact = report["bounds"], report["exact_gap"]
        assert bound["corr"] <= exact + 1e-9
        assert bound["rw"] <= exact + 1e-9
        if bound["specind"] != "inapplicable":
            assert bound["specind"] <= exact + 1e-9
        for key, g in report["G"].items():
            m = int(key)
            level_gap = report["gap"][f"{m},{m - 1}"]
            s, eta = report["S"][key], report["eta"][key]
            assert 1.0 - s <= level_gap + 1e-9
            assert g <= level_gap + 1e-9
            if eta < m - 1 - 1e-12:
                assert (m - 1) / m - eta / m <= level_gap + 1e-9
        # Ceiling for every block size, not just the reported one.
        n = report["n"]
        for key, gap in report["gap"].items():
            m, l = map(int, key.split(","))
            if m == n:
                assert gap <= l / n + 1e-9

    rng = np.random.default_rng(SWEEP_SEED + 3)
    for _ in range(10):
        n = int(rng.choice((3, 4)))
        marginals = [rng.dirichlet(np.ones(int(rng.integers(2, 5)))) for _ in range(n)]
        product = product_target(marginals)
        profile = gap_profile(product)
        for l in range(1, n + 1):
            assert profile[n, l] == pytest.approx(l / n, abs=1e-9)
    print("\nACCEPTANCE 5: bound sandwich and product-target ceiling: PASS")


def test_criterion_6_gibbs_operators_psd(sweep):
    """Min symmetrized eigenvalue >= -1e-10 for every constructed Gibbs kernel."""
    _, reports, _ = sweep
    worst = min(report["min_psd_eigenvalue"] for report in reports)
    assert worst >= -1e-10
    print(f"\nACCEPTANCE 6: Gibbs operators PSD, worst bottom eigenvalue {worst:.2e}: PASS")


def test_criterion_7_corner_closed_forms():
    """Exact closed-form identities at 1e-14."""
    for m in range(2, 13):
        assert abs(poly_eigenvalue(1, m) + 1.0 / m) <= 1e-14
        assert (
            abs(sum_square_constant(m) - m * correlation_coefficient_bound(m))
            <= 1e-14
        )
    assert abs(correlation_coefficient_bound(2) - 0.75) <= 1e-14
    assert abs(corner_gap_lower_bound(4)[1] - 5.0 / 72.0) <= 1e-14
    radius = spectral_radius(wasserstein_influence(4))
    assert abs(radius - 1.5) <= 1e-14
    print("\nACCEPTANCE 7: corner closed forms exact at 1e-14: PASS")


def test_criterion_8_eigenrelation():
    """Quadrature residual of the polynomial eigenrelation <= 1e-8, m <= 6, k <= 6."""
    worst = 0.0
    for m in range(2, 7):
        for budget in (0.3, 1.0):
            worst = max(worst, verify_eigenrelation(OrthoBasis(m, budget)))
    assert worst <= 1e-8
    print(f"\nACCEPTANCE 8: eigenrelation residual {worst:.2e}: PASS")


def test_criterion_9_tv_and_coupling_contraction():
    """TV closed form within 1e-8 of quadrature and below the metric ceiling;
    Monte Carlo coupling contraction within 3 standard errors of 1/(m-2)."""
    rng = np.random.default_rng(SWEEP_SEED + 4)
    checked = 0
    while checked < 100:
        m = int(rng.integers(3, 9))
        budget = float(rng.uniform(0.3, 1.0))
        x, xp = np.sort(rng.uniform(0.0, budget, 2))
        if not 0.0 < x < xp < budget:
            continue
        tv_quadrature, tv_formula, bound = tv_contraction_check(m, budget, float(x), float(xp))
        assert abs(tv_quadrature - tv_formula) <= 1e-8
        assert tv_quadrature <= bound + 1e-10
        checked += 1

    for m in (4, 5):
        budget, x, xp = 1.0, 0.2, 0.5
        d_in = contraction_metric(budget, x, xp)
        u = rng.random(100_000)
        fraction = 1.0 - (1.0 - u) ** (1.0 / (m - 1))
        out_a = (budget - x) * fraction
        out_b = (budget - xp) * fraction
        ratios = (np.abs(out_a - out_b) / (budget - np.maximum(out_a, out_b))) / d_in
        mean = float(ratios.mean())
        se = float(ratios.std(ddof=1) / np.sqrt(ratios.size))
        assert mean <= 1.0 / (m - 2) + 3.0 * se
    print("\nACCEPTANCE 9: TV identity and coupling contraction: PASS")


def test_criterion_10_statistical_sandwich():
    """1 - rho from 2e6 steps lies in [lower bound - CI, 1/n + CI] for n in 3..5."""
    started = time.monotonic()
    for n in (3, 4, 5):
        rng = np.random.default_rng(SWEEP_SEED + n)
        estimate = empirical_gap_estimate(n, 2_000_000, rng)
        product, floor = corner_gap_lower_bound(n)
        lower = product if floor is None else floor
        assert lower - estimate["ci"] <= estimate["gap_estimate"], (n, estimate)
        assert estimate["gap_estimate"] <= 1.0 / n + estimate["ci"], (n, estimate)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"statistical sandwich took {elapsed:.0f}s, budget 5 minutes"
    print(f"\nACCEPTANCE 10: statistical sandwich for n in (3,4,5) ({elapsed:.0f}s): PASS")
