"""Gap profiles, telescope residuals, correlation routes, and bound assembly."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectel import bounds, kernels
from spectel.bounds import InfluenceMatrix, assemble_bounds, telescope_verify
from spectel.errors import DomainError, ResourceLimitError
from spectel.target import FiniteTarget, random_target

from conftest import (
    EMPTY_CONTEXT,
    correlation_coefficient,
    correlation_via_walk,
    coupled_pair_target,
    gap_profile,
    influence_matrix_tv,
    oracle_gap,
    oracle_gibbs_matrix,
    peak,
    product_of_marginals,
    product_target,
    random_small_target,
    sparse_mixed_target,
    supported_conditional,
    supported_contexts,
)


class TestGapProfile:
    def test_product_three_coordinates(self):
        t = product_target([[0.5, 0.5]] * 3)
        profile = gap_profile(t)
        # Independence gives Gap(m, l) = l/m for every level.
        for (m, l), gap in profile.items():
            assert gap == pytest.approx(l / m, abs=1e-9)

    def test_full_block_gap_is_one(self, rng):
        t = random_small_target(rng)
        profile = gap_profile(t)
        for m in range(1, t.n + 1):
            assert profile[m, m] == pytest.approx(1.0, abs=1e-12)

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
        report, key = assemble_bounds(t, 1), f"{t.n},{t.n}"
        assert (report["gap"][key], report["argmin"]["gap"][key]) == (1.0, {"lambda": [], "y": []})

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
        assert profile[2, 1] == pytest.approx(0.0, abs=1e-12)

    def test_argmin_recorded(self, rng):
        t = random_small_target(rng, n_choices=(3,))
        report = assemble_bounds(t, t.n)
        ctx = report["argmin"]["gap"]["2,1"]
        assert len(ctx["lambda"]) == 1
        matrix, weights, _ = oracle_gibbs_matrix(t, tuple(ctx["lambda"]), tuple(ctx["y"]), 1)
        assert oracle_gap(matrix, weights) == pytest.approx(report["gap"]["2,1"], abs=1e-12)

    @pytest.mark.parametrize("axes", [(2, 3, 4), (3, 3, 3), (2, 2, 2, 2), (3, 2, 3, 2)])
    def test_one_step_down_gap_equals_walk_gap(self, axes, rng):
        # At l = m - 1 the kept sets are single coordinates, so the Gram
        # matrix (1/m) J*J is the index/value walk: Gap(m, m-1) = G(m).
        report = assemble_bounds(random_target(axes, rng), 1)
        for m in range(2, len(axes) + 1):
            assert abs(report["gap"][f"{m},{m - 1}"] - report["G"][str(m)]) <= 1e-12, m


class TestTelescope:
    def test_product_target_residuals_vanish(self):
        t = product_target([[0.3, 0.7], [0.5, 0.5], [0.2, 0.8]])
        report = telescope_verify(gap_profile(t))
        assert report["passed"]
        for residual in report["telescope"].values():
            assert abs(residual) <= 1e-12
        for residual in report["chained"].values():
            assert abs(residual) <= 1e-12

    def test_random_sweep(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(3, 5))
            t = random_target([int(rng.integers(2, 4)) for _ in range(n)], rng)
            report = telescope_verify(gap_profile(t))
            assert report["passed"]
            assert min(report["telescope"].values()) >= -1e-9

    def test_zero_factor_is_trivially_satisfied(self):
        report = telescope_verify(gap_profile(coupled_pair_target()))
        assert report["passed"]
        assert report["telescope"]["2,1"] == pytest.approx(0.0, abs=1e-12)


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
        for bad_shape in (np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))):
            with pytest.raises(DomainError, match="square"):
                InfluenceMatrix(bad_shape)
        with pytest.raises(DomainError):
            InfluenceMatrix(np.array([[0.0, -0.1], [0.1, 0.0]]))
        with pytest.raises(DomainError):
            InfluenceMatrix(np.array([[0.5, 0.1], [0.1, 0.0]]))
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError):
                InfluenceMatrix(np.array([[0.0, bad], [1.0, 0.0]]))


class TestAssembleBounds:
    def test_product_three_site_bound_is_exact(self):
        t = product_target([[0.5, 0.5]] * 3)
        report = assemble_bounds(t, 1)
        assert report["passed"]
        assert report["bounds"]["corr"] == pytest.approx(1 / 3, abs=1e-9)
        assert report["bounds"]["rw"] == pytest.approx(1 / 3, abs=1e-9)
        assert report["exact_gap"] == pytest.approx(1 / 3, abs=1e-9)
        assert report["bounds"]["upper"] == pytest.approx(1 / 3, abs=1e-12)
        # Independence: every influence matrix vanishes, eta = 0.
        assert report["bounds"]["specind"] == pytest.approx(1 / 3, abs=1e-9)

    @pytest.mark.parametrize("axes", [(2, 2), (2, 2, 2)])
    def test_point_mass_ceiling_is_one(self, axes):
        # One supported state: no non-constant function, so l/n is no ceiling.
        probs = np.zeros(int(np.prod(axes)))
        probs[0] = 1.0
        t = FiniteTarget(axes, probs)
        for l in range(1, len(axes) + 1):
            report = assemble_bounds(t, l)
            assert report["bounds"]["upper"] == 1.0
            assert report["checks"]["gap_le_upper"] and report["passed"], l

    def test_two_state_support_keeps_ceiling(self):
        t = FiniteTarget((2, 2), [0.5, 0.5, 0.0, 0.0])
        for l in (1, 2):
            assert assemble_bounds(t, l)["bounds"]["upper"] == l / 2

    def test_walk_gap_equals_one_minus_s(self, rng):
        for _ in range(5):
            t = random_small_target(rng)
            report = assemble_bounds(t, 1)
            assert report["checks"]["walk_gap_equals_one_minus_s"]
            for m, g in report["G"].items():
                assert abs(g - (1 - report["S"][m])) <= 1e-8

    def test_fully_coupled_pair_degenerate(self):
        report = assemble_bounds(coupled_pair_target(), 1)
        assert report["exact_gap"] == pytest.approx(0.0, abs=1e-12)
        assert report["bounds"]["corr"] == pytest.approx(0.0, abs=1e-12)
        assert report["bounds"]["rw"] == pytest.approx(0.0, abs=1e-12)
        # eta = 1 = m - 1 for the coupled pair: bound inapplicable, not clamped.
        assert report["bounds"]["specind"] == "inapplicable"
        assert report["passed"]

    @pytest.mark.parametrize("n", [4, 6])
    def test_hardcore_cycle_gap(self, n):
        # Uniform independent sets of the n-cycle (hardcore model, fugacity 1):
        # the single-site gap is (1 - 1/sqrt(2)) / n at n = 4 and 6.  A measured
        # pattern, not a proven one, so only these two cycles are pinned.
        weights = np.zeros((2,) * n)
        for x in itertools.product((0, 1), repeat=n):
            if not any(x[i] and x[(i + 1) % n] for i in range(n)):
                weights[x] = 1.0
        report = assemble_bounds(FiniteTarget((2,) * n, (weights / weights.sum()).ravel()), 1)
        assert abs(n * report["exact_gap"] - (1 - 1 / math.sqrt(2))) <= 1e-12
        assert report["passed"]

    def test_random_targets_sandwich(self, rng):
        for _ in range(8):
            t = random_small_target(rng)
            report = assemble_bounds(t, 1)
            assert report["passed"]
            bound, exact = report["bounds"], report["exact_gap"]
            for value in (bound["corr"], bound["rw"]):
                assert value <= exact + 1e-9
            if bound["specind"] != "inapplicable":
                assert bound["specind"] <= exact + 1e-9
            assert exact <= bound["upper"] + 1e-9

    def test_product_of_marginals_attains_ceiling(self, rng):
        t = random_small_target(rng)
        prod = product_of_marginals(t)
        profile = gap_profile(prod)
        for l in range(1, prod.n + 1):
            assert profile[prod.n, l] == pytest.approx(l / prod.n, abs=1e-9)

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

    @pytest.mark.parametrize("order", [None, 6], ids=["largest-solve", "order-6"])
    def test_scan_cuts_stacks(self, monkeypatch, order):
        # At the scan's own order, and at one below most kernels' orders,
        # under which their stacks hold one context each.
        t = sparse_mixed_target()
        if order is None:
            order = bounds._largest_solve(t.axes)
        else:
            monkeypatch.setattr(bounds, "_largest_solve", lambda axes: order)
        solved: dict[tuple, list[np.ndarray]] = {}
        gibbs_spectra, route_values = bounds._gibbs_spectra, bounds._route_values

        def gibbs_spy(stack, size):
            solved.setdefault((stack.ndim - 1, size, stack.shape[1:]), []).append(stack.copy())
            return gibbs_spectra(stack, size)

        def route_spy(stack):
            solved.setdefault((stack.ndim - 1, "routes", stack.shape[1:]), []).append(stack.copy())
            return route_values(stack)

        monkeypatch.setattr(bounds, "_gibbs_spectra", gibbs_spy)
        monkeypatch.setattr(bounds, "_route_values", route_spy)
        assert assemble_bounds(t, 1)["passed"]
        expected = {}
        for m in range(1, t.n + 1):
            for ctx in supported_contexts(t, t.n - m):
                rows = supported_conditional(t, ctx)
                sizes = [s for s in range(1, m + 1) if s < t.n] + ["routes"] * (m > 1)
                for size in sizes:
                    expected.setdefault((m, size, rows.shape), []).append(rows)
        assert solved.keys() == expected.keys()
        for key, stacks in solved.items():
            n_states = math.prod(key[2])
            counts = [len(stack) for stack in stacks]
            # No Gibbs stack outgrows a matrix of the scan's order unless it
            # holds one context, and only a shape's last stack is short.
            assert all(b * n_states**2 <= order**2 or b == 1 for b in counts)
            assert all(b == max(1, order**2 // n_states**2) for b in counts[:-1])
            # Every context solved once per block size, in canonical order.
            assert np.array_equal(np.concatenate(stacks), np.stack(expected[key]))

    @given(st.lists(st.integers(2, 9), min_size=2, max_size=7))
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_largest_solve_is_the_largest_over_every_free_shape(self, axes):
        # The top level's block sizes suffice: every lower free shape drops an axis.
        n = len(axes)
        every_shape = max(
            kernels._solve_order(free, l)
            for m in range(1, n + 1)
            for free in itertools.combinations(axes, m)
            for l in range(1, m + 1)
            if l < n
        )
        assert bounds._largest_solve(tuple(axes)) == every_shape

    def test_largest_solve_of_many_coordinates(self):
        # The Gram orders are a recurrence in the sizes, not a sum over the
        # C(m, m - l) kept sets, so 21 binary block sizes take milliseconds.
        assert bounds._largest_solve((2,) * 22) == 2**22

    def test_largest_solve_of_the_benchmark_shapes(self):
        # The (4, 1) Gram matrix on (6,6,6,6); the top kernel on (2,)^8, whose
        # Gram matrix at (8, 1) is larger, of order 1,024.
        assert bounds._largest_solve((6, 6, 6, 6)) == 864
        assert bounds._largest_solve((2,) * 8) == 256

    def test_peak_memory_within_the_largest_solve(self):
        # The largest solve on (6,6,6,6) is the 5.7 MiB Gram matrix at (4, 1).
        # Stacks cut to the full state space, with stack-sized temporaries,
        # peaked at 17.5 MiB, and a Gram fill that held two row blocks at
        # once at 8.35 MiB.
        t = random_target((6, 6, 6, 6), np.random.default_rng(0))
        used, report = peak(lambda: assemble_bounds(t, 1))
        assert report["passed"]
        assert used <= 8 * 2**20, used / 2**20
        order = bounds._largest_solve(t.axes)
        assert used + 8 * order**2 <= bounds._scan_bytes(order)

    @pytest.mark.parametrize(
        "axes", [(2, 3, 4), (150, 150), (500, 10), (12, 12, 12)], ids=str
    )
    def test_footprint_covers_the_peak_and_the_solver_copy(self, axes):
        # The scan's footprint must cover its tracemalloc peak plus the copy
        # of the largest matrix that eigvalsh makes, which tracemalloc does not
        # see.  Two coordinates hold the most beside that matrix (5.3 of it
        # on (150,150)): the correlation route's basis and moment matrices.
        t = random_target(axes, np.random.default_rng(0))
        used, report = peak(lambda: assemble_bounds(t, 1))
        assert report["passed"]
        order = bounds._largest_solve(axes)
        assert used + 8 * order**2 <= bounds._scan_bytes(order), used / (8 * order**2)

    def test_oversized_scan_refused_before_allocating(self):
        # (2,)^14 solves a dense kernel of order 16,384, 2.1 GB a matrix.
        t = random_target((2,) * 14, np.random.default_rng(0))

        def attempt():
            with pytest.raises(ResourceLimitError):
                assemble_bounds(t, 1)

        assert peak(attempt)[0] < 2**20

    def test_block_size_two(self, rng):
        t = random_small_target(rng, n_choices=(4,), axes_choices=(2, 3))
        report = assemble_bounds(t, 2)
        assert report["passed"]
        assert report["bounds"]["upper"] == pytest.approx(0.5, abs=1e-15)

    def test_json_schema(self, rng):
        t = random_small_target(rng, n_choices=(3,))
        data = assemble_bounds(t, 1)
        assert list(data) == [
            "n", "l", "gap", "S", "G", "eta", "bounds", "residuals", "argmin",
            "exact_gap", "min_psd_eigenvalue", "checks", "passed",
        ]
        assert list(data["argmin"]) == ["gap", "S", "G", "eta"]
        assert list(data["checks"]) == [
            "telescope", "corr_bound_le_gap", "rw_bound_le_gap", "specind_bound_le_gap",
            "gap_le_upper", "walk_gap_equals_one_minus_s", "per_level_corr_le_gap",
            "per_level_rw_le_gap", "per_level_specind_le_gap", "gibbs_psd",
        ]
        assert set(data["bounds"]) == {"corr", "rw", "specind", "upper"}
        assert "3,1" in data["gap"]
        assert data["residuals"]["passed"] is True
        # Every key is a string, so the entry is what JSON reads back.
        assert data == json.loads(json.dumps(data))

    def test_specind_inapplicable_serialization(self):
        data = assemble_bounds(coupled_pair_target(), 1)
        assert data["bounds"]["specind"] == "inapplicable"
