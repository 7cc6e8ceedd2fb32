"""Marginal/conditional exactness, context enumeration, and ingestion rules."""

import json
import math

import numpy as np
import pytest

from spectel import (
    CondContext,
    DomainError,
    EMPTY_CONTEXT,
    FiniteTarget,
    conditional,
    load_target,
    marginal,
    product_target,
    random_target,
    supported_conditional,
    supported_contexts,
    target_from_dict,
)

from spectel.bounds import _largest_solve
from spectel.kernels import _gibbs_stack
from spectel.target import _supported_level

from conftest import (
    conditional_tensor,
    free_indices,
    marginal_mass,
    oracle_conditional,
    oracle_marginal,
    product_of_marginals,
    random_small_target,
    target_to_dict,
)


HAND = FiniteTarget([2, 2], [0.1, 0.2, 0.3, 0.4])


class TestMarginal:
    def test_product_target_marginal_is_factor(self):
        p1 = np.array([0.3, 0.7])
        p2 = np.array([0.2, 0.5, 0.3])
        t = product_target([p1, p2])
        np.testing.assert_allclose(marginal(t, (1,)), p1, atol=1e-15)
        np.testing.assert_allclose(marginal(t, (2,)), p2, atol=1e-15)

    def test_product_target_needs_a_marginal(self):
        with pytest.raises(DomainError, match="at least one marginal"):
            product_target([])

    def test_full_index_set_returns_tensor(self):
        np.testing.assert_array_equal(marginal(HAND, (1, 2)), HAND.probs)

    def test_hand_summation(self):
        np.testing.assert_allclose(marginal(HAND, (2,)), [0.4, 0.6], atol=1e-15)

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(5):
            t = random_small_target(rng)
            for gamma in [(1,), (2,), (1, 2), tuple(range(1, t.n + 1))]:
                np.testing.assert_allclose(
                    marginal(t, gamma), oracle_marginal(t, gamma), atol=1e-13
                )

    def test_out_of_range_index_rejected(self):
        with pytest.raises(DomainError):
            marginal(HAND, (3,))
        with pytest.raises(DomainError):
            marginal(HAND, ())


class TestConditional:
    def test_product_target_conditional_equals_marginal(self):
        t = product_target([np.array([0.3, 0.7]), np.array([0.2, 0.5, 0.3])])
        for y in range(3):
            np.testing.assert_allclose(
                conditional(t, (1,), CondContext((2,), (y,))),
                marginal(t, (1,)),
                atol=1e-14,
            )

    def test_zero_mass_context_is_uniform(self):
        t = FiniteTarget([2, 2], [0.5, 0.5, 0.0, 0.0])
        out = conditional(t, (2,), CondContext((1,), (1,)))
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_hand_ratio(self):
        out = conditional(HAND, (1,), CondContext((2,), (0,)))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(DomainError):
            conditional(HAND, (2,), CondContext((2,), (0,)))

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(5):
            t = random_small_target(rng)
            ctx = CondContext((t.n,), (0,))
            gamma = (1, 2)
            np.testing.assert_allclose(
                conditional(t, gamma, ctx),
                oracle_conditional(t, gamma, ctx.lam, ctx.y),
                atol=1e-13,
            )

    def test_sums_to_one(self, rng):
        t = random_small_target(rng)
        for size in range(t.n):
            for ctx in supported_contexts(t, size):
                free = free_indices(t, ctx)
                assert abs(conditional(t, free, ctx).sum() - 1.0) <= 1e-12

    def test_chain_rule(self, rng):
        for _ in range(5):
            t = random_small_target(rng)
            for ctx in supported_contexts(t, 1):
                gamma = free_indices(t, ctx)[:1]
                joint = marginal(t, tuple(sorted(set(ctx.lam) | set(gamma))))
                mass = marginal_mass(t, ctx)
                cond = conditional(t, gamma, ctx)
                for z in np.ndindex(cond.shape):
                    key = []
                    for i in sorted(set(ctx.lam) | set(gamma)):
                        if i in ctx.lam:
                            key.append(ctx.y[ctx.lam.index(i)])
                        else:
                            key.append(z[gamma.index(i)])
                    assert abs(joint[tuple(key)] - mass * cond[z]) <= 1e-12

    def test_marginal_reconstruction(self, rng):
        # Sum of conditional * context mass over assignments recovers the marginal.
        t = random_small_target(rng)
        gamma = (1,)
        rebuilt = np.zeros(t.axes[0])
        for ctx in supported_contexts(t, t.n - 1):
            if 1 in ctx.lam:
                continue
            rebuilt += marginal_mass(t, ctx) * conditional(t, gamma, ctx)
        np.testing.assert_allclose(rebuilt, marginal(t, gamma), atol=1e-12)


class TestSupportedContexts:
    def test_full_support_singleton_count(self, rng):
        t = random_target([2, 3, 2], rng)
        assert sum(1 for _ in supported_contexts(t, 1)) == 7

    def test_size_zero_yields_single_empty_context(self):
        assert list(supported_contexts(HAND, 0)) == [EMPTY_CONTEXT]

    def test_zero_mass_assignments_excluded(self):
        probs = np.zeros((2, 2, 2))
        probs[1] = 0.25
        t = FiniteTarget([2, 2, 2], probs.ravel())
        contexts = list(supported_contexts(t, 1))
        assert CondContext((1,), (0,)) not in contexts
        assert CondContext((1,), (1,)) in contexts

    def test_out_of_range_size(self):
        with pytest.raises(DomainError):
            list(supported_contexts(HAND, 2))
        with pytest.raises(DomainError):
            list(supported_contexts(HAND, -1))

    def test_supported_flag(self):
        t = FiniteTarget([2, 2], [0.5, 0.5, 0.0, 0.0])
        assert CondContext((1,), (0,)) in supported_contexts(t, 1)
        assert CondContext((1,), (1,)) not in supported_contexts(t, 1)

    def test_supported_conditional(self, rng):
        t = random_small_target(rng)
        for ctx in supported_contexts(t, 1):
            free, weights = supported_conditional(t, ctx)
            assert free == free_indices(t, ctx)
            np.testing.assert_array_equal(weights, conditional_tensor(t, ctx))
        sparse = FiniteTarget([2, 2], [0.5, 0.5, 0.0, 0.0])
        with pytest.raises(DomainError, match="zero marginal mass"):
            supported_conditional(sparse, CondContext((1,), (1,)))


def _sparse_mixed_target() -> FiniteTarget:
    weights = np.random.default_rng(5).dirichlet(np.ones(36))
    weights[[0, 3, 7, 8, 13, 20, 21, 29, 35]] = 0.0
    return FiniteTarget((2, 3, 2, 3), weights.reshape(2, 3, 2, 3) / weights.sum())


@pytest.mark.parametrize(
    "target",
    [random_target((2,) * 6, np.random.default_rng(3)), _sparse_mixed_target()],
    ids=["2^6", "2,3,2,3-sparse"],
)
def test_supported_level_stacks(target):
    spanning = 0
    # The scan's ceiling, and one below most kernels' orders, under which
    # their stacks hold one context each.
    for order in (_largest_solve(target.axes), 6):
        for m in range(1, target.n + 1):
            contexts, stacks = _supported_level(target, m, order)
            assert contexts == [(c.lam, c.y) for c in supported_contexts(target, target.n - m)]
            positions = np.concatenate([pos for pos, _ in stacks])
            # Every supported context exactly once, each stack in canonical order.
            assert sorted(positions.tolist()) == list(range(len(contexts)))
            assert all((np.diff(pos) > 0).all() for pos, _ in stacks)
            by_shape = {}
            for pos, weights in stacks:
                for k, p in enumerate(pos):
                    expected = supported_conditional(target, CondContext(*contexts[p]))[1]
                    assert np.array_equal(weights[k], expected)
                # No Gibbs stack outgrows a matrix of the ceiling's order unless
                # it holds one context, and only the last stack of a free shape
                # is cut short.
                n_states = math.prod(weights.shape[1:])
                assert len(pos) >= 1
                assert _gibbs_stack(weights, 1).size == len(pos) * n_states**2
                assert len(pos) * n_states**2 <= order**2 or len(pos) == 1
                by_shape.setdefault(weights.shape[1:], []).append(len(pos))
                spanning += len({contexts[p][0] for p in pos}) > 1
            for shape, counts in by_shape.items():
                assert all(b == max(1, order**2 // math.prod(shape) ** 2) for b in counts[:-1])
    # Contexts of different index sets with one free shape share stacks.
    assert spanning > 0


class TestIngestion:
    def test_row_major_layout(self):
        t = FiniteTarget([2, 3], [0.1, 0.2, 0.1, 0.2, 0.3, 0.1])
        assert t.probs[0, 1] == pytest.approx(0.2)
        assert t.probs[1, 0] == pytest.approx(0.2)

    def test_small_mass_deviation_renormalized(self):
        t = FiniteTarget([2, 2], np.array([0.1, 0.2, 0.3, 0.4]) * (1 + 5e-10))
        assert t.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_mass_deviation_rejected(self):
        with pytest.raises(DomainError):
            FiniteTarget([2, 2], [0.1, 0.2, 0.3, 0.5])

    def test_negative_entries_rejected(self):
        for bad, problem in ((-0.1, "negative"), (np.nan, "non-finite"), (-np.inf, "non-finite")):
            with pytest.raises(DomainError, match=problem):
                FiniteTarget([2, 2], [bad, 0.4, 0.3, 0.4])

    def test_non_numeric_input_rejected(self):
        with pytest.raises(DomainError, match="numeric"):
            FiniteTarget([2, 2], ["a", 0.4, 0.3, 0.3])
        with pytest.raises(DomainError, match="numeric"):
            FiniteTarget([2, 2], ["0.25", 0.25, 0.25, 0.25])
        for axes in (["x", 2], [2.7, 2], ["2", 2], [math.inf, 2], [2.0, 2]):
            with pytest.raises(DomainError, match="integers"):
                FiniteTarget(axes, [0.1, 0.4, 0.3, 0.2])
        # 2**32 * 2**32 wraps to 0 in int64; the exact size is checked instead.
        with pytest.raises(DomainError, match="entries"):
            FiniteTarget([2**32, 2**32], [])

    def test_boolean_alphabet_size_rejected(self):
        # operator.index reads true as 1, which the size check would report as (2, 1).
        with pytest.raises(DomainError, match="alphabet sizes must be integers, got a boolean"):
            target_from_dict({"axes": [2, True], "probs": [0.25, 0.25, 0.25, 0.25]})
        with pytest.raises(DomainError, match="got a boolean"):
            FiniteTarget([True, 2, 2], [0.25, 0.25, 0.25, 0.25])

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            FiniteTarget([2], [0.5, 0.5])
        with pytest.raises(DomainError):
            FiniteTarget([2, 1], [0.5, 0.5])
        with pytest.raises(DomainError):
            FiniteTarget([2, 2], [0.5, 0.5])

    def test_tensor_is_immutable(self):
        with pytest.raises(ValueError):
            HAND.probs[0, 0] = 0.9

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(target_to_dict(HAND)))
        back = load_target(str(path))
        np.testing.assert_array_equal(back.probs, HAND.probs)

    def test_bad_schema_rejected(self):
        with pytest.raises(DomainError):
            target_from_dict({"axes": [2, 2]})


class TestContexts:
    def test_context_validation(self):
        with pytest.raises(DomainError):
            CondContext((2, 1), (0, 0))
        with pytest.raises(DomainError):
            CondContext((1,), (0, 1))
        with pytest.raises(DomainError):
            CondContext((0,), (0,))

    def test_value_range_checked_against_target(self):
        with pytest.raises(DomainError):
            conditional(HAND, (2,), CondContext((1,), (5,)))

    def test_product_of_marginals_matches_factors(self, rng):
        t = random_small_target(rng)
        prod = product_of_marginals(t)
        for i in range(1, t.n + 1):
            np.testing.assert_allclose(
                marginal(prod, (i,)), marginal(t, (i,)), atol=1e-14
            )
