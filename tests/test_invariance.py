"""Properties the paper implies, checked on small random targets.

Renaming coordinates or alphabet values describes the same distribution, so
``Gap(m, l)``, ``S(m)``, ``G(m)`` and ``eta(m)`` must not move.  The batched
engine must agree with the brute-force oracles of ``conftest`` context by
context, ``Gap(m, m)`` is 1, the telescope inequality holds, and product
targets have ``Gap(m, l) = l/m`` at every level, zero-mass values included,
with ``S``, ``G`` and ``eta`` at their independent-case values.
Targets are small (alphabets of size 2 or 3, at most 4 coordinates) with
integer weights, so zero entries are common: they leave contexts unsupported,
make the conditional rows fall back to uniform, and put contexts with
different zero-weight states into one index-set group.  Full-support targets
(weights 1..4) put every context whose Gram matrix is the smaller on the
Gram route, which contexts with zero weights never take.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    correlation_coefficient,
    gap_profile,
    influence_matrix_tv,
    oracle_gap,
    oracle_rw_matrix,
    product_target,
    random_walk_kernel,
    recursive_gibbs_kernel,
    spectral_radius,
    spectral_summary,
    supported_conditional,
    supported_contexts,
)
from spectel.bounds import assemble_bounds, telescope_verify
from spectel.kernels import _gibbs_spectra
from spectel.target import FiniteTarget

SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@st.composite
def targets(draw, low: int = 0) -> np.ndarray:
    axes = draw(st.lists(st.sampled_from((2, 3)), min_size=2, max_size=4))
    size = int(np.prod(axes))
    weights = draw(st.lists(st.integers(low, 4), min_size=size, max_size=size))
    if not any(weights):
        weights[draw(st.integers(0, size - 1))] = 1
    tensor = np.array(weights, dtype=float).reshape(axes)
    return tensor / tensor.sum()


def profile_values(tensor: np.ndarray) -> dict:
    report = assemble_bounds(FiniteTarget(tensor.shape, tensor.ravel()), 1)
    return {name: report[name] for name in ("gap", "S", "G", "eta")}


def assert_same_profiles(a: dict, b: dict) -> None:
    for name in a:
        assert a[name].keys() == b[name].keys()
        for key, value in a[name].items():
            assert abs(value - b[name][key]) <= 1e-12, (name, key, value, b[name][key])


@SETTINGS
@given(data=st.data())
def test_coordinate_permutation_invariance(data):
    tensor = data.draw(targets())
    order = data.draw(st.permutations(range(tensor.ndim)))
    assert_same_profiles(profile_values(tensor), profile_values(tensor.transpose(order)))


@SETTINGS
@given(data=st.data())
def test_value_relabelling_invariance(data):
    tensor = data.draw(targets())
    relabelled = tensor
    for axis, size in enumerate(tensor.shape):
        labels = data.draw(st.permutations(range(size)))
        relabelled = np.take(relabelled, labels, axis=axis)
    assert_same_profiles(profile_values(tensor), profile_values(relabelled))


def assert_matches_recursive_oracle(tensor: np.ndarray) -> None:
    target = FiniteTarget(tensor.shape, tensor.ravel())
    profile = gap_profile(target)
    n = target.n
    for m in range(1, n + 1):
        contexts = list(supported_contexts(target, n - m))
        for l in range(1, m + 1):
            expected = min(
                oracle_gap(kernel.matrix, kernel.weights)
                for kernel in (recursive_gibbs_kernel(target, ctx, l) for ctx in contexts)
            )
            assert abs(profile[m, l] - expected) <= 1e-12, (m, l)
        assert abs(profile[m, m] - 1.0) <= 1e-12
    # Zero weights leave zero-mass contexts, which the Dirichlet sweep never has.
    assert telescope_verify(profile)["passed"]


@SETTINGS
@given(data=st.data())
def test_gap_profile_matches_recursive_oracle(data):
    assert_matches_recursive_oracle(data.draw(targets()))


@SETTINGS
@given(data=st.data())
def test_gap_profile_matches_recursive_oracle_on_full_support(data):
    assert_matches_recursive_oracle(data.draw(targets(low=1)))


def first_extremum(values, better):
    """Value and context of a context-by-context scan that keeps the first extremum."""
    best = None
    for value, ctx in values:
        if best is None or better(value, best[0]):
            best = (value, ctx)
    return best[0], {"lambda": list(best[1].lam), "y": list(best[1].y)}


def context_gap(target: FiniteTarget, ctx, l: int) -> float:
    """One context's block-``l`` gap, by the route the engine takes for it, as a stack of one."""
    weights = supported_conditional(target, ctx)
    return float(_gibbs_spectra(weights[None], l)[0][0])


def assert_stacked_engine_equals_context_scan(tensor: np.ndarray) -> None:
    # Exact equality: Gap(m, m) is 1 for every context, so for m < n which
    # context a report names is decided by last-bit rounding; stacking must
    # not move it.  The top level has one context, so its full-block gap
    # takes its exact value instead of a solve's rounding.
    target = FiniteTarget(tensor.shape, tensor.ravel())
    report = assemble_bounds(target, 1)
    n = target.n
    lt, gt = (lambda a, b: a < b), (lambda a, b: a > b)
    for m in range(1, n + 1):
        contexts = list(supported_contexts(target, n - m))
        for l in range(1, m + 1):
            key = f"{m},{l}"
            if (m, l) == (n, n):
                expected = (1.0, {"lambda": [], "y": []})
            else:
                expected = first_extremum(((context_gap(target, c, l), c) for c in contexts), lt)
            assert (report["gap"][key], report["argmin"]["gap"][key]) == expected, (m, l)
        if m < 2:
            continue
        routes = {
            "S": (gt, lambda c: correlation_coefficient(target, c)),
            "G": (lt, lambda c: spectral_summary(random_walk_kernel(target, c)).gap),
            "eta": (gt, lambda c: spectral_radius(influence_matrix_tv(target, c).entries)),
        }
        for name, (better, route) in routes.items():
            expected = first_extremum(((route(c), c) for c in contexts), better)
            key = str(m)
            assert (report[name][key], report["argmin"][name][key]) == expected, (name, m)


@SETTINGS
@given(data=st.data())
def test_stacked_engine_equals_context_scan(data):
    assert_stacked_engine_equals_context_scan(data.draw(targets()))


@SETTINGS
@given(data=st.data())
def test_stacked_engine_equals_context_scan_on_full_support(data):
    assert_stacked_engine_equals_context_scan(data.draw(targets(low=1)))


@SETTINGS
@given(data=st.data())
def test_walk_gap_matches_enumeration_oracle(data):
    tensor = data.draw(targets())
    target = FiniteTarget(tensor.shape, tensor.ravel())
    g_profile = assemble_bounds(target, 1)["G"]
    for key, g in g_profile.items():
        m = int(key)
        expected = min(
            oracle_gap(*oracle_rw_matrix(target, ctx.lam, ctx.y)[:2])
            for ctx in supported_contexts(target, target.n - m)
        )
        assert abs(g - expected) <= 1e-12, m


@SETTINGS
@given(data=st.data())
def test_product_target_gap_is_l_over_n(data):
    axes = data.draw(st.lists(st.sampled_from((2, 3)), min_size=2, max_size=4))
    marginals = [
        np.array(data.draw(st.lists(st.integers(1, 4), min_size=a, max_size=a)), dtype=float)
        for a in axes
    ]
    target = product_target([w / w.sum() for w in marginals])
    report = assemble_bounds(target, 1)
    n = target.n
    for l in range(1, n + 1):
        assert abs(report["gap"][f"{n},{l}"] - l / n) <= 1e-12, l
    # Independent coordinates: S(m) = 1/m, G(m) = (m-1)/m and eta(m) = 0.
    for m in range(2, n + 1):
        assert abs(report["S"][str(m)] - 1 / m) <= 1e-12, m
        assert abs(report["G"][str(m)] - (m - 1) / m) <= 1e-12, m
        assert abs(report["eta"][str(m)]) <= 1e-12, m


@SETTINGS
@given(data=st.data())
def test_product_target_gap_is_l_over_m_at_every_level(data):
    # A coordinate's function f(x_i) moves only in the l/m share of blocks
    # that hold i, which is the slowest mode when the coordinates are
    # independent.  A coordinate with one supported value has no non-constant
    # function, so with none of two supported values every gap is 1.
    axes = data.draw(st.lists(st.sampled_from((2, 3)), min_size=2, max_size=4))
    marginals = []
    for a in axes:
        weights = data.draw(st.lists(st.integers(0, 4), min_size=a, max_size=a))
        if not any(weights):
            weights[data.draw(st.integers(0, a - 1))] = 1
        marginals.append(np.array(weights, dtype=float) / sum(weights))
    profile = gap_profile(product_target(marginals))
    varied = any(np.count_nonzero(w) >= 2 for w in marginals)
    for (m, l), gap in profile.items():
        expected = l / m if varied else 1.0
        assert abs(gap - expected) <= 1e-12, (m, l, gap)
