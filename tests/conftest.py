"""Shared fixtures, brute-force oracles, context helpers, and the engine's stack-of-one views.

The oracles re-derive marginals, conditionals, and transition matrices by
explicit enumeration (plain Python loops over full assignments), independent
of the package's vectorized tensor assembly, so entrywise comparisons are a
genuine dual route and expected values in tests are computed, not copied.

The package ships no single-context API, so the oracles stand on helpers
defined here: ``marginal``, ``conditional`` (uniform where the context has
zero mass), ``supported_conditional`` (``block / float(block.sum())``, the
bit-equality reference of the engine's level enumeration), ``product_target``
and ``EMPTY_CONTEXT``.  They take their arguments as given, without
validation, and are themselves checked against ``oracle_marginal`` and
``oracle_conditional``.  Beside them sit single-context constructions the
package does not ship: the paper's recursive Gibbs kernel and the altered
index/value walk.  Every oracle is built from these helpers, never from the
package's stacked engine, so it checks that engine by a second route.

The views (``gibbs_kernel``, ``random_walk_kernel``, ``spectral_summary``,
``correlation_coefficient``, ``influence_matrix_tv``, and
``correlation_via_walk`` over two of them) are not oracles: each runs the
engine's private stack builders on a stack of one context, so a test can
hold a single context's kernel or value against an oracle, a closed form, or
another route.  ``gap_profile`` is the view of the whole scan with no route
run: ``Gap(m, l)`` keyed by ``(m, l)``, the values that
``assemble_bounds(t, l)["gap"]`` holds, keyed ``"m,l"``, for every ``l``.
No test uses a view as the reference for the builder it wraps, except to
check that stacking moves no bit.
``supported_contexts`` is brute-force enumeration over ``marginal``, so the
engine's own context enumeration is checked against it.  ``spectral_radius``
is ``max |eigenvalue|``, the arithmetic of the eta route and ``verify-cube``.
"""

from __future__ import annotations

import functools
import itertools
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from spectel.bounds import InfluenceMatrix, _correlation_stack, _influence_stack, _scan
from spectel.kernels import (
    WeightedKernel,
    _coordinate_tables,
    _gibbs_stack,
    _spectral_stack,
    _walk_stack,
)
from spectel.target import CondContext, FiniteTarget, random_target


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def peak(run):
    """(tracemalloc peak in bytes, result) of calling ``run()``."""
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class MemoryChecked(Exception):
    """Raised by a stopping :func:`spy_memory_check` once the check has passed."""


def spy_memory_check(monkeypatch, module, stop: bool = False) -> list[int]:
    """The footprints ``module._check_memory`` is called on, in call order.

    With ``stop``, a footprint that passes the check raises
    :class:`MemoryChecked`, so the run ends before it allocates.
    """
    seen: list[int] = []
    check = module._check_memory

    def spy(nbytes, what):
        seen.append(nbytes)
        check(nbytes, what)
        if stop:
            raise MemoryChecked(nbytes)

    monkeypatch.setattr(module, "_check_memory", spy)
    return seen


def random_small_target(rng, n_choices=(3, 4), axes_choices=(2, 3, 4)) -> FiniteTarget:
    n = int(rng.choice(n_choices))
    axes = [int(rng.choice(axes_choices)) for _ in range(n)]
    return random_target(axes, rng)


def _full_states(axes):
    return list(itertools.product(*[range(a) for a in axes]))


def _prob_lookup(target: FiniteTarget) -> dict:
    flat = target.probs.ravel()
    return dict(zip(_full_states(target.axes), flat))


def oracle_marginal(target: FiniteTarget, gamma) -> np.ndarray:
    """Marginal by explicit summation over all full assignments."""
    gamma = sorted(gamma)
    probs = _prob_lookup(target)
    shape = tuple(target.axes[i - 1] for i in gamma)
    out = np.zeros(shape)
    for full, p in probs.items():
        key = tuple(full[i - 1] for i in gamma)
        out[key] += p
    return out


def oracle_conditional(target: FiniteTarget, gamma, lam, y) -> np.ndarray:
    """Conditional by ratio of enumerated sums, uniform on zero mass."""
    gamma = sorted(gamma)
    probs = _prob_lookup(target)
    shape = tuple(target.axes[i - 1] for i in gamma)
    out = np.zeros(shape)
    mass = 0.0
    for full, p in probs.items():
        if all(full[i - 1] == v for i, v in zip(lam, y)):
            mass += p
            out[tuple(full[i - 1] for i in gamma)] += p
    if mass > 0:
        return out / mass
    return np.full(shape, 1.0 / out.size)


EMPTY_CONTEXT = CondContext((), ())


def product_target(marginals) -> FiniteTarget:
    """Target whose coordinates are independent with the given 1-D marginals."""
    tensor = functools.reduce(np.multiply.outer, [np.asarray(m, dtype=float) for m in marginals])
    return FiniteTarget(tensor.shape, tensor.ravel())


def marginal(target: FiniteTarget, gamma) -> np.ndarray:
    """Marginal tensor of the coordinates in ``gamma``, over their sorted axes."""
    return target.probs.sum(axis=tuple(i - 1 for i in range(1, target.n + 1) if i not in gamma))


def _context_slice(target: FiniteTarget, ctx: CondContext) -> np.ndarray:
    """The tensor with the context's values plugged in, free axes in increasing order.

    Built by its own index tuple, not by the engine's level view, so the
    engine's enumeration is compared bit for bit with an independent one.
    """
    index: list = [slice(None)] * target.n
    for i, v in zip(ctx.lam, ctx.y):
        index[i - 1] = v
    return target.probs[tuple(index)]


def conditional(target: FiniteTarget, gamma, ctx: CondContext) -> np.ndarray:
    """Conditional tensor of ``gamma`` (disjoint from the context) over its sorted axes.

    The ratio of marginals where the context has positive mass, the uniform
    distribution on the ``gamma`` block where it has none.
    """
    free = free_indices(target, ctx)
    block = _context_slice(target, ctx)
    joint = block.sum(axis=tuple(pos for pos, i in enumerate(free) if i not in gamma))
    mass = float(block.sum())
    if mass > 0.0:
        return joint / mass
    return np.full(joint.shape, 1.0 / joint.size)


def supported_conditional(target: FiniteTarget, ctx: CondContext) -> np.ndarray:
    """Conditional tensor of every free coordinate given a context with positive mass."""
    block = _context_slice(target, ctx)
    return block / float(block.sum())


def free_states(target: FiniteTarget, lam):
    free = [i for i in range(1, target.n + 1) if i not in lam]
    return free, list(itertools.product(*[range(target.axes[i - 1]) for i in free]))


def oracle_gibbs_matrix(target: FiniteTarget, lam, y, l):
    """Block Gibbs matrix assembled straight from the algorithm's definition.

    Returns (matrix, weights, states) with states enumerated row-major over
    the free coordinates in increasing index order.
    """
    probs = _prob_lookup(target)
    free, states = free_states(target, lam)
    pos = {i: k for k, i in enumerate(free)}

    def joint(z):
        full = [0] * target.n
        for i, v in zip(lam, y):
            full[i - 1] = v
        for i in free:
            full[i - 1] = z[pos[i]]
        return probs[tuple(full)]

    index = {z: k for k, z in enumerate(states)}
    subsets = list(itertools.combinations(free, l))
    size = len(states)
    matrix = np.zeros((size, size))
    for z in states:
        for gamma in subsets:
            fixed = [i for i in free if i not in gamma]
            compat = [
                zp for zp in states if all(zp[pos[i]] == z[pos[i]] for i in fixed)
            ]
            mass = sum(joint(zp) for zp in compat)
            for zp in compat:
                if mass > 0:
                    matrix[index[z], index[zp]] += joint(zp) / mass / len(subsets)
                else:
                    matrix[index[z], index[zp]] += 1.0 / len(compat) / len(subsets)
    total = sum(joint(z) for z in states)
    weights = np.array([joint(z) / total for z in states])
    return matrix, weights, states


def oracle_gibbs_chain(target: FiniteTarget, steps: int, rng, l: int) -> np.ndarray:
    """Block Gibbs trajectory replayed from the sampler's documented stream.

    Draws the start with ``rng.choice`` over the flat joint, then every block
    with one ``rng.integers`` call and every uniform with one ``rng.random``
    call.  A step redraws the chosen block (blocks in ``itertools.combinations``
    order) by inverse CDF of its conditional given all other coordinates,
    read from :func:`oracle_conditional` with the block values row-major.
    """
    n = target.n
    blocks = list(itertools.combinations(range(1, n + 1), l))
    full = _full_states(target.axes)
    state = list(full[int(rng.choice(len(full), p=target.probs.ravel()))])
    choices = rng.integers(0, len(blocks), size=steps).tolist()
    uniforms = rng.random(steps).tolist()
    rows = {}
    path = []
    for k, u in zip(choices, uniforms):
        gamma = blocks[k]
        lam = tuple(i for i in range(1, n + 1) if i not in gamma)
        y = tuple(state[i - 1] for i in lam)
        if (gamma, y) not in rows:
            rows[(gamma, y)] = oracle_conditional(target, gamma, lam, y).ravel().tolist()
        values = list(itertools.product(*[range(target.axes[i - 1]) for i in gamma]))
        acc = 0.0
        pick = values[-1]
        for value, p in zip(values, rows[(gamma, y)]):
            acc += p
            if u < acc:
                pick = value
                break
        for i, v in zip(gamma, pick):
            state[i - 1] = v
        path.append(list(state))
    return np.array(path, dtype=np.int64).reshape(steps, n)


def oracle_corner_chain(n: int, steps: int, rng, x0=None) -> np.ndarray:
    """Single-site corner chain replayed from the sampler's documented stream.

    A stationary start is the first Dirichlet(1, ..., 1) draw on n + 1 parts
    whose first n entries lie strictly inside the corner.  Steps come in
    blocks of 65,536, each with one ``rng.integers`` call for the coordinates
    and one ``rng.random`` call for the uniforms.  A step sets coordinate i to
    (1 - rest) u, where rest is the running total minus x_i, and redraws u
    with ``rng.random()`` while the state would leave the open corner.  The
    full state is recorded after every step.
    """
    if x0 is None:
        while True:
            x = [float(v) for v in rng.dirichlet(np.ones(n + 1))[:n]]
            if all(v > 0.0 for v in x) and sum(x) < 1.0:
                break
    else:
        x = [float(v) for v in x0]
    total = sum(x)
    path = []
    while len(path) < steps:
        b = min(1 << 16, steps - len(path))
        coords = rng.integers(0, n, size=b).tolist()
        uniforms = rng.random(size=b).tolist()
        for i, u in zip(coords, uniforms):
            rest = total - x[i]
            value = (1.0 - rest) * u
            while not (value > 0.0 and rest + value < 1.0):
                value = (1.0 - rest) * rng.random()
            x[i] = value
            total = rest + value
            path.append(list(x))
    return np.array(path, dtype=float).reshape(steps, n)


def oracle_rw_matrix(target: FiniteTarget, lam, y):
    """Index/value walk matrix by enumeration; states ordered (coord, value)."""
    probs = _prob_lookup(target)
    free = [i for i in range(1, target.n + 1) if i not in lam]
    m = len(free)
    walk_states = [(i, x) for i in free for x in range(target.axes[i - 1])]
    index = {s: k for k, s in enumerate(walk_states)}

    def pair_mass(i, xi, j, xj):
        total = 0.0
        for full, p in probs.items():
            if all(full[a - 1] == v for a, v in zip(lam, y)):
                if full[i - 1] == xi and full[j - 1] == xj:
                    total += p
        return total

    def single_mass(i, xi):
        total = 0.0
        for full, p in probs.items():
            if all(full[a - 1] == v for a, v in zip(lam, y)):
                if full[i - 1] == xi:
                    total += p
        return total

    size = len(walk_states)
    matrix = np.zeros((size, size))
    for (j, x) in walk_states:
        row = index[(j, x)]
        for j2 in free:
            if j2 == j:
                matrix[row, index[(j, x)]] += 1.0 / m
                continue
            mass = single_mass(j, x)
            for x2 in range(target.axes[j2 - 1]):
                if mass > 0:
                    p = pair_mass(j, x, j2, x2) / mass
                else:
                    p = 1.0 / target.axes[j2 - 1]
                matrix[row, index[(j2, x2)]] += p / m
    lam_mass = sum(
        p
        for full, p in probs.items()
        if all(full[a - 1] == v for a, v in zip(lam, y))
    )
    weights = np.array(
        [single_mass(i, x) / lam_mass / m for (i, x) in walk_states]
    )
    return matrix, weights, walk_states


def free_indices(target: FiniteTarget, ctx: CondContext) -> tuple[int, ...]:
    """Complement of the context's index set, sorted, 1-based."""
    return tuple(i for i in range(1, target.n + 1) if i not in ctx.lam)


def marginal_mass(target: FiniteTarget, ctx: CondContext) -> float:
    """Marginal probability of a nonempty context's assignment."""
    return float(marginal(target, ctx.lam)[ctx.y])


def conditional_tensor(target: FiniteTarget, ctx: CondContext) -> np.ndarray:
    """Conditional of all free coordinates given the context."""
    return conditional(target, free_indices(target, ctx), ctx)


def product_of_marginals(target: FiniteTarget) -> FiniteTarget:
    """Independent target with the same single-coordinate marginals."""
    return product_target([marginal(target, (i,)) for i in range(1, target.n + 1)])


def target_to_dict(target: FiniteTarget) -> dict:
    """The JSON wire format ``{"axes": [...], "probs": [...]}`` of a target."""
    return {"axes": list(target.axes), "probs": target.probs.ravel().tolist()}


def _fix(lam: tuple, y: tuple, i: int, v: int) -> tuple[tuple, tuple]:
    """The index set and assignment (lam, y) with coordinate ``i`` also fixed at ``v``."""
    pos = sum(1 for k in lam if k < i)
    return lam[:pos] + (i,) + lam[pos:], y[:pos] + (v,) + y[pos:]


def _recursive_matrix(target: FiniteTarget, lam: tuple, y: tuple, l: int, memo: dict):
    if (lam, y) in memo:
        return memo[(lam, y)]
    free = tuple(i for i in range(1, target.n + 1) if i not in lam)
    shape = tuple(target.axes[i - 1] for i in free)
    n_states = int(np.prod(shape))
    if len(free) == l:
        # Base case: redraw the whole free block in one shot.
        row = conditional(target, free, CondContext(lam, y)).reshape(-1)
        matrix = np.tile(row, (n_states, 1))
    else:
        matrix = np.zeros((n_states, n_states))
        canon = np.arange(n_states).reshape(shape)
        for pos, i in enumerate(free):
            for v in range(target.axes[i - 1]):
                idx = np.take(canon, v, axis=pos).reshape(-1)
                matrix[np.ix_(idx, idx)] += _recursive_matrix(target, *_fix(lam, y, i, v), l, memo)
        matrix /= len(free)
    memo[(lam, y)] = matrix
    return matrix


def recursive_gibbs_kernel(target: FiniteTarget, ctx: CondContext, l: int) -> WeightedKernel:
    """Block Gibbs kernel by the paper's recursive construction.

    Below the full-block base case, the step fixes one uniformly chosen free
    coordinate at its current value and recurses on the remaining ones;
    averaging the embedded sub-kernels must reproduce the engine's dense
    kernel (:func:`gibbs_kernel`) entrywise.  The rows come from
    :func:`conditional`, whose zero-mass-to-uniform convention carries
    through unsupported sub-contexts.
    """
    weights = supported_conditional(target, ctx)
    matrix = _recursive_matrix(target, ctx.lam, ctx.y, l, {})
    return WeightedKernel(matrix, weights.reshape(-1))


def indexed_states(target: FiniteTarget, ctx: CondContext) -> list[tuple[int, int]]:
    """States of the index/value walk in canonical order: (coordinate, value)."""
    return [(i, x) for i in free_indices(target, ctx) for x in range(target.axes[i - 1])]


def altered_random_walk_kernel(target: FiniteTarget, ctx: CondContext) -> WeightedKernel:
    """Index/value walk that redraws the value even when the index repeats.

    From ``(j, x)`` the step picks a free coordinate ``i`` uniformly and draws
    its value from the conditional of ``i`` given the context and ``X_j = x``,
    or given the context alone when ``i == j``.  Rows come from
    :func:`conditional`, not from the walk's own tables, so on functions
    with zero mean within every coordinate component it differs from
    ``random_walk_kernel`` by exactly Id/m.
    """
    free = free_indices(target, ctx)
    m = len(free)
    states = indexed_states(target, ctx)
    start = {i: states.index((i, 0)) for i in free}
    matrix = np.zeros((len(states), len(states)))
    for row, (j, x) in enumerate(states):
        inner = CondContext(*_fix(ctx.lam, ctx.y, j, x))
        for i in free:
            law = conditional(target, (i,), ctx if i == j else inner)
            matrix[row, start[i] : start[i] + law.size] = law / m
    weights = np.concatenate([conditional(target, (i,), ctx) for i in free]) / m
    return WeightedKernel(matrix, weights)


def supported_contexts(target: FiniteTarget, lambda_size: int):
    """Every context of ``lambda_size`` fixed coordinates with positive ``marginal`` mass.

    Index sets in lexicographic order, then assignments row-major (last
    index fastest); size 0 yields exactly the empty context.
    """
    if lambda_size == 0:
        yield EMPTY_CONTEXT
        return
    for lam in itertools.combinations(range(1, target.n + 1), lambda_size):
        mass = marginal(target, lam)
        for y in itertools.product(*[range(target.axes[i - 1]) for i in lam]):
            if mass[y] > 0.0:
                yield CondContext(lam, y)


def _context_tables(target: FiniteTarget, ctx: CondContext):
    """The engine's marginals, pair tables and pair rows of one supported context."""
    return _coordinate_tables(supported_conditional(target, ctx)[None])


def gibbs_kernel(target: FiniteTarget, ctx: CondContext, l: int) -> WeightedKernel:
    """View: the engine's dense block-``l`` Gibbs kernel of one supported context."""
    weights = supported_conditional(target, ctx)
    return WeightedKernel(_gibbs_stack(weights[None], l)[0], weights.reshape(-1))


def random_walk_kernel(target: FiniteTarget, ctx: CondContext) -> WeightedKernel:
    """View: the engine's index/value walk of one supported context."""
    marginals, _, rows = _context_tables(target, ctx)
    matrices, phi = _walk_stack(marginals, rows)
    return WeightedKernel(matrices[0], phi[0])


class SpectralSummary(NamedTuple):
    gap: float
    min_eigenvalue: float


def spectral_summary(kernel: WeightedKernel) -> SpectralSummary:
    """View: the engine's gap and bottom ``min(lambda_min, 0)`` of one kernel."""
    values = _spectral_stack(kernel.matrix[None].copy(), kernel.weights[None])
    return SpectralSummary(*(float(v[0]) for v in values))


def correlation_coefficient(target: FiniteTarget, ctx: CondContext) -> float:
    """View: the engine's Rayleigh-route summation correlation coefficient of one context."""
    marginals, pairs, _ = _context_tables(target, ctx)
    return float(_correlation_stack(marginals, pairs)[0])


def influence_matrix_tv(target: FiniteTarget, ctx: CondContext) -> InfluenceMatrix:
    """View: the engine's discrete-metric influence matrix of one context."""
    marginals, _, rows = _context_tables(target, ctx)
    return InfluenceMatrix(_influence_stack(marginals, rows)[0])


def spectral_radius(matrix) -> float:
    """max |eigenvalue| of a square matrix, as the eta route and ``verify-cube`` take it."""
    return float(np.abs(np.linalg.eigvals(matrix)).max())


def gap_profile(target: FiniteTarget) -> dict[tuple[int, int], float]:
    """View: the engine's exact Gap(m, l), keyed by (m, l), for every 1 <= l <= m <= n."""
    return {key: gap for key, (gap, _, _) in _scan(target, target.n)[0]["gap"].items()}


def correlation_via_walk(target: FiniteTarget, ctx: CondContext) -> float:
    """Summation correlation coefficient as one minus the index/value walk's gap."""
    return 1.0 - spectral_summary(random_walk_kernel(target, ctx)).gap


def oracle_gap(matrix: np.ndarray, weights: np.ndarray) -> float:
    """Spectral gap of a reversible kernel via direct symmetrized eigenvalues."""
    keep = weights > 0
    mat = matrix[np.ix_(keep, keep)]
    w = weights[keep]
    d = np.sqrt(w)
    sym = (d[:, None] * mat) / d[None, :]
    sym = 0.5 * (sym + sym.T)
    spectrum = np.linalg.eigvalsh(sym - np.outer(d, d))
    return 1.0 - max(abs(spectrum[0]), abs(spectrum[-1]))


def coupled_pair_target() -> FiniteTarget:
    """Two binary coordinates forced equal, uniform: the fully coupled pair."""
    return FiniteTarget([2, 2], [0.5, 0.0, 0.0, 0.5])


def sparse_mixed_target() -> FiniteTarget:
    """(2, 3, 2, 3) with 9 of 36 entries zeroed: unsupported contexts and mixed supports."""
    weights = np.random.default_rng(5).dirichlet(np.ones(36))
    weights[[0, 3, 7, 8, 13, 20, 21, 29, 35]] = 0.0
    return FiniteTarget((2, 3, 2, 3), weights / weights.sum())
