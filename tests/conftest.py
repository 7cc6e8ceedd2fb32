"""Shared fixtures and brute-force oracles.

The oracles re-derive marginals, conditionals, and transition matrices by
explicit enumeration (plain Python loops over full assignments), independent
of the package's vectorized tensor assembly, so entrywise comparisons are a
genuine dual route and expected values in tests are computed, not copied.

Beside them sit single-context constructions the package does not ship: the
paper's recursive Gibbs kernel, the altered index/value walk, the walk route
to the correlation coefficient and a few context helpers.  They are built
from the package's public ``conditional``, ``marginal`` and single-context
kernels, never from its batched engine, so they check that engine by a
second route.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from spectel import (
    CondContext,
    FiniteTarget,
    WeightedKernel,
    conditional,
    marginal,
    product_target,
    random_target,
    random_walk_kernel,
    spectral_summary,
    supported_conditional,
)


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
    averaging the embedded sub-kernels must reproduce ``gibbs_kernel``
    entrywise.  The rows come from ``spectel.conditional``, whose
    zero-mass-to-uniform convention carries through unsupported sub-contexts.
    """
    _, weights = supported_conditional(target, ctx)
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
    ``spectel.conditional``, not from the walk's own tables, so on functions
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
