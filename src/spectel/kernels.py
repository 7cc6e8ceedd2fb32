"""Exact transition operators for random-scan Gibbs samplers on finite targets.

Two kernel families are assembled as dense row-stochastic matrices:

* :func:`gibbs_kernel` -- one step of the block Gibbs sampler targeting the
  conditional distribution of the free coordinates given a context, with
  block size ``l`` (the uniform mixture over all size-``l`` blocks of the
  conditional-resample transition; the test suite rebuilds it by the
  paper's recursive form as an oracle);
* :func:`random_walk_kernel` -- the index/value walk on the disjoint union of
  the free alphabets: move to a uniformly chosen coordinate and redraw its
  value from the one-coordinate conditional given the current (index, value).

Both are reversible with respect to their stationary weights, so the
spectral analysis symmetrizes with D^{1/2} K D^{-1/2} and uses a dense
symmetric eigensolver: one eigensolve per kernel, of the matrix with the
constant direction deflated.  State spaces are hard-capped at
:data:`STATE_CAP` dense states: this module is a verifier, exactness beats
scale.

The exact pipeline in :mod:`spectel.bounds` builds kernels in stacks: the
contexts of a level that share a free shape, whatever index set they fix,
are stacked together, so the private ``_*_stack`` builders take a stack of
conditionals (B, *shape) and return a (B, N, N) stack of matrices, checked
and eigensolved as one.  Stacks are cut to B * N^2 <= (full state count)^2
floats, so none is larger than the top-level kernel.  The public
single-context functions are stacks of one over the same code, and a
stacked build is bit for bit the single-context one.

Canonical enumerations (normative, so matrices are comparable across runs):
free-coordinate product states are row-major in increasing coordinate order;
index/value walk states are ordered by coordinate index, then value.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DomainError, NumericalContractError, ResourceLimitError
from .target import CondContext, FiniteTarget, supported_conditional

# Dense-eigensolver cap on the number of states of a single kernel.
STATE_CAP = 20_000

_ROW_TOL = 1e-12
# Largest detailed-balance violation |w_i K_ij - w_j K_ji| a summary accepts.
_BALANCE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class WeightedKernel:
    """Row-stochastic matrix with its stationary weight vector.

    ``weights`` defines the L^2 inner product in which the kernel is
    self-adjoint.  Construction checks the structural facts (square shape,
    nonnegativity, row sums and weight mass equal to 1 within 1e-12);
    reversibility is enforced where it matters, in :func:`spectral_summary`.
    """

    matrix: np.ndarray
    weights: np.ndarray

    def __init__(self, matrix, weights) -> None:
        mat = np.asarray(matrix, dtype=float)
        w = np.asarray(weights, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DomainError(f"kernel matrix must be square, got shape {mat.shape}")
        if w.shape != (mat.shape[0],):
            raise DomainError(
                f"weights shape {w.shape} does not match matrix order {mat.shape[0]}"
            )
        _check_stochastic(mat[None], w[None])
        mat = mat.copy()
        w = w.copy()
        mat.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "weights", w)

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"WeightedKernel(order={self.order})"


@dataclass(frozen=True)
class SpectralSummary:
    """Operator norm on mean-zero functions, the gap, and the bottom eigenvalue.

    ``min_eigenvalue`` is the smallest eigenvalue of the deflated operator,
    that is ``min(lambda_min, 0)`` of the symmetrized kernel: exact whenever
    it is <= 0, which is the only case in which a PSD check can fail.
    """

    norm: float
    gap: float
    min_eigenvalue: float


def _check_cap(n_states: int) -> None:
    if n_states > STATE_CAP:
        raise ResourceLimitError(
            f"state space has {n_states} states, exceeding the cap of {STATE_CAP}"
        )


def _check_storage(entries: int) -> None:
    """Refuse a sampler run that would store more values than the largest dense kernel."""
    if entries > STATE_CAP**2:
        raise ResourceLimitError(
            f"the run would store {entries} values, exceeding the cap of {STATE_CAP**2}"
        )


def _check_stochastic(matrices: np.ndarray, weights: np.ndarray) -> None:
    """The structural checks of :class:`WeightedKernel` on a stack (B, N, N), (B, N).

    Each test passes only on a valid value, so a NaN fails it.
    """
    if not ((matrices >= 0).all() and (weights >= 0).all()):
        raise DomainError("kernel entries and weights must be nonnegative numbers")
    row_err = np.abs(matrices.sum(axis=2) - 1.0).max()
    if not row_err <= _ROW_TOL:
        raise DomainError(f"rows must sum to 1 within {_ROW_TOL}, max error {row_err:.3e}")
    w_err = np.abs(weights.sum(axis=1) - 1.0).max()
    if not w_err <= _ROW_TOL:
        raise DomainError(f"weights must sum to 1 within {_ROW_TOL}, error {w_err:.3e}")


def _support_groups(keep: np.ndarray):
    """Split a stack by support: yields (stack indices, kept columns) per distinct row of ``keep``."""
    if (keep == keep[0]).all():
        yield np.arange(len(keep)), np.flatnonzero(keep[0])
        return
    masks, inverse = np.unique(keep, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    for k, mask in enumerate(masks):
        yield np.flatnonzero(inverse == k), np.flatnonzero(mask)


def _block_rows(
    weights: np.ndarray, gamma_pos: tuple[int, ...]
) -> tuple[tuple[int, ...], np.ndarray]:
    """Conditional rows of the axes ``gamma_pos`` given all other axes, per tensor of a stack.

    ``weights`` is a stack (B, *shape) and ``gamma_pos`` counts the axes of
    one tensor.  Returns the other axes ``rest_pos`` and a (B, R, block)
    array whose row ``r`` (the ``rest_pos`` values, row-major) is the
    conditional pmf of the gamma block (row-major); zero-mass rows fall back
    to uniform.  The stack axis is never merged with the others, so each
    tensor's rows are summed exactly as for a stack of one.
    """
    rest_pos = tuple(p for p in range(weights.ndim - 1) if p not in gamma_pos)
    block = int(np.prod([weights.shape[p + 1] for p in gamma_pos]))
    order = (0,) + tuple(p + 1 for p in rest_pos + gamma_pos)
    joint = weights.transpose(order).reshape(len(weights), -1, block)
    mass = joint.sum(axis=2, keepdims=True)
    return rest_pos, np.where(mass > 0, joint / np.where(mass > 0, mass, 1.0), 1.0 / block)


def _coordinate_tables(weights: np.ndarray) -> tuple[list[np.ndarray], dict, dict]:
    """One-coordinate marginals, pair tables and pair rows of a stack of conditionals.

    For a stack (B, *shape), ``marginals[a]`` is (B, k_a); ``pairs[(a, b)]``
    is the (B, k_a, k_b) joint table for every ordered pair a != b, each
    summed once, and ``rows[(a, b)]`` holds its rows normalized: the
    conditional pmf of coordinate b given each value of coordinate a,
    uniform on zero mass.  Shared by the index/value walks and the
    correlation and influence routes, all of which need at least two free
    coordinates.
    """
    m = weights.ndim - 1
    if m < 2:
        raise DomainError(f"need at least 2 free coordinates, got {m}")
    marginals = [
        weights.sum(axis=tuple(p + 1 for p in range(m) if p != pos)) for pos in range(m)
    ]
    pairs = {}
    for a, b in itertools.combinations(range(m), 2):
        drop = tuple(p + 1 for p in range(m) if p not in (a, b))
        pairs[(a, b)] = weights.sum(axis=drop) if drop else weights
        pairs[(b, a)] = pairs[(a, b)].transpose(0, 2, 1)
    rows = {key: _block_rows(pair, (1,))[1] for key, pair in pairs.items()}
    return marginals, pairs, rows


def _context_tables(target: FiniteTarget, ctx: CondContext):
    """:func:`_coordinate_tables` of one supported context, as a stack of one."""
    return _coordinate_tables(supported_conditional(target, ctx)[1][None])


def _gibbs_stack(weights: np.ndarray, l: int) -> np.ndarray:
    """Block Gibbs matrices (B, N, N) of a stack of conditionals (B, *shape).

    Entries accumulate over the blocks in the order of
    ``itertools.combinations``, one ``+=`` per block, so every matrix is bit
    for bit the one a single-context build gives.  A block's rows land on
    the entries whose rest values agree: a strided view of the
    (B, *shape, *shape) kernel that walks the rest axes of both sides
    together.
    """
    n_ctx, shape = weights.shape[0], weights.shape[1:]
    m = len(shape)
    if not 1 <= l <= m:
        raise DomainError(f"block size {l} out of range 1..{m}")
    n_states = int(np.prod(shape))
    _check_cap(n_states)

    kernel = np.zeros((n_ctx,) + shape * 2)
    st = kernel.strides
    for gamma_pos in itertools.combinations(range(m), l):
        rest_pos, rows = _block_rows(weights, gamma_pos)
        gamma_shape = tuple(shape[p] for p in gamma_pos)
        view = np.lib.stride_tricks.as_strided(
            kernel,
            (n_ctx,) + tuple(shape[p] for p in rest_pos) + gamma_shape * 2,
            (st[0],)
            + tuple(st[1 + p] + st[1 + m + p] for p in rest_pos)
            + tuple(st[1 + p] for p in gamma_pos)
            + tuple(st[1 + m + p] for p in gamma_pos),
        )
        view += rows.reshape(view.shape[: 1 + m - l] + (1,) * l + gamma_shape)
    kernel = kernel.reshape(n_ctx, n_states, n_states)
    kernel /= comb(m, l)
    _check_stochastic(kernel, weights.reshape(n_ctx, -1))
    return kernel


def gibbs_kernel(target: FiniteTarget, ctx: CondContext, l: int) -> WeightedKernel:
    """Block Gibbs transition matrix on the free coordinates of a context.

    A step picks a uniformly random subset of ``l`` free coordinates and
    redraws it from its conditional given everything else (context included).
    Stationary weights are the conditional of the free block given the
    context.  With ``l`` equal to the number of free coordinates every row
    equals the stationary weights (one-step exact resampling).
    """
    _, weights = supported_conditional(target, ctx)
    return WeightedKernel(_gibbs_stack(weights[None], l)[0], weights.reshape(-1))


def _walk_stack(
    marginals: list[np.ndarray], rows: dict[tuple[int, int], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Index/value walk matrices (B, N, N) and stationary weights (B, N).

    ``marginals`` and ``rows`` are the one-coordinate marginals and the pair
    conditional rows (see :func:`_coordinate_tables`) of a stack of
    conditionals.
    """
    m = len(marginals)
    n_ctx = marginals[0].shape[0]
    sizes = [marg.shape[1] for marg in marginals]
    n_states = sum(sizes)
    _check_cap(n_states)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    kernel = np.zeros((n_ctx, n_states, n_states))
    for a in range(m):
        sa = slice(offsets[a], offsets[a + 1])
        for b in range(m):
            sb = slice(offsets[b], offsets[b + 1])
            if a != b:
                kernel[:, sa, sb] = rows[(a, b)] / m
            else:
                kernel[:, sa, sb] = np.eye(sizes[a]) / m
    phi = np.concatenate(marginals, axis=1) / m
    _check_stochastic(kernel, phi)
    return kernel, phi


def random_walk_kernel(target: FiniteTarget, ctx: CondContext) -> WeightedKernel:
    """Index/value walk: jump to a uniform free coordinate, redraw its value.

    From state ``(j, x)`` the step picks ``j'`` uniformly among the free
    coordinates; if ``j' == j`` the value is kept, otherwise the new value is
    drawn from the conditional of coordinate ``j'`` given the context and
    ``X_j = x``.  The stationary weight of ``(i, A)`` is the conditional
    marginal of coordinate ``i`` on ``A`` divided by the number of free
    coordinates.
    """
    marginals, _, rows = _context_tables(target, ctx)
    matrices, phi = _walk_stack(marginals, rows)
    return WeightedKernel(matrices[0], phi[0])


def _spectral_stack(
    matrices: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Norms, gaps and bottom eigenvalues of a stack (B, N, N) with weights (B, N).

    Kernels whose zero-weight states differ are solved in separate
    sub-stacks, one per support mask; see :func:`spectral_summary`.
    """
    norm = np.empty(len(matrices))
    bottom = np.empty(len(matrices))
    for sel, keep in _support_groups(weights > 0.0):
        if len(sel) == len(matrices) and len(keep) == weights.shape[1]:
            mat, w = matrices, weights
        else:
            mat, w = matrices[np.ix_(sel, keep, keep)], weights[np.ix_(sel, keep)]
        flux = w[:, :, None] * mat
        flux -= flux.transpose(0, 2, 1).copy()
        balance_err = float(np.abs(flux).max())
        del flux
        if not balance_err <= _BALANCE_TOL:
            raise NumericalContractError(
                f"detailed balance violated by {balance_err:.3e} (tol {_BALANCE_TOL:.1e})"
            )
        d = np.sqrt(w)
        sym = d[:, :, None] * mat
        sym /= d[:, None, :]
        sym = 0.5 * (sym + sym.transpose(0, 2, 1))
        sym -= d[:, :, None] * d[:, None, :]
        spectrum = np.linalg.eigvalsh(sym)
        del sym
        norm[sel] = np.maximum(np.abs(spectrum[:, 0]), np.abs(spectrum[:, -1]))
        bottom[sel] = spectrum[:, 0]
    # norm >= 0, so the gap can leave [0, 1] only from below.
    gap = 1.0 - norm
    if not (gap >= -1e-10).all():
        raise NumericalContractError(f"gap {float(gap.min())!r} fell below 0")
    return norm, np.maximum(gap, 0.0), bottom


def spectral_summary(kernel: WeightedKernel) -> SpectralSummary:
    """Operator norm and gap of a reversible kernel on mean-zero functions.

    States with zero stationary weight are dropped (the similarity transform
    is singular there), the kernel is symmetrized as D^{1/2} K D^{-1/2}, and
    the constant-function direction is deflated.  One eigensolve of the
    deflated matrix gives both the largest absolute eigenvalue (the norm)
    and the bottom eigenvalue, which is ``min(lambda_min, 0)`` of the
    symmetrized kernel because deflation moves the top eigenvalue 1 to 0.
    Detailed balance violated beyond 1e-10 raises
    :class:`NumericalContractError`.
    """
    norm, gap, bottom = _spectral_stack(kernel.matrix[None], kernel.weights[None])
    return SpectralSummary(
        norm=float(norm[0]), gap=float(gap[0]), min_eigenvalue=float(bottom[0])
    )


def sample_gibbs_chain(
    target: FiniteTarget,
    steps: int,
    rng: np.random.Generator,
    l: int = 1,
) -> np.ndarray:
    """Simulate the block Gibbs chain on the full target; returns (steps, n) values.

    The start is an exact draw from the target, so the emitted chain is
    stationary.  The trajectory is a deterministic function of the RNG
    stream: ``rng.choice`` for the start, then one ``rng.integers`` call for
    the blocks and one ``rng.random`` call for the uniforms.  The state is a
    flat row-major index into ``target.probs``; a step looks up its rest row
    in the block's tables and bisects that row's cumulative pmf.  The tables
    (numpy arrays read through memoryviews, 16 bytes per entry) grow as
    C(n, l) * N for N states.  A run whose trajectory and tables would hold
    more than ``STATE_CAP**2`` values raises :class:`ResourceLimitError`
    before anything is allocated.
    """
    n = target.n
    if not 1 <= l <= n:
        raise DomainError(f"block size {l} out of range 1..{n}")
    if steps < 0:
        raise DomainError("steps must be >= 0")
    _check_storage(steps * n + 2 * comb(n, l) * target.probs.size)
    axes = target.axes
    flat = np.arange(target.probs.size).reshape(axes)
    tables = []
    for gamma in itertools.combinations(range(n), l):
        rest, rows = _block_rows(target.probs[None], gamma)
        cum = np.cumsum(rows[0], axis=1)
        cum[:, -1] = 1.0
        index = flat.transpose(rest + gamma).reshape(cum.shape)
        row_of = np.empty(flat.size, dtype=np.int64)
        row_of[index] = np.arange(len(index))[:, None]
        base, offset = index[:, 0].tolist(), index[0].tolist()
        tables.append((memoryview(row_of), base, offset, list(map(memoryview, cum))))

    s = int(rng.choice(flat.size, p=target.probs.ravel()))
    path = np.empty(steps, dtype=np.int64)
    choice_stream = rng.integers(0, len(tables), size=steps).tolist()
    u_stream = rng.random(steps).tolist()
    for t in range(steps):
        row_of, base, offset, cum = tables[choice_stream[t]]
        r = row_of[s]
        s = base[r] + offset[bisect_right(cum[r], u_stream[t])]
        path[t] = s
    del choice_stream, u_stream
    return np.stack(np.unravel_index(path, axes), axis=1)
