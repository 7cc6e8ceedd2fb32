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

The exact pipeline solves a block Gibbs kernel by the smaller of two
eigenproblems (:func:`_gibbs_spectra`).  The kernel is an average of
projections onto the functions of its kept sets, so its nonzero spectrum is
that of their Gram matrix (:func:`_gram_stack`), of order
``D = sum_R prod_{i in R} q_i`` against ``N = prod q_i``.  A context takes
the Gram route when ``l < m``, ``D < N`` and all its weights are positive;
the full-block kernels (``l = m``, gap 1 for every context) and contexts
with zero weights stay dense, because their gaps tie and the context a
report names is chosen by last-bit rounding.  Both routes end in one
eigensolve (:func:`_solve`) with one bottom rule, ``min(lambda_min, 0)``.
The one full-block kernel the pipeline never builds is the top level's: the
top level has one context, so :mod:`spectel.bounds` gives its gap its exact
value, 1.

The exact pipeline in :mod:`spectel.bounds` builds kernels in stacks: the
contexts of a level that share a free shape, whatever index set they fix,
are stacked together, so the private ``_*_stack`` builders take a stack of
conditionals (B, *shape) and return a (B, N, N) stack of matrices, checked
and eigensolved; the Gram builder returns the spectral values of its stack.
Stacks are cut to B * N^2 <= D^2 floats, one context at least, where D is the
order of the largest matrix the scan solves for a full-support context, and
every temporary of a check, symmetrization or normalization covers a slice
of at most ``_SLICE_FLOATS`` floats (one matrix or row at least), so a scan
needs little more memory than its largest eigensolve.  The public
single-context functions are stacks of one over the same code, and a
stacked build is bit for bit the single-context one.

Canonical enumerations (normative, so matrices are comparable across runs):
free-coordinate product states are row-major in increasing coordinate order;
index/value walk states are ordered by coordinate index, then value.
"""

from __future__ import annotations

import itertools
import math
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
# Floats of a stack that one check, symmetrization or Gram normalization
# step covers (512 KiB), one dense matrix or Gram row at least, so that no
# temporary outgrows it.
_SLICE_FLOATS = 2**16


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

    ``min_eigenvalue`` is ``min(lambda_min, 0)`` of the symmetrized kernel on
    the dense and the Gram route alike: the deflated bottom, 0.0 where that
    rounds above 0, exact when < 0, the only case in which a PSD check fails.
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


def _check_stochastic(
    matrices: np.ndarray, weights: np.ndarray, blocks=None, mass=1.0
) -> None:
    """The structural checks of :class:`WeightedKernel` on a stack (B, N, N), (B, N).

    With ``blocks``, the first column of each column block, every block of
    every row must sum to 1 (a row of side-by-side conditional tables).
    With ``mass`` (B, rows, 1), row sums are divided by it first, so a row
    of joint tables is checked as its conditionals without dividing it out.
    Each test passes only on a valid value, so a NaN fails it.
    """
    if not ((matrices >= 0).all() and (weights >= 0).all()):
        raise DomainError("kernel entries and weights must be nonnegative numbers")
    sums = matrices.sum(axis=2) if blocks is None else np.add.reduceat(matrices, blocks, axis=2)
    row_err = np.abs(sums / mass - 1.0).max()
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
        pairs[(a, b)] = weights.sum(axis=tuple(p + 1 for p in range(m) if p not in (a, b)))
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


def _gram_order(shape: tuple[int, ...], l: int) -> int:
    """Order of the block-``l`` Gram matrix on ``shape``: the summed sizes of the kept alphabets."""
    m = len(shape)
    return sum(math.prod(shape[p] for p in kept) for kept in itertools.combinations(range(m), m - l))


def _gram_stack(weights: np.ndarray, l: int) -> np.ndarray:
    """Norms, gaps and bottoms (3, B) of the block-``l`` Gibbs kernels of a stack (B, *shape).

    The kernel is an average of projections, ``(1/k) sum_R J_R J_R*``, where
    ``R`` runs over the ``k`` kept sets of size ``m - l`` in the order of
    ``itertools.combinations`` and ``J_R`` embeds the functions of ``x_R``.
    So its nonzero spectrum is that of the Gram matrix ``(1/k) J* J``, whose
    (R, R') block is ``pi(x_R = a, x_R' = b) / sqrt(pi_R(a) pi_R'(b))``:
    order ``D = sum_R prod_{i in R} q_i`` instead of ``N = prod q_i``.  Each
    pair table sums the weights over the flat state codes of ``(x_R, x_R')``
    with ``np.bincount`` and fills block (R, R') and, as its transpose, block
    (R', R), so detailed balance holds by construction.  One bincount per
    kept set ``R`` fills its row block against every ``R'`` from ``R`` on.
    There are ``C(k, 2)`` pairs, which can exceed ``N``, so the build holds
    the (B, D, D) matrix beside (B, k, N) codes and one (B, |R|, D) row
    block, never codes for every pair at once.  Then, in slices of at most
    ``_SLICE_FLOATS`` floats (one row at least), every conditional table
    ``pi(x_R' | x_R)`` is checked row-stochastic within ``_ROW_TOL`` by
    summing the joint tables in place, and the rows are normalized and
    deflated of the constant direction ``u = sqrt(pi_R(a) / k)`` in place,
    so no temporary outgrows a slice.  One eigensolve gives the norm and
    ``min(lambda_min, 0)``.
    Every weight must be positive, so no marginal is zero; ``l`` must be
    below ``m``.
    """
    n_ctx, shape = weights.shape[0], weights.shape[1:]
    m = len(shape)
    if not 1 <= l < m:
        raise DomainError(f"Gram block size {l} out of range 1..{m - 1}")
    kept = list(itertools.combinations(range(m), m - l))
    k = len(kept)
    # codes[r, x]: the value state x takes on kept set r, row-major.
    values = np.indices(shape).reshape(m, -1)
    codes = np.zeros((k, values.shape[1]), dtype=np.int64)
    sizes = np.ones(k, dtype=np.int64)
    for r, keep in enumerate(kept):
        for p in keep:
            codes[r] = codes[r] * shape[p] + values[p]
            sizes[r] *= shape[p]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    order = int(offsets[-1])

    # Row block r holds the tables of (R, R') for every R' from R on, its
    # own diagonal block (the marginal) included: one bincount over codes
    # (B, k - r, N).
    flat = weights.reshape(n_ctx, 1, -1)
    gram = np.empty((n_ctx, order, order))
    for r in range(k):
        lo, hi = offsets[r], offsets[r + 1]
        width = order - lo
        index = codes[r] * width + codes[r:] + (offsets[r:-1] - lo)[:, None]
        index = index + np.arange(n_ctx)[:, None, None] * (sizes[r] * width)
        mass = np.broadcast_to(flat, index.shape)
        block = np.bincount(index.ravel(), mass.ravel(), n_ctx * sizes[r] * width)
        block = block.reshape(n_ctx, sizes[r], width)
        gram[:, lo:hi, lo:] = block
        gram[:, hi:, lo:hi] = block[:, :, hi - lo :].transpose(0, 2, 1)
    diag = np.arange(order)
    marg = gram[:, diag, diag]
    d = np.sqrt(marg)
    share = marg / k
    u = np.sqrt(share)
    step = max(1, _SLICE_FLOATS // (n_ctx * order))
    for lo in range(0, order, step):
        part = slice(lo, lo + step)
        rows = gram[:, part]
        _check_stochastic(rows, share, offsets[:-1], marg[:, part, None])
        rows /= d[:, part, None] * d[:, None, :]
        rows /= k
        rows -= u[:, part, None] * u[:, None, :]
    return _solve(gram)


def _gibbs_spectra(weights: np.ndarray, l: int) -> np.ndarray:
    """Norms, gaps and bottoms (3, B) of the block-``l`` Gibbs kernels of a stack (B, *shape).

    A context takes the Gram route (:func:`_gram_stack`) when ``l < m``, the
    Gram order is below ``N`` and every one of its weights is positive; the
    others are built densely and solved by :func:`_spectral_stack`.  The
    ``(m, m)`` kernels and contexts with zero weights stay dense because
    their gaps tie (every ``Gap(m, m)`` is 1, reducible chains have gap 0),
    and which tied context a report names is decided by last-bit rounding.
    The exact pipeline does not call this for the top level's ``(n, n)``
    kernel: that level has one context, so its gap takes its exact value.
    A context's route depends on its own weights only, never on its stack.
    """
    shape = weights.shape[1:]
    flat = weights.reshape(len(weights), -1)
    gram_smaller = l < len(shape) and _gram_order(shape, l) < flat.shape[1]
    on_gram = (flat > 0).all(axis=1) & gram_smaller
    out = np.empty((3, len(flat)))
    if on_gram.any():
        out[:, on_gram] = _gram_stack(weights[on_gram], l)
    if not on_gram.all():
        out[:, ~on_gram] = _spectral_stack(_gibbs_stack(weights[~on_gram], l), flat[~on_gram])
    return out


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


def _solve(mat: np.ndarray) -> np.ndarray:
    """Norms ``max|lambda|``, gaps ``1 - norm`` and bottoms ``min(lambda_min, 0)`` (3, B).

    A gap below -1e-10 raises :class:`NumericalContractError`.
    """
    spectrum = np.linalg.eigvalsh(mat)
    norm = np.maximum(np.abs(spectrum[:, 0]), np.abs(spectrum[:, -1]))
    # norm >= 0, so the gap can leave [0, 1] only from below.
    gap = 1.0 - norm
    if not (gap >= -1e-10).all():
        raise NumericalContractError(f"gap {float(gap.min())!r} fell below 0")
    return np.stack((norm, np.maximum(gap, 0.0), np.minimum(spectrum[:, 0], 0.0)))


def _balance_error(matrices: np.ndarray, weights: np.ndarray) -> float:
    """Largest |w_i K_ij - w_j K_ji| of a stack, taken over one half of the rows at a time."""
    n = matrices.shape[1]
    step = -(-n // 2)
    err = 0.0
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        flux = weights[:, rows, None] * matrices[:, rows]
        flux -= weights[:, None, :] * matrices[:, :, rows].transpose(0, 2, 1)
        err = max(err, float(np.abs(flux).max()))
    return err


def _spectral_stack(matrices: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Norms, gaps and bottoms (3, B) of a stack (B, N, N) with weights (B, N).

    Kernels whose zero-weight states differ are solved in separate
    sub-stacks, one per support mask; see :func:`spectral_summary`.  Each
    sub-stack goes in slices of at most ``_SLICE_FLOATS`` floats, one matrix
    at least: a slice is checked for detailed balance, symmetrized in place
    and solved, so no temporary outgrows a slice.  A full-support stack is
    symmetrized in its own buffer, so it must be a temporary.
    """
    out = np.empty((3, len(matrices)))
    for sel, keep in _support_groups(weights > 0.0):
        whole = len(sel) == len(matrices) and len(keep) == weights.shape[1]
        step = max(1, _SLICE_FLOATS // len(keep) ** 2)
        for lo in range(0, len(sel), step):
            part = sel[lo : lo + step]
            if whole:
                mat, w = matrices[lo : lo + step], weights[lo : lo + step]
            else:
                mat, w = matrices[np.ix_(part, keep, keep)], weights[np.ix_(part, keep)]
            balance_err = _balance_error(mat, w)
            if not balance_err <= _BALANCE_TOL:
                raise NumericalContractError(
                    f"detailed balance violated by {balance_err:.3e} (tol {_BALANCE_TOL:.1e})"
                )
            d = np.sqrt(w)
            mat *= d[:, :, None]
            mat /= d[:, None, :]
            np.add(mat, mat.transpose(0, 2, 1), out=mat)
            mat *= 0.5
            mat -= d[:, :, None] * d[:, None, :]
            out[:, part] = _solve(mat)
    return out


def spectral_summary(kernel: WeightedKernel) -> SpectralSummary:
    """Operator norm and gap of a reversible kernel on mean-zero functions.

    States with zero stationary weight are dropped (the similarity transform
    is singular there), the kernel is symmetrized as D^{1/2} K D^{-1/2}, and
    the constant-function direction is deflated.  One eigensolve of the
    deflated matrix gives both the largest absolute eigenvalue (the norm)
    and the bottom eigenvalue, ``min(lambda_min, 0)`` of the symmetrized
    kernel on this and the Gram route, since deflation moves 1 to 0.
    Detailed balance violated beyond 1e-10 raises
    :class:`NumericalContractError`.
    """
    norm, gap, bottom = _spectral_stack(kernel.matrix[None].copy(), kernel.weights[None])
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
