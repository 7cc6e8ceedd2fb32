"""Gap profiles, telescoping residuals, and the three lower-bound families.

``Gap(m, l)`` is the worst-case spectral gap of the block-``l`` Gibbs chain
over all conditioning contexts that leave ``m`` coordinates free, minimized
over supported assignments only.  The telescope property chains these values:
``Gap(m, l) >= Gap(m, m-1) * Gap(m-1, l)``, so products of one-step-down gaps
bound the full chain's gap from below.

Three routes produce lower bounds on ``Gap(m, m-1)``:

* correlation: ``1 - S(m)`` where ``S(m)`` is the worst summation correlation
  coefficient of the conditional target over the free coordinates;
* random walk: ``G(m)``, the worst spectral gap of the index/value walk
  (equal to ``1 - S(m)`` exactly, which :func:`assemble_bounds` verifies by
  computing the two sides through independent routes);
* spectral independence: ``(m-1)/m - eta/m`` whenever every influence matrix
  at level ``m`` has spectral radius at most ``eta < m-1``.

Everything here is exact enumeration over supported contexts, never sampling.
:func:`assemble_bounds` returns the target's entry of the ``verify-finite``
report as a plain dict: the gap profile, S, G and eta, the bounds, the
telescope residuals of :func:`telescope_verify`, the context attaining every
extremum, and the checks.

:func:`_scan` solves the profile and routes in one pass over the
levels that enumerates each level's contexts once, from the top level down,
in stacks that gather the contexts of one free shape, whatever index set
they fix.  The scan cuts each stack so that a slice of Gibbs kernels holds
no more floats than the largest matrix it solves for a full-support context
(the order-864 Gram matrix at ``(4, 1)`` on (6,6,6,6), one of the top
level's), one context at least, so that solve sets the scan's memory
ceiling, checked in bytes before any level is enumerated (:func:`_scan_bytes`).
A slice is solved per block size and route and, on the levels the
bounds need, run through the S, G and eta routes, which share one set of
marginals and pair tables.  The top level has one context, so its full-block
gap takes its exact value: that kernel is ``1 pi^T``, the projection onto
constants, so ``Gap(n, n) = 1`` with bottom eigenvalue 0, and it is never
built.  Every ``Gap(m, m)`` with ``m < n`` is still solved densely, because
which of the level's tied contexts a report names is decided by last-bit
rounding.  For a block size ``l < m``, a context with no zero weight is
solved through the Gram matrix of its kept sets when that matrix is the
smaller; every other context through its dense kernel (see
:func:`spectel.kernels._gibbs_spectra`).  Dense contexts whose zero-weight
states differ are solved in sub-stacks, one per support mask.  Each value
lands in one array per level and quantity, in canonical order, and one
picker takes the first extremum, as a context-by-context scan would: every
context of a stack is computed bit for bit as in a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FINITE_TOLERANCES, DomainError, _check_block_size, _check_memory
from .kernels import (
    _SLICE_FLOATS,
    _coordinate_tables,
    _gibbs_spectra,
    _solve_order,
    _spectral_stack,
    _support_groups,
    _walk_stack,
)
from .target import FiniteTarget, _supported_level

# No command builds one; kept while perf/spans.py hooks it (ROADMAP items 3 and 9).
@dataclass(frozen=True)
class InfluenceMatrix:
    """Nonnegative square matrix of pairwise contraction coefficients.

    Entry (i, j) bounds how much the conditional law of free coordinate j can
    move, in the metric of the route that builds the matrix, when the
    conditioned value of free coordinate i changes.  The diagonal is exactly
    zero.
    """

    entries: np.ndarray

    def __init__(self, entries) -> None:
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError(f"influence matrix must be square, got shape {arr.shape}")
        if not ((arr >= 0).all() and np.isfinite(arr).all()):
            raise DomainError("influence coefficients must be finite and nonnegative")
        if np.any(np.diag(arr) != 0.0):
            raise DomainError("influence matrix diagonal must be exactly zero")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


def telescope_verify(
    gaps: dict[tuple[int, int], float], tol: float = FINITE_TOLERANCES["telescope"]
) -> dict:
    """The report's ``residuals`` block for the gap profile ``gaps``, keyed by ``(m, l)``.

    ``telescope["m,l"]`` is ``Gap(m,l) - Gap(m,m-1) * Gap(m-1,l)`` and
    ``chained["l"]`` is ``Gap(n,l)`` minus the full product of one-step-down
    gaps; ``passed`` says every residual is at least ``-tol``.  Violations
    are recorded, never thrown.
    """
    n = max(m for m, _ in gaps)
    telescope = {
        f"{m},{l}": gaps[m, l] - gaps[m, m - 1] * gaps[m - 1, l]
        for m in range(2, n + 1)
        for l in range(1, m)
    }
    chained = {
        str(l): gaps[n, l] - math.prod(gaps[m, m - 1] for m in range(l + 1, n + 1))
        for l in range(1, n)
    }
    passed = all(r >= -tol for r in (*telescope.values(), *chained.values()))
    return {"tol": tol, "passed": passed, "telescope": telescope, "chained": chained}


def _correlation_stack(
    marginals: list[np.ndarray], pairs: dict[tuple[int, int], np.ndarray]
) -> np.ndarray:
    """Summation correlation coefficients (B,) of a stack, by brute-force Rayleigh maximization.

    Maximizes E[(sum_i f_i(Y_i))^2] / (m sum_i E[f_i(Y_i)^2]) over per-
    coordinate functions with zero conditional mean, where Y follows the
    conditional of the free coordinates given the context.  The constrained
    subspace is built explicitly (an orthonormal basis per coordinate in the
    weighted inner product, zero-mass values dropped), turning the problem
    into an ordinary symmetric eigenproblem; the coefficient is 0 when the
    subspace is trivial.  Contexts whose zero-mass values differ are solved
    in separate sub-stacks.
    """
    m = len(marginals)
    sizes = [marg.shape[1] for marg in marginals]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    out = np.empty(marginals[0].shape[0])
    for sel, keep in _support_groups(np.concatenate(marginals, axis=1) > 0.0):
        supports = [keep[(keep >= lo) & (keep < hi)] - lo for lo, hi in zip(offsets, offsets[1:])]
        marg = [marginals[a][np.ix_(sel, supports[a])] for a in range(m)]
        # Row offsets of the supported values, column offsets of the basis.
        r_off = np.concatenate(([0], np.cumsum([len(s) for s in supports])))
        c_off = np.concatenate(([0], np.cumsum([len(s) - 1 for s in supports])))
        if c_off[-1] == 0:
            out[sel] = 0.0
            continue
        basis = np.zeros((len(sel), r_off[-1], c_off[-1]))
        second_moment = np.zeros((len(sel), r_off[-1], r_off[-1]))
        for a in range(m):
            sa = slice(r_off[a], r_off[a + 1])
            diag = np.arange(r_off[a], r_off[a + 1])
            second_moment[:, diag, diag] = marg[a]
            if len(supports[a]) >= 2:
                # Orthonormal basis of the complement of sqrt(w): the right
                # singular vectors of the 1 x k matrix beyond the first.
                d = np.sqrt(marg[a])
                vh = np.linalg.svd(d[:, None, :], full_matrices=True)[2]
                ortho = vh[:, 1:, :].transpose(0, 2, 1)
                basis[:, sa, c_off[a] : c_off[a + 1]] = ortho / d[:, :, None]
            for b in range(m):
                if b != a:
                    sb = slice(r_off[b], r_off[b + 1])
                    second_moment[:, sa, sb] = pairs[(a, b)][np.ix_(sel, supports[a], supports[b])]
        reduced = basis.transpose(0, 2, 1) @ second_moment @ basis
        reduced = 0.5 * (reduced + reduced.transpose(0, 2, 1))
        out[sel] = np.linalg.eigvalsh(reduced)[:, -1] / m
    return out


def _influence_stack(
    marginals: list[np.ndarray], rows: dict[tuple[int, int], np.ndarray]
) -> np.ndarray:
    """Tightest discrete-metric influence matrices (B, m, m) of a stack.

    Coefficient (i, j) is the largest total variation distance between the
    conditional laws of free coordinate j induced by two supported values of
    free coordinate i.  Total variation is exactly the optimal-coupling cost
    under the discrete metric, so no smaller constant satisfies the
    contraction condition.  The (B, k_i, k_i, k_j) differences go in slices
    of value rows of at most ``_SLICE_FLOATS`` floats (one row at least);
    each distance is the same sum as unsliced, and the maximum is exact.
    """
    m = len(marginals)
    n_ctx = marginals[0].shape[0]
    phi = np.zeros((n_ctx, m, m))
    for a in range(m):
        supported = marginals[a] > 0
        for b in range(m):
            if b != a:
                r = rows[(a, b)]
                k_a, k_b = r.shape[1:]
                step = max(1, _SLICE_FLOATS // (n_ctx * k_a * k_b))
                for lo in range(0, k_a, step):
                    part = slice(lo, lo + step)
                    both = supported[:, part, None] & supported[:, None, :]
                    diff = np.abs(r[:, part, None, :] - r[:, None, :, :])
                    pair_tv = 0.5 * diff.sum(axis=-1)
                    worst = np.where(both, pair_tv, 0.0).max(axis=(1, 2))
                    np.maximum(phi[:, a, b], worst, out=phi[:, a, b])
    return phi


def _route_values(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S, G and eta of every context in a stack of conditionals (B, *shape).

    The marginals, pair tables and pair conditional rows are computed once
    and shared by the three routes.
    """
    marginals, pairs, rows = _coordinate_tables(weights)
    g = _spectral_stack(*_walk_stack(marginals, rows))[0]
    s = _correlation_stack(marginals, pairs)
    eta = np.abs(np.linalg.eigvals(_influence_stack(marginals, rows))).max(axis=-1)
    return s, g, eta


# The routes and how each picks its extremum over a level's contexts.
_ROUTES = (("S", np.argmax), ("G", np.argmin), ("eta", np.argmax))


def _extremum(pick, values: np.ndarray, contexts: list) -> tuple:
    """(value, lam, y) of one level's extremum; ``pick`` keeps the first on ties."""
    k = int(pick(values))
    return float(values[k]), *contexts[k]


def _largest_solve(axes: tuple[int, ...]) -> int:
    """Order of the largest matrix a scan of ``axes`` solves for a full-support context.

    The largest :func:`spectel.kernels._solve_order` of the top level's
    ``l < n``.  A lower free shape drops an axis, so it has at most
    ``N / min(axes)`` states, below the top's block-1 ``min(N, sum_i N/q_i)``.
    """
    return max(_solve_order(axes, l) for l in range(1, len(axes)))


def _scan_bytes(order: int) -> int:
    """Bytes a scan whose largest solve has ``order`` holds: 8 matrices of that order.

    That matrix, numpy's copy of it inside eigvalsh (which tracemalloc does
    not see) and the largest build or route temporary beside it.  The
    tracemalloc peak of ``assemble_bounds(t, 1)`` reached 5.4 matrices over
    Dirichlet(1) (6,6,6,6), (2,)^8, (3,)^6, (2,3,4), (150,150), (400,50),
    (30,30,4), (20,20,20), (500,10) and (12,12,12), so 6.4 with the copy.
    """
    return 8 * 8 * order**2


def _scan(target: FiniteTarget, l: int) -> tuple[dict[str, dict], float]:
    """Each extremum the scan picks, as ``(value, lam, y)``, and the worst Gibbs bottom eigenvalue.

    ``"gap"`` holds Gap(m, l) keyed by ``(m, l)`` for every ``1 <= l <= m``;
    ``"S"``, ``"G"`` and ``"eta"`` hold the routes' extrema keyed by level
    ``m > l``.  The bottom eigenvalue is the least ``min(lambda_min, 0)`` of
    the symmetrized operator over every Gibbs kernel solved, and the exact 0
    of the top level's full-block kernel, which is not built.

    Each level's supported contexts are enumerated once; every stack is
    solved for each block size ``1..m`` and, when ``m > l``, run through the
    three routes.  The top level has one context, so its full-block gap takes
    its exact value, 1 with bottom 0, and is not solved.  Each free shape's
    stack is cut here, into views, to the largest matrix a full-support
    context solves (:func:`_largest_solve`), so that solve sets the scan's
    memory ceiling, checked (:func:`_scan_bytes`) before any level is
    enumerated, and levels run from the top down, so the largest solves
    meet a heap the lower levels have not yet fragmented.  Results are
    returned in ascending order of level.
    """
    order = _largest_solve(target.axes)
    _check_memory(_scan_bytes(order), f"the exact scan, whose largest solve has order {order},")
    extrema: dict[str, dict] = {"gap": {}, **{name: {} for name, _ in _ROUTES}}
    level_psd: dict[int, float] = {}
    for m in range(target.n, 0, -1):
        contexts, stacks = _supported_level(target, m)
        gaps = np.empty((m, len(contexts)))
        routes = np.empty((len(_ROUTES), len(contexts)))
        low = np.inf
        for shape_pos, shape_weights in stacks:
            cut = max(1, order**2 // math.prod(shape_weights.shape[1:]) ** 2)
            for start in range(0, len(shape_pos), cut):
                pos, weights = shape_pos[start : start + cut], shape_weights[start : start + cut]
                for size in range(1, m + 1):
                    if size == target.n:
                        # The top level has one context, so its full-block gap
                        # takes its exact value: 1 pi^T is 0 on mean-zero functions.
                        gaps[size - 1, pos], bottom = 1.0, 0.0
                    else:
                        gaps[size - 1, pos], bottoms = _gibbs_spectra(weights, size)
                        bottom = float(bottoms.min())
                    low = min(low, bottom)
                if m > l:
                    routes[:, pos] = _route_values(weights)
        level_psd[m] = low
        for size, row in enumerate(gaps, start=1):
            extrema["gap"][m, size] = _extremum(np.argmin, row, contexts)
        for (name, pick), row in zip(_ROUTES, routes if m > l else ()):
            extrema[name][m] = _extremum(pick, row, contexts)
    # min keeps the first of equal values, 0.0 or -0.0, so the levels are
    # taken in ascending order and the reported bottom does not depend on
    # the order in which they were solved.
    min_psd = min(level_psd[m] for m in sorted(level_psd))
    return {name: dict(sorted(levels.items())) for name, levels in extrema.items()}, float(min_psd)


def _report_key(key: int | tuple[int, int]) -> str:
    """A level's key as the report writes it: ``"m"`` or ``"m,l"``."""
    return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)


def assemble_bounds(
    target: FiniteTarget, l: int, tols: dict[str, float] = FINITE_TOLERANCES
) -> dict:
    """The target's ``verify-finite`` report entry for block size ``l``, less its name and axes.

    ``S(m)``, ``G(m)`` and ``eta(m)`` are exact extrema over all supported
    contexts leaving ``m`` coordinates free: S from the Rayleigh-quotient
    correlation coefficient, G from the random-walk gap (two independent
    routes, whose exact relation G = 1 - S is one of the recorded checks),
    eta from the discrete-metric influence matrices.  Lower bounds multiply
    per-level factors down to ``l``.  ``tols`` holds the keys of
    :data:`FINITE_TOLERANCES`: every bound is checked against the exact gap
    and the l/n ceiling with ``bound_slack``, G = 1 - S with ``lemma``, the
    telescope residuals with ``telescope`` and the Gibbs kernels' bottom
    eigenvalue with ``psd``.

    A point mass has no non-constant function, so its gap and ceiling are 1;
    any other target has ``f(x) = g(x_i)`` for a non-constant coordinate
    ``i``, which moves only in the ``l/n`` share of blocks, so Gap <= l/n.

    The entry holds, in this order: ``n`` and ``l``; ``gap`` keyed ``"m,l"``
    and ``S``, ``G`` and ``eta`` keyed ``"m"``; ``bounds`` (``corr``, ``rw``,
    ``specind``, which is ``"inapplicable"`` when some level has
    ``eta >= m - 1``, and the ``upper`` ceiling); the ``residuals`` block of
    :func:`telescope_verify`; ``argmin``, the ``lambda`` and ``y`` of the
    context attaining each value of ``gap``, ``S``, ``G`` and ``eta``;
    ``exact_gap``, which is Gap(n, l); ``min_psd_eigenvalue``, the worst
    Gibbs bottom eigenvalue; ``checks``, every verified inequality by name;
    and ``passed``, their conjunction.
    """
    n = target.n
    _check_block_size(l, n)
    extrema, min_psd = _scan(target, l)
    values = {name: {key: e[0] for key, e in keyed.items()} for name, keyed in extrema.items()}
    gap, s, g, eta = values["gap"], values["S"], values["G"], values["eta"]
    residuals = telescope_verify(gap, tol=tols["telescope"])
    slack = tols["bound_slack"]

    levels = range(l + 1, n + 1)
    corr_bound = float(np.prod([1.0 - s[m] for m in levels]))
    rw_bound = float(np.prod([g[m] for m in levels]))
    # Applicability needs eta strictly below m-1; a 1e-12 margin keeps
    # eigenvalue roundoff at the boundary from producing a noise-level bound.
    specind_factors = {
        m: ((m - 1) / m - eta[m] / m) if eta[m] < m - 1 - 1e-12 else None for m in levels
    }
    if all(f is not None for f in specind_factors.values()):
        specind_bound: float | None = float(np.prod([specind_factors[m] for m in levels]))
    else:
        specind_bound = None

    exact_gap = gap[n, l]
    upper_bound = 1.0 if np.count_nonzero(target.probs) == 1 else l / n

    checks = {
        "telescope": residuals["passed"],
        "corr_bound_le_gap": corr_bound <= exact_gap + slack,
        "rw_bound_le_gap": rw_bound <= exact_gap + slack,
        "specind_bound_le_gap": specind_bound is None or specind_bound <= exact_gap + slack,
        "gap_le_upper": exact_gap <= upper_bound + slack,
        "walk_gap_equals_one_minus_s": all(
            abs(g[m] - (1.0 - s[m])) <= tols["lemma"] for m in levels
        ),
        "per_level_corr_le_gap": all(1.0 - s[m] <= gap[m, m - 1] + slack for m in levels),
        "per_level_rw_le_gap": all(g[m] <= gap[m, m - 1] + slack for m in levels),
        "per_level_specind_le_gap": all(
            specind_factors[m] is None or specind_factors[m] <= gap[m, m - 1] + slack
            for m in levels
        ),
        "gibbs_psd": min_psd >= -tols["psd"],
    }
    return {
        "n": n,
        "l": l,
        **{
            name: {_report_key(key): v for key, v in keyed.items()}
            for name, keyed in values.items()
        },
        "bounds": {
            "corr": corr_bound,
            "rw": rw_bound,
            "specind": "inapplicable" if specind_bound is None else specind_bound,
            "upper": upper_bound,
        },
        "residuals": residuals,
        "argmin": {
            name: {
                _report_key(key): {"lambda": list(lam), "y": list(y)}
                for key, (_, lam, y) in keyed.items()
            }
            for name, keyed in extrema.items()
        },
        "exact_gap": exact_gap,
        "min_psd_eigenvalue": min_psd,
        "checks": checks,
        "passed": all(checks.values()),
    }
