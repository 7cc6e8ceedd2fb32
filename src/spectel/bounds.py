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
:func:`gap_profile` and :func:`assemble_bounds` share one pass over the levels
that enumerates each level's contexts once, from the top level down, in
stacks that gather the contexts of one free shape, whatever index set they
fix.  Stacks are cut so that a stack of Gibbs kernels holds no more floats
than the largest matrix the scan solves for a full-support context (the
order-864 Gram matrix at ``(4, 1)`` on (6,6,6,6)), one context at least, so
that solve sets the scan's memory ceiling.  A stack is solved per block size
and route and, on the levels the bounds need, run through the S, G and eta
routes, which share one set of marginals and pair tables.  The top level has
one context, so its full-block gap takes its exact value: that kernel is
``1 pi^T``, the projection onto constants, so ``Gap(n, n) = 1`` with bottom
eigenvalue 0, and it is never built.  Every ``Gap(m, m)`` with ``m < n`` is
still solved densely, because which of the level's tied contexts a report
names is decided by last-bit rounding.  For a block size ``l < m``, a context
with no zero weight is solved through the Gram matrix of its kept sets when
that matrix is the smaller; every other context through its dense kernel
(see :func:`spectel.kernels._gibbs_spectra`).  Dense contexts whose zero-weight
states differ are solved in sub-stacks, one per support mask.  Each value
lands in one array per level and quantity, in canonical order, and one
picker takes the first extremum, as a context-by-context scan would.
The single-context functions (:func:`correlation_coefficient`,
:func:`influence_matrix_tv`) are stacks of one over the same code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .kernels import (
    _check_cap,
    _context_tables,
    _coordinate_tables,
    _gibbs_spectra,
    _gram_order,
    _spectral_stack,
    _support_groups,
    _walk_stack,
)
from .target import CondContext, FiniteTarget, _supported_level


@dataclass(frozen=True)
class GapEntry:
    """Exact Gap(m, l) together with the context attaining the minimum."""

    gap: float
    lam: tuple[int, ...]
    y: tuple[int, ...]


@dataclass(frozen=True)
class GapProfile:
    """Exact gaps for all 1 <= l <= m <= n, plus the worst PSD bottom eigenvalue.

    ``min_psd_eigenvalue`` is the smallest ``SpectralSummary.min_eigenvalue``
    (``min(lambda_min, 0)`` of the symmetrized operator) seen across every
    Gibbs kernel built during profiling, and the exact bottom 0 of the top
    level's full-block kernel, which is not built; Gibbs operators are
    positive semi-definite, so it must not fall below -1e-10.
    """

    n: int
    entries: dict[tuple[int, int], GapEntry]
    min_psd_eigenvalue: float

    def gap(self, m: int, l: int) -> float:
        try:
            return self.entries[(m, l)].gap
        except KeyError:
            raise DomainError(f"profile has no entry for (m={m}, l={l})") from None


@dataclass(frozen=True)
class InfluenceMatrix:
    """Nonnegative square matrix of pairwise contraction coefficients.

    Entry (i, j) bounds how much the conditional law of free coordinate j can
    move, in the metric named by ``metric_tag``, when the conditioned value of
    free coordinate i changes.  The diagonal is exactly zero.
    """

    dim: int
    entries: np.ndarray
    metric_tag: str

    def __init__(self, dim: int, entries, metric_tag: str) -> None:
        arr = np.asarray(entries, dtype=float)
        if arr.shape != (dim, dim):
            raise DomainError(f"influence matrix shape {arr.shape} != ({dim}, {dim})")
        if not ((arr >= 0).all() and np.isfinite(arr).all()):
            raise DomainError("influence coefficients must be finite and nonnegative")
        if np.any(np.diag(arr) != 0.0):
            raise DomainError("influence matrix diagonal must be exactly zero")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "metric_tag", str(metric_tag))


@dataclass(frozen=True)
class TelescopeReport:
    """Residuals of the telescope inequality; nonnegative within tolerance means pass.

    ``residuals[(m, l)]`` is ``Gap(m,l) - Gap(m,m-1) * Gap(m-1,l)``;
    ``chained[l]`` is ``Gap(n,l)`` minus the full product of one-step-down
    gaps.  Violations are recorded, never thrown.
    """

    residuals: dict[tuple[int, int], float]
    chained: dict[int, float]
    tol: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "tol": self.tol,
            "passed": self.passed,
            "telescope": {f"{m},{l}": r for (m, l), r in sorted(self.residuals.items())},
            "chained": {str(l): r for l, r in sorted(self.chained.items())},
        }


def gap_profile(target: FiniteTarget) -> GapProfile:
    """Exact Gap(m, l) for every 1 <= l <= m <= n.

    For each level ``m`` the minimum runs over all index sets of size
    ``n - m`` and all supported assignments, in canonical enumeration order
    (ties keep the first context encountered, for reproducibility).  Each
    level is enumerated once; the contexts that share a free shape are
    solved as stacks, one stacked eigensolve per block size and route.
    """
    return _scan(target, target.n)[0]


def telescope_verify(profile: GapProfile, tol: float = 1e-9) -> TelescopeReport:
    """Residuals of Gap(m,l) >= Gap(m,m-1) Gap(m-1,l) plus the chained product form."""
    n = profile.n
    residuals: dict[tuple[int, int], float] = {}
    chained: dict[int, float] = {}
    for l in range(1, n):
        for m in range(l + 1, n + 1):
            residuals[(m, l)] = profile.gap(m, l) - profile.gap(m, m - 1) * profile.gap(
                m - 1, l
            )
        product = 1.0
        for m in range(l + 1, n + 1):
            product *= profile.gap(m, m - 1)
        chained[l] = profile.gap(n, l) - product
    passed = all(r >= -tol for r in residuals.values()) and all(
        r >= -tol for r in chained.values()
    )
    return TelescopeReport(residuals=residuals, chained=chained, tol=tol, passed=passed)


def _correlation_stack(
    marginals: list[np.ndarray], pairs: dict[tuple[int, int], np.ndarray]
) -> np.ndarray:
    """Summation correlation coefficients of a stack; see :func:`correlation_coefficient`.

    Contexts whose zero-mass values differ are solved in separate sub-stacks.
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


def correlation_coefficient(target: FiniteTarget, ctx: CondContext) -> float:
    """Summation correlation coefficient by brute-force Rayleigh maximization.

    Maximizes E[(sum_i f_i(Y_i))^2] / (m sum_i E[f_i(Y_i)^2]) over per-
    coordinate functions with zero conditional mean, where Y follows the
    conditional of the free coordinates given the context.  The constrained
    subspace is built explicitly (an orthonormal basis per coordinate in the
    weighted inner product, zero-mass values dropped), turning the problem
    into an ordinary symmetric eigenproblem.  Returns 0 when the subspace is
    trivial.
    """
    marginals, pairs, _ = _context_tables(target, ctx)
    return float(_correlation_stack(marginals, pairs)[0])


def _influence_stack(
    marginals: list[np.ndarray], rows: dict[tuple[int, int], np.ndarray]
) -> np.ndarray:
    """Discrete-metric influence matrices (B, m, m) of a stack; see :func:`influence_matrix_tv`."""
    m = len(marginals)
    phi = np.zeros((marginals[0].shape[0], m, m))
    for a in range(m):
        supported = marginals[a] > 0
        both = supported[:, :, None] & supported[:, None, :]
        for b in range(m):
            if b != a:
                r = rows[(a, b)]
                pair_tv = 0.5 * np.abs(r[:, :, None, :] - r[:, None, :, :]).sum(axis=-1)
                phi[:, a, b] = np.where(both, pair_tv, 0.0).max(axis=(1, 2))
    return phi


def influence_matrix_tv(target: FiniteTarget, ctx: CondContext) -> InfluenceMatrix:
    """Tightest discrete-metric influence matrix of the conditional target.

    Coefficient (i, j) is the largest total variation distance between the
    conditional laws of free coordinate j induced by two supported values of
    free coordinate i.  Total variation is exactly the optimal-coupling cost
    under the discrete metric, so no smaller constant satisfies the
    contraction condition.
    """
    marginals, _, rows = _context_tables(target, ctx)
    return InfluenceMatrix(len(marginals), _influence_stack(marginals, rows)[0], "tv-discrete")


def spectral_radius(matrix) -> float:
    """Perron root of a nonnegative square matrix (max |eigenvalue|)."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError(f"matrix must be square, got shape {arr.shape}")
    if not ((arr >= 0).all() and np.isfinite(arr).all()):
        raise DomainError("spectral radius is defined here for finite nonnegative matrices")
    if arr.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(arr)).max())


@dataclass(frozen=True)
class BoundReport:
    """Per-target assembly of exact gaps, profiles, and the three lower bounds.

    ``specind_bound`` is ``None`` when some level has influence spectral
    radius >= m - 1, mirroring the hypothesis of the spectral-independence
    bound rather than clamping to zero.  ``checks`` records every verified
    inequality; ``passed`` is their conjunction.
    """

    n: int
    l: int
    profile: GapProfile
    telescope: TelescopeReport
    s_profile: dict[int, float]
    g_profile: dict[int, float]
    eta_profile: dict[int, float]
    corr_bound: float
    rw_bound: float
    specind_bound: float | None
    upper_bound: float
    exact_gap: float
    checks: dict[str, bool]
    extremal_contexts: dict[str, dict[int, dict]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json_dict(self) -> dict:
        entries = sorted(self.profile.entries.items())
        argmin = {
            "gap": {f"{m},{l}": {"lambda": list(e.lam), "y": list(e.y)} for (m, l), e in entries}
        }
        argmin.update(self.extremal_contexts)
        return {
            "n": self.n,
            "l": self.l,
            "gap": {f"{m},{l}": e.gap for (m, l), e in entries},
            "S": {str(m): v for m, v in sorted(self.s_profile.items())},
            "G": {str(m): v for m, v in sorted(self.g_profile.items())},
            "eta": {str(m): v for m, v in sorted(self.eta_profile.items())},
            "bounds": {
                "corr": self.corr_bound,
                "rw": self.rw_bound,
                "specind": self.specind_bound
                if self.specind_bound is not None
                else "inapplicable",
                "upper": self.upper_bound,
            },
            "residuals": self.telescope.to_json_dict(),
            "argmin": argmin,
            "exact_gap": self.exact_gap,
            "min_psd_eigenvalue": self.profile.min_psd_eigenvalue,
            "checks": dict(self.checks),
            "passed": self.passed,
        }


def _route_values(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S, G and eta of every context in a stack of conditionals (B, *shape).

    The marginals, pair tables and pair conditional rows are computed once
    and shared by the three routes.
    """
    marginals, pairs, rows = _coordinate_tables(weights)
    g = _spectral_stack(*_walk_stack(marginals, rows))[1]
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

    Per free shape of ``N`` states at level ``m``: the dense kernel, order
    ``N``, for ``l = m < n``, and the smaller of ``N`` and the Gram order for
    ``l < m``.  The top level's full-block gap is not solved.
    """
    n = len(axes)
    shapes = {
        tuple(sorted(free)) for m in range(1, n + 1) for free in itertools.combinations(axes, m)
    }
    order = 0
    for shape in shapes:
        size = math.prod(shape)
        if len(shape) < n:
            order = max(order, size)
        for l in range(1, len(shape)):
            order = max(order, min(size, _gram_order(shape, l)))
    return order


def _scan(
    target: FiniteTarget, l: int
) -> tuple[GapProfile, dict[str, dict[int, float]], dict[str, dict[int, dict]]]:
    """The gap profile, then S, G and eta with their extremal contexts above level ``l``.

    Each level's supported contexts are enumerated once; every stack is
    solved for each block size ``1..m`` and, when ``m > l``, run through the
    three routes.  The top level has one context, so its full-block gap takes
    its exact value, 1 with bottom 0, and is not solved.  Stacks are cut to
    the largest matrix a full-support context solves (:func:`_largest_solve`),
    so that solve sets the scan's memory ceiling, and levels run from the top
    down, so the largest solves meet a heap the lower levels have not yet
    fragmented.  Results are returned in ascending order of level.
    """
    _check_cap(target.probs.size)
    order = _largest_solve(target.axes)
    entries: dict[tuple[int, int], GapEntry] = {}
    level_psd: dict[int, float] = {}
    values: dict[str, dict[int, float]] = {name: {} for name, _ in _ROUTES}
    extremal: dict[str, dict[int, dict]] = {name: {} for name, _ in _ROUTES}
    for m in range(target.n, 0, -1):
        contexts, stacks = _supported_level(target, m, order)
        gaps = np.empty((m, len(contexts)))
        routes = np.empty((len(_ROUTES), len(contexts)))
        low = np.inf
        for pos, weights in stacks:
            for size in range(1, m + 1):
                if size == target.n:
                    # The top level has one context, so its full-block gap
                    # takes its exact value: 1 pi^T is 0 on mean-zero functions.
                    gaps[size - 1, pos], bottom = 1.0, 0.0
                else:
                    _, gaps[size - 1, pos], bottoms = _gibbs_spectra(weights, size)
                    bottom = float(bottoms.min())
                low = min(low, bottom)
            if m > l:
                routes[:, pos] = _route_values(weights)
        level_psd[m] = low
        for size, row in enumerate(gaps, start=1):
            entries[(m, size)] = GapEntry(*_extremum(np.argmin, row, contexts))
        for (name, pick), row in zip(_ROUTES, routes if m > l else ()):
            values[name][m], lam, y = _extremum(pick, row, contexts)
            extremal[name][m] = {"lambda": list(lam), "y": list(y)}
    # min keeps the first of equal values, 0.0 or -0.0, so the levels are
    # taken in ascending order and the reported bottom does not depend on
    # the order in which they were solved.
    min_psd = min(level_psd[m] for m in sorted(level_psd))
    profile = GapProfile(
        n=target.n, entries=dict(sorted(entries.items())), min_psd_eigenvalue=float(min_psd)
    )
    values = {name: dict(sorted(levels.items())) for name, levels in values.items()}
    extremal = {name: dict(sorted(levels.items())) for name, levels in extremal.items()}
    return profile, values, extremal


def assemble_bounds(
    target: FiniteTarget,
    l: int,
    slack: float = 1e-9,
    lemma_tol: float = 1e-8,
    psd_tol: float = 1e-10,
    telescope_tol: float = 1e-9,
) -> BoundReport:
    """Compute the full bound report for block size ``l``.

    ``S(m)``, ``G(m)`` and ``eta(m)`` are exact extrema over all supported
    contexts leaving ``m`` coordinates free: S from the Rayleigh-quotient
    correlation coefficient, G from the random-walk gap (two independent
    routes, whose exact relation G = 1 - S is one of the recorded checks),
    eta from the discrete-metric influence matrices.  Lower bounds multiply
    per-level factors down to ``l``; every bound is checked against the exact
    gap and the l/n ceiling with ``slack``.  The telescope residuals are
    checked with ``telescope_tol``.

    A point mass has no non-constant function, so its gap and ceiling are 1;
    any other target has ``f(x) = g(x_i)`` for a non-constant coordinate
    ``i``, which moves only in the ``l/n`` share of blocks, so Gap <= l/n.
    """
    n = target.n
    if not 1 <= l <= n:
        raise DomainError(f"block size {l} out of range 1..{n}")
    profile, values, extremal = _scan(target, l)
    telescope = telescope_verify(profile, tol=telescope_tol)
    s_profile, g_profile, eta_profile = values["S"], values["G"], values["eta"]

    levels = range(l + 1, n + 1)
    corr_bound = float(np.prod([1.0 - s_profile[m] for m in levels]))
    rw_bound = float(np.prod([g_profile[m] for m in levels]))
    # Applicability needs eta strictly below m-1; a 1e-12 margin keeps
    # eigenvalue roundoff at the boundary from producing a noise-level bound.
    specind_factors = {
        m: ((m - 1) / m - eta_profile[m] / m)
        if eta_profile[m] < m - 1 - 1e-12
        else None
        for m in levels
    }
    if all(f is not None for f in specind_factors.values()):
        specind_bound: float | None = float(np.prod([specind_factors[m] for m in levels]))
    else:
        specind_bound = None

    exact_gap = profile.gap(n, l)
    upper_bound = 1.0 if np.count_nonzero(target.probs) == 1 else l / n

    checks = {
        "telescope": telescope.passed,
        "corr_bound_le_gap": corr_bound <= exact_gap + slack,
        "rw_bound_le_gap": rw_bound <= exact_gap + slack,
        "specind_bound_le_gap": specind_bound is None
        or specind_bound <= exact_gap + slack,
        "gap_le_upper": exact_gap <= upper_bound + slack,
        "walk_gap_equals_one_minus_s": all(
            abs(g_profile[m] - (1.0 - s_profile[m])) <= lemma_tol for m in levels
        ),
        "per_level_corr_le_gap": all(
            1.0 - s_profile[m] <= profile.gap(m, m - 1) + slack for m in levels
        ),
        "per_level_rw_le_gap": all(
            g_profile[m] <= profile.gap(m, m - 1) + slack for m in levels
        ),
        "per_level_specind_le_gap": all(
            specind_factors[m] is None
            or specind_factors[m] <= profile.gap(m, m - 1) + slack
            for m in levels
        ),
        "gibbs_psd": profile.min_psd_eigenvalue >= -psd_tol,
    }
    return BoundReport(
        n=n,
        l=l,
        profile=profile,
        telescope=telescope,
        s_profile=s_profile,
        g_profile=g_profile,
        eta_profile=eta_profile,
        corr_bound=corr_bound,
        rw_bound=rw_bound,
        specind_bound=specind_bound,
        upper_bound=upper_bound,
        exact_gap=exact_gap,
        checks=checks,
        extremal_contexts=extremal,
    )
