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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DomainError, ResourceLimitError
from .kernels import (
    STATE_CAP,
    _coordinate_marginals,
    _pair_table,
    gibbs_kernel,
    pair_conditional_rows,
    random_walk_kernel,
    spectral_summary,
)
from .target import CondContext, FiniteTarget, supported_contexts


@dataclass(frozen=True)
class GapEntry:
    """Exact Gap(m, l) together with the context attaining the minimum."""

    gap: float
    lam: tuple[int, ...]
    y: tuple[int, ...]


@dataclass(frozen=True)
class GapProfile:
    """Exact gaps for all 1 <= l <= m <= n, plus the worst PSD bottom eigenvalue.

    ``min_psd_eigenvalue`` is the smallest symmetrized eigenvalue seen across
    every Gibbs kernel built during profiling; Gibbs operators are positive
    semi-definite, so it must not fall below -1e-10.
    """

    n: int
    entries: dict[tuple[int, int], GapEntry]
    min_psd_eigenvalue: float

    def gap(self, m: int, l: int) -> float:
        try:
            return self.entries[(m, l)].gap
        except KeyError:
            raise DomainError(f"profile has no entry for (m={m}, l={l})") from None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "min_psd_eigenvalue": self.min_psd_eigenvalue,
            "entries": {
                f"{m},{l}": {"gap": e.gap, "lambda": list(e.lam), "y": list(e.y)}
                for (m, l), e in sorted(self.entries.items())
            },
        }


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
        if np.any(arr < 0):
            raise DomainError("influence coefficients must be nonnegative")
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


def gap_profile(target: FiniteTarget, l_max: int | None = None) -> GapProfile:
    """Exact Gap(m, l) for every m and every l <= min(m, l_max).

    For each level ``m`` the minimum runs over all index sets of size
    ``n - m`` and all supported assignments, in canonical enumeration order
    (ties keep the first context encountered, for reproducibility).
    """
    n = target.n
    l_top = n if l_max is None else int(l_max)
    if not 1 <= l_top <= n:
        raise DomainError(f"l_max {l_max} out of range 1..{n}")
    full_size = int(np.prod(target.axes))
    if full_size > STATE_CAP:
        raise ResourceLimitError(
            f"full state space has {full_size} states, exceeding the cap of {STATE_CAP}"
        )
    entries: dict[tuple[int, int], GapEntry] = {}
    min_psd = np.inf

    for m in range(1, n + 1):
        for ctx in supported_contexts(target, n - m):
            for l in range(1, min(m, l_top) + 1):
                summary = spectral_summary(gibbs_kernel(target, ctx, l))
                min_psd = min(min_psd, summary.min_eigenvalue)
                cur = entries.get((m, l))
                if cur is None or summary.gap < cur.gap:
                    entries[(m, l)] = GapEntry(summary.gap, ctx.lam, ctx.y)
    return GapProfile(n=n, entries=entries, min_psd_eigenvalue=float(min_psd))


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


def correlation_via_walk(target: FiniteTarget, ctx: CondContext) -> float:
    """Summation correlation coefficient computed as 1 minus the walk's gap.

    The index/value walk's spectral gap equals one minus the correlation
    coefficient, so this is the cheap route; :func:`correlation_coefficient`
    evaluates the defining Rayleigh quotient directly and serves as the
    independent cross-check.  For full-support targets the value lies in
    [1/m, 1]; degenerate conditionals (all components deterministic) collapse
    the mean-zero subspace and yield 0.
    """
    return 1.0 - spectral_summary(random_walk_kernel(target, ctx)).gap


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
    weights, marginals = _coordinate_marginals(target, ctx)
    m = len(marginals)
    supports = [np.flatnonzero(w > 0) for w in marginals]
    sizes = [len(s) for s in supports]

    basis_blocks = []
    for pos in range(m):
        w = marginals[pos][supports[pos]]
        d = np.sqrt(w)
        if sizes[pos] < 2:
            basis_blocks.append(np.zeros((sizes[pos], 0)))
            continue
        ortho = scipy.linalg.null_space(d[None, :])
        basis_blocks.append(ortho / d[:, None])
    subspace_dim = sum(b.shape[1] for b in basis_blocks)
    if subspace_dim == 0:
        return 0.0

    offsets = np.concatenate(([0], np.cumsum(sizes)))
    total = int(offsets[-1])
    second_moment = np.zeros((total, total))
    for a in range(m):
        sa = slice(offsets[a], offsets[a + 1])
        second_moment[sa, sa] = np.diag(marginals[a][supports[a]])
        for b in range(m):
            if b == a:
                continue
            sb = slice(offsets[b], offsets[b + 1])
            pair = _pair_table(weights, a, b)
            second_moment[sa, sb] = pair[np.ix_(supports[a], supports[b])]
    basis = scipy.linalg.block_diag(*basis_blocks)
    reduced = basis.T @ second_moment @ basis
    reduced = 0.5 * (reduced + reduced.T)
    top = float(np.linalg.eigvalsh(reduced)[-1])
    return top / m


def influence_matrix_tv(target: FiniteTarget, ctx: CondContext) -> InfluenceMatrix:
    """Tightest discrete-metric influence matrix of the conditional target.

    Coefficient (i, j) is the largest total variation distance between the
    conditional laws of free coordinate j induced by two supported values of
    free coordinate i.  Total variation is exactly the optimal-coupling cost
    under the discrete metric, so no smaller constant satisfies the
    contraction condition.
    """
    weights, marginals = _coordinate_marginals(target, ctx)
    m = len(marginals)
    phi = np.zeros((m, m))
    for a in range(m):
        support = np.flatnonzero(marginals[a] > 0)
        if len(support) < 2:
            continue
        for b in range(m):
            if b == a:
                continue
            rows = pair_conditional_rows(weights, a, b)[support]
            pair_tv = 0.5 * np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=-1)
            phi[a, b] = float(pair_tv.max())
    return InfluenceMatrix(m, phi, "tv-discrete")


def spectral_radius(matrix) -> float:
    """Perron root of a nonnegative square matrix (max |eigenvalue|)."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError(f"matrix must be square, got shape {arr.shape}")
    if np.any(arr < 0):
        raise DomainError("spectral radius is defined here for nonnegative matrices")
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
        profile_json = self.profile.to_json_dict()
        argmin = {
            "gap": {
                key: {"lambda": val["lambda"], "y": val["y"]}
                for key, val in profile_json["entries"].items()
            }
        }
        argmin.update(self.extremal_contexts)
        return {
            "n": self.n,
            "l": self.l,
            "gap": {key: val["gap"] for key, val in profile_json["entries"].items()},
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


def assemble_bounds(
    target: FiniteTarget,
    l: int,
    slack: float = 1e-9,
    lemma_tol: float = 1e-8,
    psd_tol: float = 1e-10,
) -> BoundReport:
    """Compute the full bound report for block size ``l``.

    ``S(m)``, ``G(m)`` and ``eta(m)`` are exact extrema over all supported
    contexts leaving ``m`` coordinates free: S from the Rayleigh-quotient
    correlation coefficient, G from the random-walk gap (two independent
    routes, whose exact relation G = 1 - S is one of the recorded checks),
    eta from the discrete-metric influence matrices.  Lower bounds multiply
    per-level factors down to ``l``; every bound is checked against the exact
    gap and the l/n ceiling with ``slack``.
    """
    n = target.n
    if not 1 <= l <= n:
        raise DomainError(f"block size {l} out of range 1..{n}")
    profile = gap_profile(target)
    telescope = telescope_verify(profile, tol=slack)

    s_profile: dict[int, float] = {}
    g_profile: dict[int, float] = {}
    eta_profile: dict[int, float] = {}
    extremal: dict[str, dict[int, dict]] = {"S": {}, "G": {}, "eta": {}}

    for m in range(max(2, l + 1), n + 1):
        best_s = best_g = best_eta = None
        for ctx in supported_contexts(target, n - m):
            g = spectral_summary(random_walk_kernel(target, ctx)).gap
            s = correlation_coefficient(target, ctx)
            eta = spectral_radius(influence_matrix_tv(target, ctx).entries)
            if best_s is None or s > s_profile[m]:
                s_profile[m], best_s = s, ctx
            if best_g is None or g < g_profile[m]:
                g_profile[m], best_g = g, ctx
            if best_eta is None or eta > eta_profile[m]:
                eta_profile[m], best_eta = eta, ctx
        for name, ctx in (("S", best_s), ("G", best_g), ("eta", best_eta)):
            extremal[name][m] = {"lambda": list(ctx.lam), "y": list(ctx.y)}

    levels = range(l + 1, n + 1)
    corr_bound = float(np.prod([1.0 - s_profile[m] for m in levels])) if l < n else 1.0
    rw_bound = float(np.prod([g_profile[m] for m in levels])) if l < n else 1.0
    # Applicability needs eta strictly below m-1; a 1e-12 margin keeps
    # eigenvalue roundoff at the boundary from producing a noise-level bound.
    specind_factors = {
        m: ((m - 1) / m - eta_profile[m] / m)
        if eta_profile[m] < m - 1 - 1e-12
        else None
        for m in levels
    }
    if all(f is not None for f in specind_factors.values()):
        specind_bound: float | None = float(
            np.prod([specind_factors[m] for m in levels]) if l < n else 1.0
        )
    else:
        specind_bound = None

    exact_gap = profile.gap(n, l)
    upper_bound = l / n

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
