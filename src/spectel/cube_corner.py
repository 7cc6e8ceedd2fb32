"""Uniform distribution on a cube corner: sampler, closed forms, and checks.

The target is the uniform distribution on {x in (0,1)^n : sum_i x_i < 1}.
Conditioning any subset of coordinates at values with remaining budget
``R = 1 - sum(fixed)`` leaves ``m`` free coordinates whose one-coordinate
conditional has density ``m (R - x)^(m-1) / R^m`` on (0, R); conditioning one
more coordinate at ``x`` gives ``(m-1) (R - x - z)^(m-2) / (R - x)^(m-1)`` on
``(0, R - x)``; :func:`_density` evaluates both.  Everything in this module
is built from these two densities and serves ``verify-cube`` or ``sample``:

* an exact stationary draw and the single-site Gibbs chain that starts from
  it, whose update is the uniform full conditional on (0, R), drawn inline;
* the scaled eigenvalues ``zeta_k`` of the cross-coordinate conditional
  expectation acting on orthonormal polynomials, verified by quadrature;
* the closed-form ceiling on the summation correlation coefficient and the
  resulting product lower bound on the chain's spectral gap;
* a rescaling metric under which the pair conditionals contract, the coupling
  that certifies contraction at rate 1/(m-2), the total-variation closed form
  with its quadrature cross-check, and the resulting influence matrices;
* an autocorrelation-based empirical estimate of the relaxation rate used to
  sandwich the exact gap between the product bound and the block-size ceiling.

Quadrature is Gauss-Legendre with 256 nodes: the integrands are polynomials
of degree far below 511, so residual tolerances reflect conditioning, not
truncation.  Orthonormal polynomials are built by modified Gram-Schmidt on
monomials (two passes) and capped at degree 8 where conditioning is safe.

The chain and the gap estimate check the bytes they will hold, measured
under tracemalloc, against :data:`spectel.kernels.MEMORY_CAP` before they
allocate (:func:`_chain_bytes`, :func:`_estimate_bytes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bounds import InfluenceMatrix
from .errors import DomainError, NumericalContractError, StatisticalContractError
from .kernels import _check_memory

_MAX_POLY_DEGREE = 8
_QUAD_POINTS = 256
# Empirical gap estimate: fewest usable lags, bootstrap blocks, resamples.
_MIN_LAGS = 5
_N_BLOCKS = 20
_N_BOOT = 500


@lru_cache(maxsize=8)
def _leggauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _gl_rule(a: float, b, points: int = _QUAD_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to (a, b); a column ``b`` gives one rule per row."""
    t, w = _leggauss(points)
    half = 0.5 * (b - a)
    return a + half * (t + 1.0), half * w


def _density(m: int, R, x) -> np.ndarray:
    """m (R - x)^(m-1) / R^m where 0 < x < R, else 0, elementwise in ``R`` and ``x``."""
    inside = (x > 0.0) & (x < R)
    gap = np.where(inside, R - x, 0.0)
    return np.where(inside, m * gap ** (m - 1) / R**m, 0.0)


def stationary_corner_sample(n: int, rng: np.random.Generator) -> tuple[float, ...]:
    """Exact draw from the uniform corner distribution (Dirichlet construction)."""
    while True:
        x = rng.dirichlet(np.ones(n + 1))[:n]
        if np.all(x > 0.0) and float(x.sum()) < 1.0:
            return tuple(float(v) for v in x)


_BLOCK = 1 << 16  # steps per block of the chain's loop


def _chain_bytes(n: int, steps: int, cols: int) -> int:
    """Bytes :func:`run_corner_chain` holds: its ``cols`` output columns, start and one block.

    Measured: up to 57 bytes per coordinate of the start state, and per step
    of a block 80 plus 16 per column (the draws, the fill's indices and rows).
    """
    return 8 * steps * cols + 64 * n + min(steps, _BLOCK) * (96 + 24 * cols)


def run_corner_chain(
    n: int,
    steps: int,
    rng: np.random.Generator,
    trace_coord: int | None = None,
) -> np.ndarray:
    """Run the single-site Gibbs chain from a :func:`stationary_corner_sample` start.

    Returns the full (steps, n) trajectory, or just one coordinate's trace
    when ``trace_coord`` is set (memory-light for long runs).  Per block of
    65,536 steps the loop only updates the state; the block's rows are then
    forward-filled from the values it drew.  The output is a deterministic
    function of the RNG stream.  A run that would need more than
    :data:`spectel.kernels.MEMORY_CAP` bytes (:func:`_chain_bytes`) raises
    :class:`ResourceLimitError` before anything is allocated.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if steps < 0:
        raise DomainError("steps must be >= 0")
    if trace_coord is not None and not 0 <= trace_coord < n:
        raise DomainError(f"trace_coord must lie in 0..{n - 1}, got {trace_coord}")
    _check_memory(_chain_bytes(n, steps, n if trace_coord is None else 1), "the chain")
    x = list(stationary_corner_sample(n, rng))
    total = sum(x)
    cols = np.arange(n) if trace_coord is None else np.asarray(trace_coord)
    out = np.empty((steps, *cols.shape))
    for start in range(0, steps, _BLOCK):
        b = min(_BLOCK, steps - start)
        idx = rng.integers(0, n, size=b)
        vals = rng.random(size=b).tolist()
        seq = x + vals  # [j]: coordinate j at the block start, [n + t]: step t's value
        for t, i in enumerate(idx.tolist()):
            rest = total - x[i]
            new_val = (1.0 - rest) * vals[t]
            while new_val <= 0.0 or rest + new_val >= 1.0:
                new_val = (1.0 - rest) * rng.random()
            total = rest + new_val
            x[i] = new_val
            seq[n + t] = new_val
        pos = np.where(np.equal.outer(cols, idx), np.arange(n, n + b), cols[..., None])
        np.maximum.accumulate(pos, axis=-1, out=pos)
        out[start : start + b] = np.array(seq)[pos].T
    return out


def poly_eigenvalue(k: int, m: int) -> float:
    """Eigenvalue of the cross-coordinate conditional expectation at degree k.

    Applying the pair conditional expectation to the degree-k orthonormal
    polynomial multiplies it by (-1)^k k! (m-1)! / (m+k-1)!, computed here as
    an iterated ratio so no factorial overflows.
    """
    if k < 1:
        raise DomainError(f"degree k must be >= 1, got {k}")
    if m < 2:
        raise DomainError(f"need m >= 2 free coordinates, got {m}")
    val = 1.0
    for j in range(1, k + 1):
        val *= -j / (m + j - 1)
    return val


def sum_square_constant(m: int) -> float:
    """Sharp constant A with E[(sum f_i)^2] <= A sum E[f_i^2] for the corner.

    Equals max(1 - zeta_1, 1 + (m-1) zeta_2): degree-1 coefficients are the
    worst anti-aligned direction, degree-2 the worst aligned one.
    """
    z1 = poly_eigenvalue(1, m)
    z2 = poly_eigenvalue(2, m)
    return max(1.0 - z1, 1.0 + (m - 1) * z2)


def correlation_coefficient_bound(m: int) -> float:
    """Closed-form ceiling on the summation correlation coefficient.

    3/4 for m = 2, else 1/m + 2(m-1)/((m+1) m^2); always equal to
    :func:`sum_square_constant` divided by m.
    """
    if m < 2:
        raise DomainError(f"need m >= 2 free coordinates, got {m}")
    if m == 2:
        return 0.75
    return 1.0 / m + 2.0 * (m - 1) / ((m + 1) * m * m)


class CornerGapBound(NamedTuple):
    """Product-form lower bound on Gap(n, 1) and its simplified floor (n >= 4)."""

    product_form: float
    simplified_floor: float | None


def corner_gap_lower_bound(n: int) -> CornerGapBound:
    """Correlation-route lower bound on the single-site chain's spectral gap.

    The product form is (1/4) prod_{m=3..n} (1 - ceiling(m)); for n >= 4 the
    telescoping floor 5 / (36 (n-2)) is also returned and never exceeds the
    product form.
    """
    if n < 3:
        raise DomainError(f"the product bound needs n >= 3, got {n}")
    product = 0.25
    for m in range(3, n + 1):
        product *= 1.0 - correlation_coefficient_bound(m)
    floor = 5.0 / (36.0 * (n - 2)) if n >= 4 else None
    return CornerGapBound(product_form=product, simplified_floor=floor)


def contraction_metric(R: float, x: float, x_other: float) -> float:
    """Distance |x - x'| / (R - max(x, x')) under which pair conditionals contract."""
    if not (0.0 < x < R and 0.0 < x_other < R):
        raise DomainError(
            f"both points must lie in (0, {R}), got {x} and {x_other}"
        )
    return abs(x - x_other) / (R - max(x, x_other))


def coupling_sample(
    R: float,
    m: int,
    x: float,
    x_other: float,
    rng: np.random.Generator,
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``size`` draws from the monotone coupling of the two pair conditionals.

    A single fraction X with density (m-1)(1-X)^(m-2) on (0,1) is drawn by
    inverse CDF and scaled by both remaining budgets, giving a pair whose
    marginals are the conditionals given ``x`` and ``x_other``.  The expected
    output distance is at most 1/(m-2) times the input distance, which is why
    m >= 3 is required.  The uniforms are drawn in one call, exact zeros are
    redrawn, and the pair comes back as two arrays of length ``size``.
    """
    if m < 3:
        raise DomainError(f"the coupling contraction constant needs m >= 3, got {m}")
    if not (0.0 < x < R and 0.0 < x_other < R):
        raise DomainError(f"both points must lie in (0, {R})")
    u = rng.random(size)
    zero = u <= 0.0
    while zero.any():
        u[zero] = rng.random(int(zero.sum()))
        zero = u <= 0.0
    fraction = 1.0 - (1.0 - u) ** (1.0 / (m - 1))
    return (R - x) * fraction, (R - x_other) * fraction


def wasserstein_influence(m: int) -> InfluenceMatrix:
    """Influence matrix of the corner under the rescaling metric.

    All off-diagonal coefficients equal 1/(m-2), so the spectral radius is
    (m-1)/(m-2).  The coupling argument is stated for m >= 4, where this
    radius sits below m-1; m = 3 is allowed, but there the radius equals m-1
    and the spectral-independence bound is vacuous (``verify-cube`` reports
    such a level as ``beyond_stated_hypothesis``).
    """
    if m < 3:
        raise DomainError(f"the coupling coefficient 1/(m-2) needs m >= 3, got {m}")
    entries = np.full((m, m), 1.0 / (m - 2))
    np.fill_diagonal(entries, 0.0)
    return InfluenceMatrix(m, entries, "wasserstein-corner")


class TvCheck(NamedTuple):
    tv_quadrature: float
    tv_formula: float
    bound: float


def tv_contraction_check(m: int, R: float, x: float, x_other: float) -> TvCheck:
    """Total variation between two pair conditionals, three ways.

    ``tv_quadrature`` integrates half the absolute density difference with
    the integration range split at the support edge ``b`` and at the single
    density crossing, so every piece is a smooth polynomial and
    Gauss-Legendre is exact.  With a, b the two remaining budgets,
    d = a - b = |x - x'| and p = (m-1)/(m-2), the crossing solves
    ((a - z)/(b - z))^(m-2) = (a/b)^(m-1) and is taken in closed form,
    z = b - d / ((a/b)^p - 1).  ``tv_formula`` is the closed form
    d^(m-1) / (a^p - b^p)^(m-2), evaluated as
    d (d / (b^p ((a/b)^p - 1)))^(m-2).  Both take (a/b)^p - 1 from
    ``log1p``/``expm1``, so neither cancels nor underflows when the two
    points are close or tiny.  ``bound`` is ((m-2)/(m-1))^(m-2) times the
    rescaling metric.  Nothing is compared here: the caller decides how
    closely quadrature and formula must agree and how far the ceiling may
    be exceeded.
    """
    if m < 3:
        raise DomainError(f"the closed form needs m >= 3, got {m}")
    if not (0.0 < x < R and 0.0 < x_other < R):
        raise DomainError(f"both points must lie in (0, {R})")
    if x == x_other:
        return TvCheck(0.0, 0.0, 0.0)
    lo, hi = min(x, x_other), max(x, x_other)
    d, b = hi - lo, R - hi

    power = (m - 1) / (m - 2)
    excess = float(np.expm1(power * np.log1p(d / b)))  # (a/b)^p - 1
    tv_formula = d * (d / (b**power * excess)) ** (m - 2)

    cross = b - d / excess
    total = 0.0
    for left, right in ((0.0, cross), (cross, b), (b, R - lo)):
        nodes, wts = _gl_rule(left, right, 64)
        diff = _density(m - 1, R - lo, nodes) - _density(m - 1, R - hi, nodes)
        total += float(np.abs(diff) @ wts)
    tv_quadrature = 0.5 * total

    bound = ((m - 2) / (m - 1)) ** (m - 2) * contraction_metric(R, x, x_other)
    return TvCheck(tv_quadrature, tv_formula, bound)


class OrthoBasis:
    """Orthonormal polynomials for the slack density, by modified Gram-Schmidt.

    Degree-k coefficient rows are stored in the monomial basis; inner
    products are evaluated with the cached Gauss-Legendre rule weighted by
    the slack density ``m (R - x)^(m-1) / R^m`` (:func:`_density`).  Two
    orthogonalization passes keep the Gram matrix within 1e-10 of the
    identity up to the degree cap of 8.
    """

    def __init__(self, m: int, R: float, degree: int):
        if not 0.0 < R <= 1.0:
            raise DomainError(f"budget R must lie in (0, 1], got {R}")
        if m < 1:
            raise DomainError(f"free-coordinate count m must be >= 1, got {m}")
        if degree < 1:
            raise DomainError(f"degree must be >= 1, got {degree}")
        if degree > _MAX_POLY_DEGREE:
            raise DomainError(
                f"degree {degree} above the conditioning-safe cap {_MAX_POLY_DEGREE}"
            )
        self.m = int(m)
        self.R = float(R)
        self.degree = int(degree)
        self.nodes, self.gl_weights = _gl_rule(0.0, self.R)
        self._wq = self.gl_weights * _density(self.m, self.R, self.nodes)

        n_polys = degree + 1
        coeffs = np.zeros((n_polys, n_polys))
        vals = np.empty((n_polys, _QUAD_POINTS))
        for k in range(n_polys):
            c = np.zeros(n_polys)
            c[k] = 1.0
            v = self.nodes**k
            for _ in range(2):
                for j in range(k):
                    proj = float((v * vals[j]) @ self._wq)
                    v = v - proj * vals[j]
                    c = c - proj * coeffs[j]
            norm = float(np.sqrt((v * v) @ self._wq))
            if not norm >= 1e-13:
                raise NumericalContractError(
                    f"degree-{k} polynomial degenerated during orthogonalization"
                )
            coeffs[k] = c / norm
            vals[k] = v / norm
        self.coeffs = coeffs
        self._vals = vals

    def evaluate(self, k: int, x) -> np.ndarray | float:
        """Value of the degree-k orthonormal polynomial (k = 0 is the constant)."""
        if not 0 <= k <= self.degree:
            raise DomainError(f"degree {k} outside 0..{self.degree}")
        return np.polynomial.polynomial.polyval(x, self.coeffs[k])

    def orthonormality_residual(self) -> float:
        """Max deviation of the Gram matrix from the identity (includes <p_k, 1>)."""
        gram = (self._vals * self._wq) @ self._vals.T
        return float(np.abs(gram - np.eye(self.degree + 1)).max())


def verify_eigenrelation(basis: OrthoBasis) -> float:
    """Quadrature residual of the pair conditional expectation scaling p_k by zeta_k.

    For each degree k in 1..``basis.degree``, integrates p_k against the
    nested conditional density at every outer quadrature node of the basis
    and compares with zeta_k p_k there.  Returns the largest residual over
    all degrees and nodes, NaN if any residual is NaN; the caller compares
    it with its tolerance.
    """
    m, R = basis.m, basis.R
    if m < 2:
        raise DomainError(f"need m >= 2 free coordinates, got {m}")
    outer = basis.nodes
    top = (R - outer)[:, None]
    inner, inner_w = _gl_rule(0.0, top)
    dens = _density(m - 1, top, inner)
    residuals = [
        np.abs(
            (basis.evaluate(k, inner) * dens * inner_w).sum(axis=1)
            - poly_eigenvalue(k, m) * basis.evaluate(k, outer)
        ).max()
        for k in range(1, basis.degree + 1)
    ]
    return float(np.max(residuals))


@dataclass(frozen=True)
class GapEstimate:
    """Autocorrelation-based relaxation estimate with a block-bootstrap margin."""

    rho: float
    gap: float
    ci: float
    lags_used: int


def _fit_decay_rate(trace: np.ndarray) -> tuple[float, int]:
    """Log-linear fit of the autocorrelation over lags with values in (0.05, 0.9)."""
    x = trace - trace.mean()
    n_samples = len(x)
    max_lag = min(1000, n_samples // 10)
    # A length-L FFT gives the circular autocovariance, whose lag-k entry picks
    # up wrapped products x[t] x[t + k - L] only when L < n + k.  Zero-padding
    # to L >= n + max_lag keeps every lag the fit reads exact and linear.
    size = 1 << (n_samples + max_lag - 1).bit_length()
    spec = np.fft.rfft(x, size)
    acov = np.fft.irfft(spec * np.conj(spec), size)[: max_lag + 1] / n_samples
    ac = acov / acov[0]
    lags = []
    for k in range(1, max_lag + 1):
        if ac[k] <= 0.05:
            break
        if ac[k] < 0.9:
            lags.append(k)
    if len(lags) < _MIN_LAGS:
        raise StatisticalContractError(
            f"only {len(lags)} usable autocorrelation lags (need {_MIN_LAGS}); "
            f"lag-1 autocorrelation {ac[1]:.4f} over {n_samples} samples"
        )
    lags_arr = np.asarray(lags, dtype=float)
    slope = np.polyfit(lags_arr, np.log(ac[lags]), 1)[0]
    return float(np.exp(slope)), len(lags)


def _estimate_bytes(n: int, steps: int) -> int:
    """Bytes :func:`empirical_gap_estimate` holds: the chain's trace, then the fit's.

    The fit's centred copy, and FFT buffers of up to 4 floats (31.6 bytes
    measured) per point of its padded length, at most ``2^bit_length(steps + 1000)``.
    """
    return _chain_bytes(n, steps, 1) + 8 * (steps + 4 * (1 << (steps + 1000).bit_length()))


def _check_estimate_steps(n: int, steps: int) -> None:
    """The step-count rules of :func:`empirical_gap_estimate`, checked before any work."""
    if steps < 0:
        raise DomainError("steps must be >= 0")
    if steps < 1_000_000:
        raise StatisticalContractError(
            f"{steps} steps is below the 1e6 floor needed for a stable "
            "autocorrelation window"
        )
    _check_memory(_estimate_bytes(n, steps), "the gap estimate")


def empirical_gap_estimate(n: int, steps: int, rng: np.random.Generator) -> GapEstimate:
    """Estimate the relaxation rate of the single-site corner chain.

    Runs a stationary chain, fits the decay rate rho of the first
    coordinate's autocorrelation (log-linear over lags with autocorrelation
    in (0.05, 0.9), at least ``_MIN_LAGS`` of them), and reports 1 - rho.  The
    chain's operator is positive semi-definite, so 1 - rho over-estimates the
    spectral gap up to the test-function gap; the confidence margin is 1.96
    standard deviations of ``_N_BOOT`` bootstrap means over the decay rates of
    ``_N_BLOCKS`` equal blocks of the trace.
    """
    if not 3 <= n <= 8:
        raise DomainError(f"n must lie in 3..8, got {n}")
    _check_estimate_steps(n, steps)
    trace = run_corner_chain(n, steps, rng, trace_coord=0)
    rho, lags_used = _fit_decay_rate(trace)

    block_len = steps // _N_BLOCKS
    block_rhos = np.empty(_N_BLOCKS)
    for b in range(_N_BLOCKS):
        segment = trace[b * block_len : (b + 1) * block_len]
        block_rhos[b], _ = _fit_decay_rate(segment)
    draws = rng.integers(0, _N_BLOCKS, size=(_N_BOOT, _N_BLOCKS))
    boot_means = block_rhos[draws].mean(axis=1)
    ci = 1.96 * float(boot_means.std(ddof=1))
    return GapEstimate(rho=rho, gap=1.0 - rho, ci=ci, lags_used=lags_used)
