"""Spectral-gap analysis and telescoping lower bounds for random-scan Gibbs samplers.

The package computes exact spectral gaps of finite-state Gibbs chains across
all conditioning levels, verifies the telescoping product structure of those
gaps, assembles the correlation, random-walk, and spectral-independence lower
bounds, and reproduces the closed-form analysis of the uniform cube-corner
target end to end.
"""

from .errors import (
    DomainError,
    NumericalContractError,
    ResourceLimitError,
    SpectelError,
    StatisticalContractError,
)
from .target import (
    CondContext,
    FiniteTarget,
    load_target,
    random_target,
    target_from_dict,
)
from .kernels import (
    MEMORY_CAP,
    WeightedKernel,
    sample_gibbs_chain,
)
from .bounds import (
    InfluenceMatrix,
    assemble_bounds,
    telescope_verify,
)
from .cube_corner import (
    OrthoBasis,
    contraction_metric,
    corner_gap_lower_bound,
    correlation_coefficient_bound,
    coupling_sample,
    empirical_gap_estimate,
    poly_eigenvalue,
    run_corner_chain,
    stationary_corner_sample,
    sum_square_constant,
    tv_contraction_check,
    verify_eigenrelation,
    wasserstein_influence,
)

__version__ = "0.1.0"
