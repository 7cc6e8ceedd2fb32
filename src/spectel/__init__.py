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
    EMPTY_CONTEXT,
    FiniteTarget,
    conditional,
    conditional_tensor,
    free_indices,
    is_supported,
    load_target,
    marginal,
    marginal_mass,
    product_of_marginals,
    product_target,
    random_target,
    supported_conditional,
    supported_contexts,
    target_from_dict,
    target_to_dict,
)
from .kernels import (
    STATE_CAP,
    SpectralSummary,
    WeightedKernel,
    altered_random_walk_kernel,
    gibbs_kernel,
    indexed_states,
    random_walk_kernel,
    recursive_gibbs_kernel,
    sample_gibbs_chain,
    spectral_summary,
)
from .bounds import (
    BoundReport,
    GapEntry,
    GapProfile,
    InfluenceMatrix,
    TelescopeReport,
    assemble_bounds,
    correlation_coefficient,
    correlation_via_walk,
    gap_profile,
    influence_matrix_tv,
    spectral_radius,
    telescope_verify,
)
from .cube_corner import (
    CondSlack,
    CornerGapBound,
    CornerState,
    GapEstimate,
    OrthoBasis,
    TvCheck,
    conditional_density,
    contraction_metric,
    corner_gap_lower_bound,
    correlation_coefficient_bound,
    coupling_sample,
    empirical_gap_estimate,
    gibbs_step,
    nested_conditional_density,
    poly_eigenvalue,
    run_corner_chain,
    sample_conditional,
    stationary_corner_sample,
    sum_square_constant,
    tv_contraction_check,
    verify_eigenrelation,
    wasserstein_influence,
)

__version__ = "0.1.0"
