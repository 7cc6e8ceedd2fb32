"""Spectral-gap analysis and telescoping lower bounds for random-scan Gibbs samplers.

The package computes exact spectral gaps of finite-state Gibbs chains across
all conditioning levels, verifies the telescoping product structure of those
gaps, assembles the correlation, random-walk, and spectral-independence lower
bounds, and reproduces the closed-form analysis of the uniform cube-corner
target end to end.

``import spectel`` loads no submodule: each public name below is imported
from its submodule on first attribute access, so numpy loads only when a
name that needs it is first used.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOMES = {
    name: module
    for module, names in {
        "errors": (
            "DomainError",
            "NumericalContractError",
            "ResourceLimitError",
            "SpectelError",
            "StatisticalContractError",
        ),
        "target": (
            "CondContext",
            "FiniteTarget",
            "load_target",
            "random_target",
            "target_from_dict",
        ),
        "kernels": ("MEMORY_CAP", "WeightedKernel", "sample_gibbs_chain"),
        "bounds": ("InfluenceMatrix", "assemble_bounds", "telescope_verify"),
        "cube_corner": (
            "OrthoBasis",
            "contraction_metric",
            "corner_gap_lower_bound",
            "correlation_coefficient_bound",
            "coupling_sample",
            "empirical_gap_estimate",
            "poly_eigenvalue",
            "run_corner_chain",
            "stationary_corner_sample",
            "sum_square_constant",
            "tv_contraction_check",
            "verify_eigenrelation",
            "wasserstein_influence",
        ),
    }.items()
    for name in names
}
__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
