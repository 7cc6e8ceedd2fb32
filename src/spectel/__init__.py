"""Spectral-gap analysis and telescoping lower bounds for random-scan Gibbs samplers.

The package computes exact spectral gaps of finite-state Gibbs chains across
all conditioning levels, verifies the telescoping product structure of those
gaps, assembles the correlation, random-walk, and spectral-independence lower
bounds, and reproduces the closed-form analysis of the uniform cube-corner
target end to end.

Each name is imported from the submodule that defines it: :mod:`spectel.target`,
:mod:`spectel.kernels`, :mod:`spectel.bounds`, :mod:`spectel.cube_corner`,
:mod:`spectel.errors` and :mod:`spectel.cli`.  ``import spectel`` loads none
of them, and no numpy.
"""

__version__ = "0.1.0"
