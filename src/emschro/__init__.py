"""Spectra, propagator kernels, and dispersive decay for scaling-critical
electromagnetic Schroedinger operators on the circle.

The angular operator -phi'' + [a + A^2 - i A'] phi - 2 i A phi' is
diagonalized by a Fourier-Galerkin method; its eigendata feed a Bessel-series
propagator kernel, asymptotic eigenvalue/eigenfunction expansions, and an
L1 -> Linf time-decay experiment with independent numerical oracles.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    EmschroError,
    HypothesisViolation,
    InsufficientResolution,
    InvalidInput,
    NoConvergence,
    ResolutionError,
    ResonantParameter,
    SymmetryViolation,
)
from .potentials import (
    AngularPotential,
    ResonanceClass,
    build_potential,
    classify_resonance,
    constant_potential,
    theta_grid,
)
from .galerkin import SpectralDecomposition, compute_spectrum
from .kernel import KernelEigendata, ab_eigendata, from_spectrum, kernel_value, sup_scan
from .propagator import (
    PolarField,
    crank_nicolson_oracle,
    decay_profile,
    evolve,
    evolve_result,
    free_evolution,
    gaussian_ring,
    load_field,
)
from .wkb import asymptotic_residuals, fixed_point, solve_eigenvalue

__all__ = [
    "AngularPotential",
    "ConfigError",
    "EmschroError",
    "HypothesisViolation",
    "InsufficientResolution",
    "InvalidInput",
    "KernelEigendata",
    "NoConvergence",
    "PolarField",
    "ResolutionError",
    "ResonanceClass",
    "ResonantParameter",
    "SpectralDecomposition",
    "SymmetryViolation",
    "__version__",
    "ab_eigendata",
    "asymptotic_residuals",
    "build_potential",
    "classify_resonance",
    "compute_spectrum",
    "constant_potential",
    "crank_nicolson_oracle",
    "decay_profile",
    "evolve",
    "evolve_result",
    "fixed_point",
    "free_evolution",
    "from_spectrum",
    "gaussian_ring",
    "kernel_value",
    "load_field",
    "solve_eigenvalue",
    "sup_scan",
    "theta_grid",
]
