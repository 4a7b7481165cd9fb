"""Exception types shared across the package."""


class EmschroError(Exception):
    """Base class for all package errors."""


class InvalidInput(EmschroError):
    """Malformed or inconsistent user input (shapes, ranges, missing fields)."""


class ConfigError(InvalidInput):
    """Bad experiment configuration file or schema violation."""


class UnsupportedOrder(InvalidInput):
    """Bessel order outside the supported real nonnegative range."""


class InvalidMatrix(EmschroError):
    """Operator matrix failed a structural check (e.g. Hermitian defect)."""


class InsufficientResolution(EmschroError):
    """Requested quantity is not resolved at the current truncation."""


class ResolutionError(InsufficientResolution):
    """Quadrature or grid under-resolves an oscillatory integrand."""

    def __init__(self, message, suggested_n):
        super().__init__(message)
        self.suggested_n = suggested_n


class ResonantParameter(EmschroError):
    """Parameter sits on (or too close to) a resonant set where formulas blow up."""


class NoConvergence(EmschroError):
    """Fixed-point or root iteration failed to converge."""


class SymmetryViolation(InvalidInput):
    """Input lacks a symmetry required by the requested construction."""


class HypothesisViolation(EmschroError):
    """Spectral positivity hypothesis fails (lowest angular eigenvalue <= 0)."""

