"""Angular potential pairs (a, A) on the circle and their gauge structure.

A potential pair is stored by its Fourier coefficients on modes -M..M, in
canonical form (`_as_coeff_array`), so bandwidth 0 means constant a and A.  Both
fields are real-valued functions of the angle; `a` is the electric profile,
`A` the tangential magnetic profile.  The quantities that control everything
downstream are the mean circulation of A, its reduction to [-1/2, 1/2), and
the resonance class of that reduction.

Conventions
-----------
Fourier coefficients use f(theta) = sum_m c_m e^{i m theta} with
c_m = (1/2pi) integral f e^{-i m theta}.  Reality of f means c_{-m} =
conj(c_m).  The circle is always sampled at theta_n = 2 pi n / N.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInput, ResonantParameter

RESONANCE_TOL = 1e-9  # margin around the resonant circulation set {0, -1/2}
REALITY_TOL = 1e-10


class ResonanceClass(enum.Enum):
    NON_RESONANT = "non_resonant"
    INTEGER = "integer_circulation"
    HALF_INTEGER = "half_integer_circulation"


def _as_coeff_array(coeffs) -> np.ndarray:
    """Canonical coefficients: exactly-zero outer pairs dropped, mode 0 always kept."""
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size % 2 != 1:
        raise InvalidInput("coefficient array must be 1-D with odd length (modes -M..M)")
    M = c.size // 2
    keep = int(np.max(np.abs(np.flatnonzero(c) - M), initial=0))
    return c[M - keep:M + keep + 1]


def _check_real_field(c: np.ndarray, name: str) -> None:
    M = c.size // 2
    defect = np.max(np.abs(c - np.conj(c[::-1])))
    scale = max(1.0, float(np.max(np.abs(c))))
    if defect > REALITY_TOL * scale:
        raise InvalidInput(
            f"{name} coefficients do not describe a real function "
            f"(hermitian defect {defect:.2e}, modes -{M}..{M})"
        )


@dataclass(frozen=True)
class AngularPotential:
    """Real potential pair (a, A) given by canonical Fourier coefficients on modes -M..M."""

    a_coeffs: np.ndarray = field(repr=False)
    A_coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = _as_coeff_array(self.a_coeffs)
        A = _as_coeff_array(self.A_coeffs)
        _check_real_field(a, "a")
        _check_real_field(A, "A")
        object.__setattr__(self, "a_coeffs", a)
        object.__setattr__(self, "A_coeffs", A)

    # -- basic shape ---------------------------------------------------------

    @property
    def a_bandwidth(self) -> int:
        return self.a_coeffs.size // 2

    @property
    def A_bandwidth(self) -> int:
        return self.A_coeffs.size // 2

    @property
    def bandwidth(self) -> int:
        return max(self.a_bandwidth, self.A_bandwidth)

    # -- means and circulation ------------------------------------------------

    @property
    def a_mean(self) -> float:
        return float(self.a_coeffs[self.a_bandwidth].real)

    @property
    def circulation(self) -> float:
        """Mean of A over the circle (the full circulation A~)."""
        return float(self.A_coeffs[self.A_bandwidth].real)

    @property
    def circulation_floor(self) -> int:
        return math.floor(self.circulation + 0.5)

    @property
    def reduced_circulation(self) -> float:
        """Circulation reduced to [-1/2, 1/2)."""
        return self.circulation - self.circulation_floor

    @cached_property
    def norm_bounds(self) -> tuple[float, float, float]:
        """(floor, sup_a, sup_A) from the coefficients' l1 norms, with no sampling:
        a_0 - sum_{m != 0} |a_m| <= min a, sum |a_m| >= max |a|, sum |A_m| >= max |A|."""
        off = float(np.sum(np.abs(np.delete(self.a_coeffs, self.a_bandwidth))))
        return (self.a_mean - off, float(np.sum(np.abs(self.a_coeffs))),
                float(np.sum(np.abs(self.A_coeffs))))

    # -- evaluation -----------------------------------------------------------

    def _eval(self, coeffs: np.ndarray, theta: np.ndarray) -> np.ndarray:
        M = coeffs.size // 2
        modes = np.arange(-M, M + 1)
        vals = np.exp(1j * np.outer(np.asarray(theta, dtype=float), modes)) @ coeffs
        return vals.real

    def a_values(self, theta) -> np.ndarray:
        return self._eval(self.a_coeffs, np.atleast_1d(theta))

    def A_values(self, theta) -> np.ndarray:
        return self._eval(self.A_coeffs, np.atleast_1d(theta))

    def integral_A(self, theta) -> np.ndarray:
        """Exact antiderivative of A from 0 to theta (linear + periodic part)."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        M = self.A_bandwidth
        modes = np.arange(-M, M + 1)
        out = np.full(th.shape, 0.0, dtype=complex)
        out += self.circulation * th
        for m, c in zip(modes, self.A_coeffs):
            if m == 0:
                continue
            out += c * (np.exp(1j * m * th) - 1.0) / (1j * m)
        return out.real

    def gauge(self, theta) -> np.ndarray:
        """Phase e^{i(L theta + int_0^theta A)}, L = `circulation_floor`, of the reduced frame.

        For the eigenfunction psi paired with signed index j, gauge * psi is
        near the model mode e^{i(Atil + j) theta} / sqrt(2 pi); conj(gauge)
        carries a model mode back to the original gauge.
        """
        th = np.asarray(theta, dtype=float)
        return np.exp(1j * (self.circulation_floor * th + self.integral_A(th)))

    def model_modes(self, js, theta) -> np.ndarray:
        """Rows e^{i(Atil + j) theta}, one per signed index j in `js`, Atil the
        full circulation: the modes that sqrt(2 pi) `gauge` * psi_j approaches."""
        return np.exp(1j * np.outer(self.circulation + np.asarray(js), theta))


def theta_grid(n: int) -> np.ndarray:
    if n < 4:
        raise InvalidInput("theta grid needs at least 4 points")
    return 2.0 * np.pi * np.arange(n) / n


def power_of_two_at_least(need: int) -> int:
    n = 1
    while n < need:
        n *= 2
    return n


def default_grid_size(p: AngularPotential) -> int:
    """Grid large enough for spectrally exact work with this potential (at least 256)."""
    return power_of_two_at_least(max(256, 4 * (p.bandwidth + 1)))


def coeffs_from_samples(samples, n_modes: int) -> np.ndarray:
    """Fourier coefficients (modes -n_modes..n_modes) of real samples on theta_grid."""
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or s.size < 2 * n_modes + 1:
        raise InvalidInput(
            f"need at least {2 * n_modes + 1} uniform samples for {n_modes} modes"
        )
    c_all = np.fft.fft(s) / s.size
    modes = np.arange(-n_modes, n_modes + 1)
    return c_all[modes % s.size]


def build_potential(
    a_coeffs=None,
    A_coeffs=None,
    a_samples=None,
    A_samples=None,
    n_modes: int | None = None,
) -> AngularPotential:
    """Build a potential pair from exactly one representation per field, with
    `n_modes` exactly when a field is sampled: the one home of these rules."""
    if (a_coeffs is None) == (a_samples is None):
        raise InvalidInput("give exactly one of a_coeffs / a_samples")
    if (A_coeffs is None) == (A_samples is None):
        raise InvalidInput("give exactly one of A_coeffs / A_samples")
    if (a_samples is not None or A_samples is not None) != (n_modes is not None):
        raise InvalidInput("n_modes is required with samples and applies only to them")
    if a_samples is not None:
        a_coeffs = coeffs_from_samples(a_samples, n_modes)
    if A_samples is not None:
        A_coeffs = coeffs_from_samples(A_samples, n_modes)
    return AngularPotential(a_coeffs, A_coeffs)


def constant_potential(alpha: float) -> AngularPotential:
    """Aharonov-Bohm pair: a = 0 and constant A = alpha."""
    return AngularPotential(np.array([0.0], complex), np.array([alpha], complex))


def classify_resonance(p: AngularPotential) -> ResonanceClass:
    ab = p.reduced_circulation
    if abs(ab) <= RESONANCE_TOL:
        return ResonanceClass.INTEGER
    if abs(ab + 0.5) <= RESONANCE_TOL:
        return ResonanceClass.HALF_INTEGER
    return ResonanceClass.NON_RESONANT


def require_non_resonant(p: AngularPotential) -> None:
    cls = classify_resonance(p)
    if cls is not ResonanceClass.NON_RESONANT:
        raise ResonantParameter(
            f"reduced circulation {p.reduced_circulation!r} lies in the resonant set ({cls.value})"
        )

