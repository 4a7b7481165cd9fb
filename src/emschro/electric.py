"""Eigenvalue asymptotics for the purely electric operator -d^2/dx^2 + a(x).

Requires A identically zero and a even (so the operator commutes with
x -> -x and the spectrum splits into sine and cosine sectors).  Write

    a(x) = ac[0] + sum_{m >= 1} ac[m] cos(m x).

For each k >= 1 the eigenvalue near k^2 is k^2 + ac[0] + lt where the shift
lt solves a two-stage fixed point: an explicit first-order corrector, then
Picard updates of the remaining correction in the orthogonal complement of
the unperturbed mode.  Leading order: lt = -ac[2k]/2 on the sine branch,
+ac[2k]/2 on the cosine branch, so the sector gap at k is ac[2k] + O(1/k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NoConvergence, SymmetryViolation
from .galerkin import SpectralDecomposition, loglog_slope
from .potentials import AngularPotential, power_of_two_at_least, theta_grid

SYMMETRY_TOL = 1e-10
PAIR_TOL = 1e-12       # Picard updates stop once shift and correction move less
PAIR_MAX_ITER = 200
PAIR_RESIDUAL_RTOL = 1e-9   # operator residual a table accepts, relative to max(1, lam)


def even_cosine_coefficients(p: AngularPotential) -> np.ndarray:
    """Cosine-series coefficients of a; rejects magnetic or non-even input.

    Returns ac with ac[0] = mean(a) and ac[m] = 2 Re(hat a_m) for m >= 1.
    """
    scale = max(1.0, float(np.max(np.abs(p.a_coeffs))))
    if float(np.max(np.abs(p.A_coeffs))) > SYMMETRY_TOL * scale:
        raise SymmetryViolation("magnetic component must vanish identically")
    if float(np.max(np.abs(p.a_coeffs.imag))) > SYMMETRY_TOL * scale:
        raise SymmetryViolation("electric component must be even in theta")
    B = p.a_bandwidth
    ac = np.zeros(B + 1)
    ac[0] = p.a_mean
    for m in range(1, B + 1):
        ac[m] = 2.0 * float(p.a_coeffs[B + m].real)
    return ac


def splitting_prediction(p: AngularPotential, k: int) -> float:
    """First-order sector gap at index k: (cosine eigenvalue) - (sine eigenvalue)."""
    ac = even_cosine_coefficients(p)
    return float(ac[2 * k]) if 2 * k <= p.a_bandwidth else 0.0


def explicit_corrector(ac: np.ndarray, k: int, J: int, sign: float) -> np.ndarray:
    """Sector coefficients of the first-order correction to sin(kx) (sign -1) or cos(kx) (+1).

    Entry j >= 1 is -(ac[|j-k|] + sign ac[j+k]) / (2 (j-k)(j+k)); the cosine
    sector adds the constant term ac[k] / 2k^2.  ac is zero-padded to at
    least J + k + 1 entries.
    """
    j = np.arange(J + 1)
    with np.errstate(divide="ignore", invalid="ignore"):   # entry k, zeroed below
        out = -(ac[np.abs(j - k)] + sign * ac[j + k]) / (2.0 * (j - k) * (j + k))
    out[k] = 0.0
    out[0] = ac[k] / (2.0 * k * k) if sign > 0 else 0.0
    return out


# -- real-grid transforms restricted to one parity sector (sign -1 sine, +1 cosine) --


def _samples(c: np.ndarray, n: int, sign: float) -> np.ndarray:
    spec = np.zeros(n // 2 + 1, dtype=complex)
    spec[0] = n * c[0]     # zero in the sine sector
    spec[1:c.size] = (0.5 if sign > 0 else -0.5j) * n * c[1:]
    return np.fft.irfft(spec, n)


def _coeffs(samples: np.ndarray, J: int, sign: float) -> np.ndarray:
    """Sector coefficients 0..J; entry 0 is meaningful in the cosine sector only."""
    spec = np.fft.rfft(samples)[:J + 1]
    part = spec.real if sign > 0 else -spec.imag
    out = 2.0 * part / samples.size
    out[0] = part[0] / samples.size
    return out


@dataclass(frozen=True)
class ElectricEigenpair:
    lam: float
    residual_sup: float      # sup |-u'' + a u - lam u| / sup |u| of the eigenfunction u


def solve_pair(p: AngularPotential, k: int, parity: str) -> ElectricEigenpair:
    """Eigenvalue near k^2 + mean(a) in the chosen parity sector, with its residual."""
    if parity not in ("sine", "cosine"):
        raise InvalidInput("parity must be 'sine' or 'cosine'")
    k = int(k)
    if k < 1:
        raise InvalidInput("index k must be a positive integer")
    band = p.a_bandwidth
    J = k + 20 * max(band, 1) + 40
    ac = np.pad(even_cosine_coefficients(p), (0, J + k - band))   # ac[m] = 0 past the band
    n = power_of_two_at_least(max(256, 4 * (J + band + 1)))
    x = theta_grid(n)
    a_samples = p.a_values(x).real
    atil = ac[0]
    sign = -1.0 if parity == "sine" else 1.0
    first = sign * float(ac[2 * k]) / 2.0

    lead = np.zeros(J + 1)
    lead[k] = 1.0
    lead_samples = _samples(lead, n, sign)
    phi_k = explicit_corrector(ac, k, J, sign)
    phi_k_samples = _samples(phi_k, n, sign)

    j = np.arange(J + 1)
    pivot = (j - k) * (j + k)
    pivot[k] = 1   # the lead's entry, zeroed below

    lt = first
    psi = np.zeros(J + 1)
    psi_samples = np.zeros(n)
    for _ in range(PAIR_MAX_ITER):
        corr = phi_k_samples + psi_samples
        # solvability: project the perturbation of the corrected mode back on the lead
        lt_new = first + float(np.mean(a_samples * corr * lead_samples) * 2.0)
        # residual forcing in the complement, leading-term coefficient nearly cancels
        F = (lt_new - first) * lead_samples + (lt_new + atil - a_samples) * corr
        Fc = _coeffs(F, J, sign)
        psi_new = Fc / pivot
        psi_new[k] = 0.0
        if sign < 0:
            psi_new[0] = 0.0   # the sine sector has no constant term
        change = max(abs(lt_new - lt), float(np.max(np.abs(psi_new - psi))))
        lt, psi = lt_new, psi_new
        psi_samples = _samples(psi, n, sign)
        if change <= PAIR_TOL:
            break
    else:
        raise NoConvergence(f"no contraction at k = {k} ({parity} sector)")

    lam = k * k + atil + lt
    return ElectricEigenpair(lam=float(lam), residual_sup=_operator_residual(
        lead + phi_k + psi, a_samples, lam, sign, n))


def _operator_residual(coeffs: np.ndarray, a_samples: np.ndarray, lam: float,
                       sign: float, n: int) -> float:
    """Sup norm of -u'' + a u - lam u, relative to sup |u|."""
    j = np.arange(coeffs.size)
    u = _samples(coeffs, n, sign)
    upp = _samples(-(j ** 2) * coeffs, n, sign)
    res = -upp + a_samples * u - lam * u
    return float(np.max(np.abs(res)) / np.max(np.abs(u)))


# -- comparison tables against a reference spectrum ------------------------------


@dataclass(frozen=True)
class SplittingRow:
    k: int
    lam_sine: float
    lam_cosine: float
    splitting: float           # cosine minus sine reference eigenvalue
    predicted_splitting: float
    splitting_error: float
    scaled_splitting_error: float    # k * |splitting - predicted|
    match_residual: float            # max |lam - mu| over the two branches
    scaled_match: float              # k * match_residual


@dataclass(frozen=True)
class SplittingTable:
    rows: list[SplittingRow]
    split_error_slope: float
    match_slope: float


def _nearest(values: np.ndarray, x: float) -> float:
    return float(values[int(np.argmin(np.abs(values - x)))])


def splitting_table(dec: SpectralDecomposition, k_values) -> SplittingTable:
    """Sector gaps and fixed-point eigenvalues of `dec.potential` against `dec`'s eigenvalues.

    Refuses (NoConvergence) a fixed-point eigenvalue whose eigenfunction
    misses the operator by more than PAIR_RESIDUAL_RTOL max(1, lam).
    """
    p = dec.potential
    mus = np.asarray(dec.eigenvalues, dtype=float)
    rows = []
    for k in k_values:
        es = solve_pair(p, k, "sine")
        ec = solve_pair(p, k, "cosine")
        for pair in (es, ec):
            if not pair.residual_sup <= PAIR_RESIDUAL_RTOL * max(1.0, abs(pair.lam)):
                raise NoConvergence(f"parity-sector eigenpair at k = {k} leaves "
                                    f"operator residual {pair.residual_sup:.2e}")
        mu_s = _nearest(mus, es.lam)
        mu_c = _nearest(mus, ec.lam)
        pred = splitting_prediction(p, k)
        split = mu_c - mu_s
        err = abs(split - pred)
        match = max(abs(es.lam - mu_s), abs(ec.lam - mu_c))
        rows.append(SplittingRow(
            k=int(k), lam_sine=es.lam, lam_cosine=ec.lam, splitting=split,
            predicted_splitting=pred, splitting_error=err,
            scaled_splitting_error=k * err, match_residual=match, scaled_match=k * match,
        ))
    ks = np.array([r.k for r in rows], dtype=float)
    return SplittingTable(
        rows=rows,
        split_error_slope=loglog_slope(ks, np.array([r.splitting_error for r in rows])),
        match_slope=loglog_slope(ks, np.array([r.match_residual for r in rows])),
    )


@dataclass(frozen=True)
class HalfIntegerRow:
    j: int
    predicted: float           # mean(a) + (j - 1/2)^2
    mu_pair: tuple[float, float]
    residual: float            # worst gap to the prediction within the pair
    scaled_residual: float     # j * residual


@dataclass(frozen=True)
class HalfIntegerTable:
    rows: list[HalfIntegerRow]
    slope: float


def half_integer_table(dec: SpectralDecomposition, j_values) -> HalfIntegerTable:
    """Near-double eigenvalue pairs at half-integer reduced circulation.

    Expects |reduced circulation + 1/2| tiny; predictions are
    mean(a) + (j - 1/2)^2 with a two-element cluster at each j.
    """
    p = dec.potential
    if abs(p.reduced_circulation + 0.5) > 1e-9:
        raise InvalidInput("half-integer table requires reduced circulation -1/2")
    mus = np.asarray(dec.eigenvalues, dtype=float)
    atil = p.a_mean
    rows = []
    for j in j_values:
        j = int(j)
        pred = atil + (j - 0.5) ** 2
        order = np.argsort(np.abs(mus - pred))
        pair = (float(mus[order[0]]), float(mus[order[1]]))
        resid = max(abs(pair[0] - pred), abs(pair[1] - pred))
        rows.append(HalfIntegerRow(j=j, predicted=pred, mu_pair=pair,
                                   residual=resid, scaled_residual=j * resid))
    js = np.array([r.j for r in rows], dtype=float)
    return HalfIntegerTable(
        rows=rows,
        slope=loglog_slope(js, np.array([r.residual for r in rows])),
    )
