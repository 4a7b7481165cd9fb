"""High-frequency eigenvalue construction via a contracted phase correction.

Work in the gauge-reduced frame (constant circulation Abar, same a).  For
lambda with s = sqrt(lambda - a_mean) away from half-integers, the periodic
correction W solves

    -i W' + 2 s W + W^2 = a_mean - a,      W(0) = W(2 pi),

which in Fourier modes is exactly W_m = g_m / (2 s + m) with g = (a_mean - a)
- W^2; the Picard iteration of that modal map is the contraction used here
(the integral form of the map is its antiderivative and agrees identically).
Eigenvalues then solve the scalar equations

    s = +Abar - mean(W(lambda)) + k      (plus branch)
    s = -Abar - mean(W(lambda)) + k      (minus branch)

and eigenfunctions are exp(-i Abar theta) exp(+i S) (plus) or
exp(-i Abar theta) exp(-i conj(S)) (minus) with S(theta) = s theta +
int_0^theta W.  Pulled back to the original gauge by exp(i(Abar theta -
int_0^theta A)), they read exp(i(S - int A)) and exp(-i(conj(S) + int A)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NoConvergence, ResonantParameter
from .galerkin import SpectralDecomposition, _phase_fix, loglog_slope, pair_modes
from .potentials import (AngularPotential, default_grid_size, power_of_two_at_least,
                         theta_grid)

DEFAULT_DELTA = 0.05
FP_TOL = 1e-13
MAX_ITER = 200
BRANCH_TOL = 1e-12       # branch equation: settled when s moves less than this
MAX_OUTER = 60
LAMBDA_EFF_S = (1.3, 200.0)   # geometric search range of s = sqrt(lambda - mean a)


def half_integer_distance(s: float) -> float:
    return abs(s - round(2.0 * s) / 2.0)


@dataclass(frozen=True)
class WkbSolution:
    lam: float
    s: float
    a_mean: float
    grid_n: int
    W_coeffs: np.ndarray = field(repr=False)
    mean_W: complex
    residual_sup: float
    iterations: int


def fixed_point(p: AngularPotential, lam: float, delta: float = DEFAULT_DELTA) -> WkbSolution:
    """Solve the correction equation at spectral parameter `lam` by Picard iteration."""
    atil = p.a_mean
    if not lam - atil > 0:
        raise ResonantParameter(f"need lambda > mean(a); got lambda - mean = {lam - atil}")
    s = math.sqrt(lam - atil)
    if half_integer_distance(s) < delta:
        raise ResonantParameter(
            f"sqrt(lambda - mean(a)) = {s} is within {delta} of a half-integer"
        )
    n = default_grid_size(p)
    th = theta_grid(n)
    a = p.a_values(th)
    modes = np.fft.fftfreq(n, 1.0 / n)
    denom = 2.0 * s + modes
    W = np.zeros(n, dtype=complex)
    first_step = None
    prev_step = math.inf
    grow = 0
    for it in range(1, MAX_ITER + 1):
        g = (atil - a) - W * W
        Wh = np.fft.fft(g) / n / denom
        Wn = np.fft.ifft(Wh) * n
        step = float(np.max(np.abs(Wn - W)))
        W = Wn
        if first_step is None:
            first_step = step
        if step <= FP_TOL:
            break
        grow = grow + 1 if step > prev_step else 0
        prev_step = step
        if grow >= 5 and step > 10.0 * first_step:
            raise NoConvergence(
                f"correction iteration diverges at lambda = {lam} (step {step:.2e})"
            )
    else:
        raise NoConvergence(f"no contraction after {MAX_ITER} iterations at lambda = {lam}")
    W_coeffs = np.fft.fft(W) / n
    residual = _ode_residual(p, W_coeffs, s, atil)
    return WkbSolution(lam=float(lam), s=s, a_mean=atil, grid_n=n, W_coeffs=W_coeffs,
                       mean_W=complex(W_coeffs[0]), residual_sup=residual, iterations=it)


def _ode_residual(p: AngularPotential, W_coeffs: np.ndarray, s: float, atil: float) -> float:
    """Sup of -iW' + 2sW + W^2 - (mean a - a), measured on a doubled grid."""
    n = W_coeffs.size
    n2 = 2 * n
    modes = np.fft.fftfreq(n, 1.0 / n)
    pad = np.zeros(n2, dtype=complex)
    idx = (modes.astype(int)) % n2
    pad[idx] = W_coeffs
    padp = np.zeros(n2, dtype=complex)
    padp[idx] = 1j * modes * W_coeffs
    W2 = np.fft.ifft(pad) * n2
    Wp = np.fft.ifft(padp) * n2
    a2 = p.a_values(theta_grid(n2))
    res = -1j * Wp + 2.0 * s * W2 + W2 * W2 - (atil - a2)
    return float(np.max(np.abs(res)))


def antiderivative_samples(sol: WkbSolution) -> np.ndarray:
    """int_0^theta W on the solution grid, via exact modal antiderivative."""
    n = sol.grid_n
    th = theta_grid(n)
    modes = np.fft.fftfreq(n, 1.0 / n)
    c = sol.W_coeffs.copy()
    mean = c[0]
    c[0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        anti = np.where(modes != 0, c / (1j * modes), 0.0)
    per = np.fft.ifft(anti) * n
    return (per - per[0]) + mean * th


@dataclass(frozen=True)
class AsymptoticEigenpair:
    j: int                       # signed index (negative for the minus branch)
    branch: str
    lam: float
    s: float
    mean_W: complex
    fp_residual: float
    grid_n: int
    phi_coeffs: np.ndarray = field(repr=False)   # orthonormal-basis coefficients


def solve_eigenvalue(p: AngularPotential, j: int, branch: str,
                     delta: float = DEFAULT_DELTA) -> AsymptoticEigenpair:
    """Solve the branch equation for index |j| and build the eigenfunction."""
    if branch not in ("plus", "minus"):
        raise InvalidInput("branch must be 'plus' or 'minus'")
    k = abs(int(j))
    if k < 1:
        raise InvalidInput("index must be a nonzero integer")
    ab = p.reduced_circulation
    sgn_ab = ab if branch == "plus" else -ab
    atil = p.a_mean
    s = sgn_ab + k
    for _ in range(MAX_OUTER):
        sol = fixed_point(p, atil + s * s, delta=delta)
        s_new = sgn_ab + k - sol.mean_W.real
        if abs(s_new - s) <= BRANCH_TOL:
            s = s_new
            break
        s = s_new
    else:
        raise NoConvergence(f"branch equation did not settle for j = {j} ({branch})")
    sol = fixed_point(p, atil + s * s, delta=delta)
    th = theta_grid(sol.grid_n)
    S = s * th + antiderivative_samples(sol)
    # in the original gauge; normalize and phase-fix below
    if branch == "plus":
        phi = np.exp(1j * (S - p.integral_A(th)))
        signed_j = k
    else:
        phi = np.exp(-1j * (np.conj(S) + p.integral_A(th)))
        signed_j = -k
    nrm = math.sqrt(float(np.mean(np.abs(phi) ** 2)) * 2.0 * math.pi)
    phi = phi / nrm
    coeffs = np.fft.fft(phi) / phi.size * math.sqrt(2.0 * math.pi)
    return AsymptoticEigenpair(
        j=signed_j, branch=branch, lam=float(atil + s * s), s=float(s),
        mean_W=sol.mean_W, fp_residual=sol.residual_sup, grid_n=sol.grid_n,
        phi_coeffs=_phase_fix(coeffs[:, None])[:, 0],
    )


def eigenpair_coeff_vector(pair: AsymptoticEigenpair, M: int) -> np.ndarray:
    """Coefficients of the eigenfunction on modes -M..M (orthonormal basis)."""
    n = pair.grid_n
    if n < 2 * M + 2:
        raise InvalidInput("solution grid too coarse for requested bandwidth")
    modes = np.arange(-M, M + 1)
    return pair.phi_coeffs[modes % n]


# -- residual tables against a Galerkin reference -------------------------------


@dataclass(frozen=True)
class ResidualRow:
    j: int
    k: int
    mu: float
    eig_residual: float
    scaled_eig: float      # j^2 * |mu - mean(a) - (j + Abar)^2|
    sup_R: float
    scaled_sup: float      # |j|^3 * sup |R_j|
    overlap: float
    flagged: bool


@dataclass(frozen=True)
class ResidualTable:
    rows: list[ResidualRow]
    eig_slope: float
    fun_slope: float
    ell_eff: int


def asymptotic_residuals(dec: SpectralDecomposition, j_list) -> ResidualTable:
    """Eigenvalue and eigenfunction deviation table for the paired indices.

    The eigenfunctions are sampled on power_of_two_at_least(max(2048, 2M + 2))
    angles, which hold every stored mode at any M.
    """
    p = dec.potential
    ab = p.reduced_circulation
    atil = p.a_mean
    js = [int(j) for j in j_list]
    pairs = pair_modes(dec, js)
    grid_n = power_of_two_at_least(max(2048, 2 * dec.M + 2))
    th = theta_grid(grid_n)
    psi = dec.eigenfunctions_on_grid(grid_n, [pr.k for pr in pairs])
    gauge = p.gauge(th)
    rows = []
    for pr, psi_k, g in zip(pairs, psi.T, p.model_modes([pr.j for pr in pairs], th)):
        mu = float(dec.eigenvalues[pr.k])
        eig_res = abs(mu - atil - (pr.j + ab) ** 2)
        f = math.sqrt(2.0 * math.pi) * gauge * psi_k
        z = np.mean(np.conj(f) * g)
        c = z / abs(z) if abs(z) > 0 else 1.0
        R = c * f - g
        sup_r = float(np.max(np.abs(R)))
        rows.append(ResidualRow(
            j=pr.j, k=pr.k, mu=mu, eig_residual=eig_res,
            scaled_eig=pr.j ** 2 * eig_res,
            sup_R=sup_r, scaled_sup=abs(pr.j) ** 3 * sup_r,
            overlap=pr.overlap, flagged=pr.cluster_flag or pr.ambiguous,
        ))
    jabs = np.array([abs(r.j) for r in rows], dtype=float)
    eig_slope = loglog_slope(jabs, np.array([r.eig_residual for r in rows]))
    fun_slope = loglog_slope(jabs, np.array([r.sup_R for r in rows]))
    return ResidualTable(rows=rows, eig_slope=eig_slope, fun_slope=fun_slope,
                         ell_eff=_discover_ell_eff(rows))


def _discover_ell_eff(rows: list[ResidualRow]) -> int:
    """Smallest index past which both scaled columns sit within 2x their plateau."""
    if not rows:
        return 0
    rows_sorted = sorted(rows, key=lambda r: abs(r.j))
    se = np.array([r.scaled_eig for r in rows_sorted])
    sf = np.array([r.scaled_sup for r in rows_sorted])
    q = max(1, len(rows_sorted) // 4)
    pe = float(np.median(se[-q:]))
    pf = float(np.median(sf[-q:]))
    ell = abs(rows_sorted[-1].j)
    for i in range(len(rows_sorted)):
        if np.all(se[i:] <= 2.0 * pe + 1e-300) and np.all(sf[i:] <= 2.0 * pf + 1e-300):
            ell = abs(rows_sorted[i].j)
            break
    return int(ell)


def discover_lambda_eff(p: AngularPotential, delta: float = DEFAULT_DELTA) -> float:
    """Smallest lambda on a geometric grid where the correction map contracts."""
    s, s_max = LAMBDA_EFF_S
    atil = p.a_mean
    while s <= s_max:
        s_try = s
        if half_integer_distance(s_try) < delta:
            s_try += 2.0 * delta
        try:
            fixed_point(p, atil + s_try * s_try, delta=delta)
            return atil + s_try * s_try
        except (NoConvergence, ResonantParameter):
            s *= 1.3
    raise NoConvergence(f"no contraction found for s up to {s_max}")
