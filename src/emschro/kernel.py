"""Bessel-series propagator kernel on the plane, restricted to the unit circle data.

The flow generated by the scaling-critical operator has the integral kernel

    K(x, y) = sum_k i^{-beta_k} J_{beta_k}(|x||y|) psi_k(theta) conj(psi_k(theta')),

where mu_k, psi_k are the angular eigenpairs and beta_k = sqrt(mu_k).  The
formula needs every beta_k real positive, i.e. mu_1 > 0; construction rejects
eigendata violating that.  Since radii enter only through rho = |x||y|, all
evaluators work on (rho, theta, theta') grids.

Branch convention throughout: i^{-beta} := exp(-i pi beta / 2).  Every
evaluator sums the series through one real GEMM: the Bessel weights
J_{beta_k}(rho) stay real, and the phase i^{-beta_k} scales the left angular
rows psi_k(theta).

Truncation is certified termwise with |J_nu(rho)| <= (rho/2)^nu / Gamma(nu+1)
and sup norms bounded by coefficient l1 norms; beyond the computed eigendata
the operator comparison  L >= (-i d/dtheta + Abar)^2 + min(a), with min(a) from
the potential's l1 norms, gives the eigenvalue lower bound of the analytic tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import bessel
from .errors import HypothesisViolation, InsufficientResolution, InvalidInput
from .galerkin import SpectralDecomposition, loglog_slope, pair_modes
from .potentials import AngularPotential, constant_potential, theta_grid

DEFAULT_TOL = 1e-9
N_WINDOWS = 8              # geometric sup-scan windows, a quarter decade each
DIFFERENCE_N_RHO = 120     # gap-scan grid: rho samples on [0, rho_max] ...
DIFFERENCE_N_THETA = 48    # ... and uniform theta samples
ROW_TIE_RTOL = 1e-11       # sup-scan ties: 26x the largest |K| rounding move seen, 3.8e-13


def i_power(beta: float) -> complex:
    """i^{-beta} on the fixed branch e^{-i pi beta / 2}."""
    return complex(math.cos(math.pi * beta / 2.0), -math.sin(math.pi * beta / 2.0))


@dataclass(frozen=True)
class KernelEigendata:
    """Angular eigendata packaged for kernel summation, ordered by ascending mu.

    `coeffs[:, k]` holds psi_k on modes -M..M of the basis e^{i j theta} /
    sqrt(2 pi), and `potential` is the pair (a, A) they belong to; the orders
    and every bound are derived from these three.
    """
    mu: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)          # basis coefficients, one column per mode
    potential: AngularPotential = field(repr=False)

    @property
    def count(self) -> int:
        return int(self.mu.size)

    @cached_property
    def beta(self) -> np.ndarray:
        """Orders beta_k = sqrt(mu_k)."""
        return np.sqrt(self.mu)

    @cached_property
    def sup_bounds(self) -> np.ndarray:
        """Rigorous sup-norm bounds of the psi_k: each column's l1 norm / sqrt(2 pi)."""
        return np.sum(np.abs(self.coeffs), axis=0) / math.sqrt(2.0 * math.pi)

    @cached_property
    def lgamma_beta(self) -> np.ndarray:
        """math.lgamma(beta_k + 1) for every mode, computed once."""
        return np.array([math.lgamma(b + 1.0) for b in self.beta.tolist()])

    def psi_values(self, theta: np.ndarray, rows=None) -> np.ndarray:
        """Matrix psi_k(theta), one row per retained mode, or per mode index in `rows`."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        M = (self.coeffs.shape[0] - 1) // 2
        basis = np.exp(1j * np.outer(np.arange(-M, M + 1), th)) / math.sqrt(2.0 * math.pi)
        return (self.coeffs if rows is None else self.coeffs[:, rows]).T @ basis


def from_spectrum(dec: SpectralDecomposition, count: int | None = None) -> KernelEigendata:
    """Kernel eigendata from a computed decomposition; needs mu_1 > 0."""
    n = dec.resolved_count if count is None else min(count, dec.resolved_count)
    if n < 1:
        raise InsufficientResolution(
            f"no certified eigenvalues available: {dec.certificate_limit()}")
    mu = np.asarray(dec.eigenvalues[:n], dtype=float)
    if mu[0] <= 0.0:
        raise HypothesisViolation(
            f"kernel formula needs a positive ground eigenvalue; got mu_1 = {mu[0]}"
        )
    return KernelEigendata(mu=mu, coeffs=dec.coeffs[:, :n], potential=dec.potential)


def ab_eigendata(alpha: float, n_modes: int) -> KernelEigendata:
    """Closed-form eigendata for constant circulation alpha (modes |k| <= n_modes)."""
    if abs(alpha) >= 1.0:
        raise InvalidInput("use the reduced circulation |alpha| < 1")
    if alpha == 0.0:
        # order zero is fine for evolution, but mu_1 > 0 fails as stated
        raise HypothesisViolation("alpha = 0 has a zero ground eigenvalue")
    return circulation_eigendata(alpha, n_modes)


def circulation_eigendata(alpha: float, n_modes: int) -> KernelEigendata:
    """Eigenpairs (k + alpha)^2, e^{ik theta}/sqrt(2 pi) for |k + L| <= n_modes, unchecked.

    L = `circulation_floor`: these are the 2 n_modes + 1 lowest eigenvalues, as the
    beyond-data tail assumes.  Mode k is the one-hot column of basis mode k.  alpha = 0
    gives the free flow's integer orders beta = |k|; use `ab_eigendata` wherever
    the kernel hypothesis mu_1 > 0 must hold.
    """
    p = constant_potential(alpha)
    M = n_modes + abs(p.circulation_floor)
    ks = np.arange(-n_modes, n_modes + 1) - p.circulation_floor
    ks = ks[np.argsort((ks + alpha) ** 2, kind="stable")]
    coeffs = np.zeros((2 * M + 1, ks.size), dtype=complex)
    coeffs[ks + M, np.arange(ks.size)] = 1.0
    return KernelEigendata(mu=(ks + alpha) ** 2, coeffs=coeffs, potential=p)


# -- certified truncation --------------------------------------------------------


def _tail_sup_sq(data: KernelEigendata, mu: float) -> float:
    """A priori sup-norm-squared bound for eigenfunctions beyond the data.

    On the circle, |psi|_inf^2 <= |psi|_2^2 / 2pi + 2 |psi|_2 |psi'|_2 and the
    eigenvalue equation bounds |psi'|_2 by sqrt(mu) plus potential norms.
    Constant a and A have the eigenfunctions e^{ij theta} / sqrt(2 pi) exactly.
    """
    if data.potential.bandwidth == 0:
        return 1.0 / (2.0 * math.pi)
    _, ca, cA = data.potential.norm_bounds
    grad = cA + math.sqrt(cA * cA + max(mu, 0.0) + ca + cA * cA)
    return 1.0 / (2.0 * math.pi) + 2.0 * grad


def tail_bound_beyond(data: KernelEigendata, rho: float) -> float:
    """Certified bound on the kernel tail past the computed eigendata.

    Eigenvalues beyond the data come (at worst) in near-double pairs indexed by
    q with mu >= (q - |Abar|)^2 + min(a).  Once sqrt(mu) >= 2 rho + 2 the
    termwise majorant shrinks by more than half per q step, so the remaining
    sum is dominated by a geometric series.
    """
    q = data.count // 2
    floor, abar = data.potential.norm_bounds[0], abs(data.potential.reduced_circulation)
    total = 0.0
    max_q = q + int(10.0 * rho) + 2000
    while q <= max_q:
        mu_low = max(max(q - abar, 0.0) ** 2 + floor, 0.0)
        nu = math.sqrt(mu_low)
        pair = 2.0 * bessel.term_tail_bound(nu, rho) * _tail_sup_sq(data, mu_low)
        if not math.isfinite(pair):
            return math.inf
        total += pair
        if nu >= 2.0 * rho + 2.0:
            return total + pair
        q += 1
    return math.inf


def term_bounds(data: KernelEigendata, rho: float) -> np.ndarray:
    """Termwise majorants |J_{beta_k}(rho)| * sup|psi_k|^2 for the computed modes.

    Bit for bit `bessel.term_tail_bound` per mode: one np.exp over the log
    terms that neither overflow nor underflow, the exponential used there.
    """
    if rho == 0.0:
        majorants = np.where(data.beta == 0.0, 1.0, 0.0)
    else:
        log_terms = data.beta * math.log(rho / 2.0) - data.lgamma_beta
        majorants = np.where(log_terms > 700.0, math.inf, 0.0)
        finite = (log_terms > -745.0) & (log_terms <= 700.0)
        majorants[finite] = np.exp(log_terms[finite])
    return majorants * data.sup_bounds ** 2


def truncation(data: KernelEigendata, rho: float, tol: float) -> tuple[int, float]:
    """Leading-term count n and the certified bound on what the terms past n drop.

    n keeps the discarded computed-mode majorants plus the beyond-data tail
    below tol; the bound is sum_{k>=n} term_bounds + tail_bound_beyond.
    Raises InvalidInput unless rho is finite and nonnegative, before any log
    or exp, and InsufficientResolution if even the full data cannot certify tol.
    """
    if not (math.isfinite(rho) and rho >= 0.0):
        raise InvalidInput(f"rho must be finite and nonnegative, got {rho}")
    beyond = tail_bound_beyond(data, rho)
    if not beyond < tol:
        raise InsufficientResolution(
            f"eigendata too short to certify tolerance {tol} at rho = {rho}; "
            f"beyond-data tail bound {beyond:.2e} (compute more modes)"
        )
    bounds = term_bounds(data, rho)
    # suffix[k] sums bounds[k:] from the back; it grows as k falls, so the
    # terms past n are the longest run from the back that fits the budget
    suffix = np.cumsum(bounds[::-1])[::-1]
    n = max(int(np.count_nonzero(suffix > tol - beyond)), 1)
    return n, float(np.sum(bounds[n:])) + beyond


def cutoff_index(data: KernelEigendata, rho: float, tol: float) -> int:
    """Number of leading terms needed so the discarded remainder stays below tol."""
    return truncation(data, rho, tol)[0]


@dataclass(frozen=True)
class KernelValue:
    value: complex
    terms_used: int
    tail_bound: float


def kernel_value(data: KernelEigendata, rho: float, theta: float, theta_prime: float,
                 tol: float = DEFAULT_TOL) -> KernelValue:
    """Single-point kernel evaluation with certified truncation error."""
    n, dropped = truncation(data, rho, tol)
    K = _series(data, np.array([float(rho)]), np.array([n]), theta, theta_prime)
    return KernelValue(value=complex(K[0, 0, 0]), terms_used=n, tail_bound=dropped)


def _phases(orders: np.ndarray) -> np.ndarray:
    """i^{-b} for every order b, on the branch of `i_power`."""
    return np.array([i_power(b) for b in map(float, orders)], dtype=complex)


def _series(data: KernelEigendata, rho: np.ndarray, cuts: np.ndarray, theta,
            theta_prime) -> np.ndarray:
    """sum_{k < cuts[r]} i^{-beta_k} J_{beta_k}(rho_r) psi_k(theta) conj psi_k(theta').

    The weights J stay real, from one `bessel.j_orders` call; the phases
    i^{-beta_k} scale the left angular rows.  Only the n = max(cuts) rows
    that are summed are built, once when theta' is theta.
    """
    n = int(cuts.max())
    W = bessel.j_orders(data.beta[:n], rho)
    W[np.arange(n)[:, None] >= cuts] = 0.0
    Q = data.psi_values(theta_prime, np.arange(n))
    P = Q if theta is theta_prime else data.psi_values(theta, np.arange(n))
    return _mode_sum(W, _phases(data.beta[:n])[:, None] * P, Q)


def _mode_sum(W: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """sum_k W[k, r] P[k, t] conj Q[k, s]: real weights times angular rows at theta, theta'.

    One real GEMM, W^T times the float view (real and imaginary parts
    interleaved) of the angular outer products A[k, t s] = P[k, t] conj Q[k, s],
    at every shape; half the flops of a complex GEMM.  The result is C-ordered.
    """
    A = (P[:, :, None] * np.conj(Q)[:, None, :]).reshape(P.shape[0], -1)
    K = (W.T @ A.view(float)).view(complex)
    return K.reshape(W.shape[1], P.shape[1], Q.shape[1])


def evaluate_grid(data: KernelEigendata, rho: np.ndarray, theta: np.ndarray,
                  theta_prime: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """K on a product grid; returns complex array (len(rho), len(theta), len(theta_prime))."""
    rho = np.asarray(rho, dtype=float)
    cuts = np.array([cutoff_index(data, float(r), tol) for r in rho])
    return _series(data, rho, cuts, theta, theta_prime)


# -- scans -----------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport:
    max_abs: float
    argmax: tuple[float, float, float]      # (rho, theta, theta_prime)
    window_edges: np.ndarray = field(repr=False)
    window_maxima: np.ndarray = field(repr=False)   # max within each window
    running_maxima: np.ndarray = field(repr=False)  # max over [0, edge]
    row_values: np.ndarray = field(repr=False)      # K at each rho's max over the angles
    row_argmax: np.ndarray = field(repr=False)      # (theta, theta') of that max, per rho
    top_two_decade_variation: float
    rho: np.ndarray = field(repr=False)             # the scanned rho grid
    grid_shape: tuple[int, int, int] = (0, 0, 0)


def sup_scan(data: KernelEigendata, rho_max: float, n_rho: int, n_theta: int,
             tol: float = DEFAULT_TOL) -> ScanReport:
    """Max |K| over a (rho, theta, theta') product grid with window trend.

    The trend records the running max over increasing rho windows: a bounded
    kernel plateaus, a divergent one keeps climbing.  The headline statistic
    is the relative growth of the running max over the top two rho decades,
    so the grid needs both rho = 0 and rho_max: n_rho < 2 is InvalidInput.
    """
    if n_rho < 2:
        raise InvalidInput(f"sup_scan needs n_rho >= 2 (rho = 0 and rho_max), got {n_rho}")
    rho = np.linspace(0.0, rho_max, n_rho)
    th = theta_grid(n_theta)
    K = evaluate_grid(data, rho, th, th, tol)
    A = np.abs(K).reshape(n_rho, -1)
    # each row reports its first (theta, theta') in C order within ROW_TIE_RTOL
    # of the row maximum, so symmetric ties do not follow last-bit rounding
    near = A >= (1.0 - ROW_TIE_RTOL) * A.max(axis=1, keepdims=True)
    it, jt = np.unravel_index(np.argmax(near, axis=1), (n_theta, n_theta))
    row_values = K[np.arange(n_rho), it, jt]
    peak = np.abs(row_values)
    top = int(np.argmax(peak))
    # geometric window edges spanning two decades up to rho_max
    edges = rho_max * np.logspace(-N_WINDOWS * 0.25, 0.0, N_WINDOWS + 1)
    wmax = np.zeros(N_WINDOWS)
    rmax = np.zeros(N_WINDOWS + 1)
    for w in range(N_WINDOWS):
        sel = (rho >= edges[w]) & (rho <= edges[w + 1])
        wmax[w] = float(peak[sel].max()) if np.any(sel) else 0.0
    for w in range(N_WINDOWS + 1):
        rmax[w] = float(peak[rho <= edges[w]].max()) if np.any(rho <= edges[w]) else 0.0
    m_low = float(peak[rho <= rho_max / 10.0].max())
    m_all = float(peak[top])
    variation = (m_all - m_low) / m_all
    return ScanReport(
        max_abs=m_all, argmax=(float(rho[top]), float(th[it[top]]), float(th[jt[top]])),
        window_edges=edges, window_maxima=wmax, running_maxima=rmax,
        row_values=row_values, row_argmax=np.column_stack([th[it], th[jt]]),
        top_two_decade_variation=variation, rho=rho, grid_shape=K.shape,
    )


# -- tail comparison against the constant-circulation kernel ----------------------


@dataclass(frozen=True)
class DifferenceRow:
    ell: int
    max_abs: float
    terms: int


@dataclass(frozen=True)
class DifferenceReport:
    rows: list[DifferenceRow]
    decreasing: bool
    slope: float


def difference_ells(ells, rho_max: float) -> tuple[list[int], int]:
    """(sorted ells, j_max) for a gap scan to rho_max; InvalidInput unless 1 <= ell <= j_max.

    Both tails of `difference_scan` stop at j_max = floor(e rho_max / 2) + 24:
    orders above it contribute below DEFAULT_TOL for every rho in range.
    """
    ells = sorted(int(e) for e in ells)
    j_max = int(math.e * rho_max / 2.0) + 24
    if not ells or ells[0] < 1 or ells[-1] > j_max:
        raise InvalidInput(f"ells must be integers in 1..{j_max} at rho_max = {rho_max}")
    return ells, j_max


def difference_scan(dec: SpectralDecomposition, ells, rho_max: float) -> DifferenceReport:
    """D(ell) = max over the grid of |Sigma_{|j|>=ell} - e^{i Atil dtheta} Sigma^{ab}_{|j|>=ell}|.

    Sigma is the gauge-stripped tail (each mode times sqrt(2 pi)
    `AngularPotential.gauge`) of the full kernel paired by signed mode index;
    Sigma^{ab} the constant-circulation comparison with alpha = Abar, and
    Atil the full circulation.  Both tails stop at the same |j| <= j_max.
    Each pair adds two rows to one mode sum: its gauge-stripped mode, and its
    model mode (`AngularPotential.model_modes`) with negated weight and order
    |j + Abar|.  Bands of |j| are added from the top down, so D(ell)
    reads the running sum once every |j| >= ell is in.
    """
    ells, j_max = difference_ells(ells, rho_max)
    data = from_spectrum(dec)
    p = dec.potential
    ab = p.reduced_circulation
    pairs = pair_modes(dec, [j for j in range(-j_max, j_max + 1) if abs(j) >= ells[0]])
    if max(pr.k for pr in pairs) >= data.count:
        raise InsufficientResolution("increase Galerkin size: tail modes unresolved")

    rho = np.linspace(0.0, rho_max, DIFFERENCE_N_RHO)
    th = theta_grid(DIFFERENCE_N_THETA)
    k = np.array([pr.k for pr in pairs])
    j = np.array([pr.j for pr in pairs])
    chi = math.sqrt(2.0 * math.pi) * data.psi_values(th, k) * p.gauge(th)[None, :]
    # rows 2i and 2i + 1: pair i's mode and its model, whose left row carries
    # the negated weight's sign beside its phase
    orders = np.column_stack([data.beta[k], np.abs(j + ab)]).ravel()
    W = bessel.j_orders(orders, rho)
    P = np.stack([chi, p.model_modes(j, th)], axis=1).reshape(-1, th.size)
    L = _phases(orders)[:, None] * P
    L[1::2] = -L[1::2]
    level = np.repeat(np.abs(j), 2)
    acc = np.zeros((rho.size, th.size, th.size), dtype=complex)
    rows = []
    top = np.inf
    for ell in reversed(ells):
        band = (level >= ell) & (level < top)
        acc += _mode_sum(W[band], L[band], P[band])
        top = ell
        rows.append(DifferenceRow(ell=ell, max_abs=float(np.max(np.abs(acc))),
                                  terms=int(np.count_nonzero(level >= ell)) // 2))
    rows.reverse()
    vals = np.array([r.max_abs for r in rows])
    return DifferenceReport(rows=rows, decreasing=bool(np.all(np.diff(vals) < 0)),
                            slope=loglog_slope(np.array(ells), vals))
