"""Bessel J evaluation for real nonnegative order: one vectorized surface.

`j_grid` is the only J_nu evaluator.  It splits the radii into two regimes:
an ascending power series for r <= max(12, nu/2), where the series is
absolutely convergent with bounded cancellation, and scipy's Amos backend for
larger arguments.  Against 30-digit mpmath references both regimes stay below
2e-12 absolute error (tests/test_bessel.py checks this across the switch).
The tail majorant (rho/2)^nu / Gamma(nu+1) (valid for every real rho >= 0 and
nu >= 0) is what kernel truncation uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv as _scipy_jv

from .errors import InvalidInput, NoConvergence, UnsupportedOrder

SERIES_SWITCH_FLOOR = 12.0


def _check_order(nu) -> float:
    if isinstance(nu, (complex, np.complexfloating)):
        if nu.imag != 0:
            raise UnsupportedOrder("complex order is not supported")
        nu = nu.real
    nuf = float(nu)
    if nuf < 0:
        raise UnsupportedOrder(f"negative order {nuf} is not supported")
    if not math.isfinite(nuf):
        raise UnsupportedOrder("order must be finite")
    return nuf


def series_switch_radius(nu: float) -> float:
    return max(SERIES_SWITCH_FLOOR, nu / 2.0)


def j_grid(nu: float, r: np.ndarray) -> np.ndarray:
    """J_nu at every radius of an array, series below the switch radius, scipy above."""
    nuf = _check_order(nu)
    rr = np.asarray(r, dtype=float)
    if np.any(rr < 0):
        raise InvalidInput("arguments must be nonnegative")
    out = np.empty(rr.shape, dtype=float)
    cut = series_switch_radius(nuf)
    small = rr <= cut
    if np.any(small):
        out[small] = _series_vec(nuf, rr[small])
    if np.any(~small):
        out[~small] = _scipy_jv(nuf, rr[~small])
    return out


def _series_vec(nu: float, r: np.ndarray) -> np.ndarray:
    half = r / 2.0
    with np.errstate(divide="ignore"):
        log_t0 = np.where(half > 0, nu * np.log(np.where(half > 0, half, 1.0)), -np.inf)
    log_t0 = log_t0 - math.lgamma(nu + 1.0)
    t = np.where(log_t0 > -745.0, np.exp(np.maximum(log_t0, -745.0)), 0.0)
    if nu == 0.0:
        t = np.where(r == 0.0, 1.0, t)
    neg_x2 = -(half * half)
    n_terms = min(int(np.max(half) * math.e + 30), 500) if r.size else 1
    # |t_m| grows only while m (nu + m) < x^2, so every radius peaks by m = max(x) + 1
    m_rise = int(np.max(half)) + 1 if r.size else 0
    del half, log_t0   # the loop below holds five arrays of r's size, in place
    s = t.copy()
    biggest = np.abs(t)
    abs_t = np.empty_like(t)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n_terms + 1):
            np.multiply(t, neg_x2, out=t)
            np.divide(t, m * (nu + m), out=t)
            s += t
            if m <= m_rise:
                np.maximum(biggest, np.abs(t, out=abs_t), out=biggest)
    biggest *= 2.0 ** -52
    if not np.all(np.isfinite(s) & (np.abs(t, out=abs_t) <= biggest)):
        raise NoConvergence(
            f"J_{nu} power series not converged after {n_terms} terms "
            f"(largest radius {float(np.max(r))})")
    return s


def term_tail_bound(nu: float, rho: float) -> float:
    """Majorant (rho/2)^nu / Gamma(nu+1) of |J_nu(rho)|, valid for all real rho >= 0, nu >= 0."""
    nuf = _check_order(nu)
    if rho < 0:
        raise InvalidInput("rho must be nonnegative")
    if rho == 0.0:
        return 1.0 if nuf == 0.0 else 0.0
    lt = nuf * math.log(rho / 2.0) - math.lgamma(nuf + 1.0)
    if lt > 700.0:
        return math.inf
    return math.exp(lt) if lt > -745.0 else 0.0


@dataclass(frozen=True)
class LandauReport:
    constant: float
    argmax_order: float
    argmax_r: float
    nu_max: int
    finite: bool


def landau_bound_check(nu_max: int = 500, n_r: int = 2000) -> LandauReport:
    """Measure sup over nu in {1..nu_max}, r in [0, nu_max + 20], of |J_nu(r)| nu^{1/3}."""
    if nu_max < 1:
        raise InvalidInput("nu_max must be >= 1")
    rg = np.linspace(0.0, float(nu_max) + 20.0, n_r)
    best = -1.0
    arg = (1.0, 0.0)
    for nu in range(1, nu_max + 1):
        vals = np.abs(_scipy_jv(float(nu), rg)) * nu ** (1.0 / 3.0)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            arg = (float(nu), float(rg[i]))
    # local refinement around the winner
    nu0, r0 = arg
    dr = rg[1] - rg[0]
    fine = np.linspace(max(0.0, r0 - 2 * dr), r0 + 2 * dr, 101)
    vals = np.abs(_scipy_jv(nu0, fine)) * nu0 ** (1.0 / 3.0)
    i = int(np.argmax(vals))
    if vals[i] > best:
        best = float(vals[i])
        arg = (nu0, float(fine[i]))
    return LandauReport(best, arg[0], arg[1], nu_max, bool(np.isfinite(best)))
