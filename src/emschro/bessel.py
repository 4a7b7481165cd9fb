"""Bessel J evaluation for real nonnegative order: one vectorized surface.

`j_grid` is the only J_nu evaluator.  Where it switches depends on nu alone:

- an ascending power series for x < `series_switch_radius(nu)`: TABLE_X_LO
  for the orders Hankel's expansion serves (nu < 2K + 1/2), where every term
  is smaller than the one before, and nu/2 for higher orders, where the
  series cancels little;
- the middle range [`series_switch_radius(nu)`, `asymptotic_switch_radius(nu)`),
  served by one of two evaluators.  A call with at least TABLE_MIN_VALUES
  radii there uses a per-order table: pieces of width TABLE_WIDTH, each a
  degree-TABLE_DEGREE polynomial evaluated by Horner's rule.  Its node values
  come from Bessel's integral (Watson, sec. 6.2) summed by Gauss-Legendre
  quadrature, and at build time every piece is checked at one off-node point
  against that integral.  A smaller call, an order that misses that check,
  and every order from 2K + 1/2 on (where the range is unbounded) get scipy's
  Amos backend instead.  The choice reads nu and the count alone, so a value
  never depends on which tables are cached;
- Hankel's asymptotic expansion J_nu(x) = sqrt(2/(pi x)) [P cos w - Q sin w],
  w = x - nu pi/2 - pi/4, with ASYMPTOTIC_PAIRS term pairs of P and Q, for
  x >= `asymptotic_switch_radius(nu)`.

For real nu and 2K > nu - 1/2, the remainders of P and Q after K terms each
are smaller than their first omitted terms (Watson, A Treatise on the Theory
of Bessel Functions, sec. 7.32).  The switch is where both omitted terms are
at most 2^-53, so the truncation is certified, not tuned.  Against 30-digit
mpmath references every regime stays below 2e-12 absolute error, and both
middle evaluators below 2e-14 on [2, 12] (tests/test_bessel.py checks this
across the switches).
The tail majorant (rho/2)^nu / Gamma(nu+1) (valid for every real rho >= 0 and
nu >= 0) is what kernel truncation uses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv as _scipy_jv

from .errors import InvalidInput, NoConvergence, UnsupportedOrder

ASYMPTOTIC_PAIRS = 8            # K: term pairs of P and Q in Hankel's expansion
# Half-integer orders make Watson's radius 0; from x = 20 on, no term of P or
# Q exceeds 55 for any order the expansion serves, so rounding stays a few ulps.
ASYMPTOTIC_SWITCH_FLOOR = 20.0
ASYMPTOTIC_BLOCK = 16384        # values per block of the expansion and the table (bounds temporaries)
TABLE_X_LO = 2.0                # the table serves [TABLE_X_LO, asymptotic_switch_radius(nu))
TABLE_WIDTH = 0.25              # width of one table piece
TABLE_DEGREE = 10               # polynomial degree on each piece
TABLE_MIN_VALUES = 8192         # in-range radii one call needs to use the table (~ one build's cost)
TABLE_CACHE_ORDERS = 64         # orders whose tables are kept
TABLE_CHECK_ATOL = 1e-14        # build check: table against the integral off the nodes
QUADRATURE_POINTS = 96          # Gauss-Legendre points per panel of Bessel's integral
QUADRATURE_PANEL_PHASE = 48.0   # the theta integral gets one panel per 48 of nu + x
QUADRATURE_BLOCK = 64           # radii per block of the quadrature (bounds temporaries)
LANDAU_N_R = 2000               # radii per order in the uniform-order bound scan


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
    """Radius below which `j_grid` sums the power series: TABLE_X_LO, or nu/2 past 2K + 1/2."""
    return TABLE_X_LO if 2 * ASYMPTOTIC_PAIRS > nu - 0.5 else nu / 2.0


def _hankel_coefficients(nu: float, n: int) -> list[float]:
    """a_k(nu) = prod_{i<=k} (4 nu^2 - (2i-1)^2) / (k! 8^k) for k = 0 .. n-1."""
    a = [1.0]
    for k in range(1, n):
        # (2 nu - (2k-1)) is exact near half-integer nu, where the factor vanishes
        a.append(a[-1] * ((2.0 * nu - (2 * k - 1)) * (2.0 * nu + (2 * k - 1))) / (8.0 * k))
    return a


def asymptotic_switch_radius(nu: float) -> float:
    """Smallest x from which `j_grid` uses Hankel's expansion; inf where Watson's bound fails.

    Both omitted terms |a_2K| / x^2K and |a_2K+1| / x^(2K+1) are <= 2^-53 from
    here on.  Never below ASYMPTOTIC_SWITCH_FLOOR.
    """
    nuf = _check_order(nu)
    n = 2 * ASYMPTOTIC_PAIRS
    if n <= nuf - 0.5:
        return math.inf
    radius = ASYMPTOTIC_SWITCH_FLOOR
    for k, a in enumerate(_hankel_coefficients(nuf, n + 2)[n:], start=n):
        if a != 0.0:
            # (1 + 1e-12) absorbs the rounding of the root
            radius = max(radius, math.exp((math.log(abs(a)) + 53.0 * math.log(2.0)) / k)
                         * (1.0 + 1e-12))
    return radius


def j_grid(nu: float, r: np.ndarray) -> np.ndarray:
    """J_nu at every radius of an array: series, then table or scipy, then Hankel's expansion."""
    nuf = _check_order(nu)
    rr = np.asarray(r, dtype=float)
    if np.any(rr < 0):
        raise InvalidInput("arguments must be nonnegative")
    out = np.full(rr.shape, np.nan)   # no regime claims a NaN radius
    flat_r, flat_out = rr.reshape(-1), out.reshape(-1)
    lo, cut = series_switch_radius(nuf), asymptotic_switch_radius(nuf)
    # one mask at a time bounds memory
    mask = flat_r < lo
    if np.any(mask):
        flat_out[mask] = _series_vec(nuf, flat_r[mask])
    np.greater_equal(flat_r, lo, out=mask)
    mask &= flat_r < cut
    table = _table(nuf) if np.count_nonzero(mask) >= TABLE_MIN_VALUES else None
    if table is not None:
        _by_blocks(functools.partial(_table_values, table), flat_r, flat_out,
                   np.flatnonzero(mask))
    elif np.any(mask):
        flat_out[mask] = _scipy_jv(nuf, flat_r[mask])
    np.greater_equal(flat_r, cut, out=mask)
    large = np.flatnonzero(mask)
    del mask
    if large.size:
        a = _hankel_coefficients(nuf, 2 * ASYMPTOTIC_PAIRS)
        _by_blocks(functools.partial(_hankel_asymptotic, nuf, a), flat_r, flat_out, large)
    return out


def _by_blocks(f, flat_r: np.ndarray, flat_out: np.ndarray, idx: np.ndarray) -> None:
    """flat_out[idx] = f(flat_r[idx]), ASYMPTOTIC_BLOCK values at a time."""
    for b0 in range(0, idx.size, ASYMPTOTIC_BLOCK):
        sel = idx[b0:b0 + ASYMPTOTIC_BLOCK]
        flat_out[sel] = f(flat_r[sel])


@functools.lru_cache(maxsize=TABLE_CACHE_ORDERS)
def _table(nu: float) -> np.ndarray | None:
    """Read-only table of J_nu on [TABLE_X_LO, R(nu)), or None where it is not served.

    Piece i covers x = TABLE_X_LO + TABLE_WIDTH (i + (1 + u) / 2), u in [-1, 1],
    and column i holds its coefficients of u^0 .. u^TABLE_DEGREE.  The node
    values at the Chebyshev points of the first kind give Chebyshev
    coefficients, which are then converted to powers of u.  None where R(nu)
    is infinite, or where the table misses the integral by more than
    TABLE_CHECK_ATOL at the left end of some piece (u = -1, not a node).
    """
    cut = asymptotic_switch_radius(nu)
    if math.isinf(cut):
        return None
    n = TABLE_DEGREE + 1
    left = TABLE_X_LO + TABLE_WIDTH * np.arange(math.ceil((cut - TABLE_X_LO) / TABLE_WIDTH))
    angles = (math.pi / n) * (np.arange(n) + 0.5)
    nodes = left[:, None] + (0.5 * TABLE_WIDTH) * (1.0 + np.cos(angles))
    values = _bessel_integral(nu, np.concatenate([nodes.ravel(), left]))
    cheb = values[:nodes.size].reshape(nodes.shape) @ np.cos(np.outer(np.arange(n), angles)).T
    cheb *= 2.0 / n
    cheb[:, 0] *= 0.5
    power = np.zeros((n, n))   # row j: the coefficients of u^k in T_j(u)
    power[0, 0] = power[1, 1] = 1.0
    for j in range(2, n):
        power[j, 1:] = 2.0 * power[j - 1, :-1]
        power[j] -= power[j - 2]
    table = (cheb @ power).T.copy()
    table.setflags(write=False)
    miss = np.max(np.abs(_table_values(table, left) - values[nodes.size:]))
    return table if miss <= TABLE_CHECK_ATOL else None


def _table_values(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A `_table` at x in its range: Horner's rule in u, one gather per degree."""
    t = (x - TABLE_X_LO) * (1.0 / TABLE_WIDTH)   # exact: TABLE_X_LO is a multiple of ulp(x)
    piece = t.astype(np.intp)
    u = t - piece
    u *= 2.0
    u -= 1.0
    out = table[-1].take(piece)
    gathered = np.empty_like(out)
    for row in table[-2::-1]:
        out *= u
        out += row.take(piece, out=gathered)
    return out


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """QUADRATURE_POINTS Gauss-Legendre nodes moved to [0, 1], and their weights on [-1, 1]."""
    g, w = np.polynomial.legendre.leggauss(QUADRATURE_POINTS)
    return 0.5 * (g + 1.0), w


def _bessel_integral(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu(x) for x > 0 from Bessel's integral (Watson, sec. 6.2), by Gauss-Legendre sums.

    J_nu(x) = (1/pi) int_0^pi cos(nu th - x sin th) dth
              - (sin nu pi / pi) int_0^inf exp(-x sinh t - nu t) dt.
    The theta integral is split into ceil((nu + max x) / QUADRATURE_PANEL_PHASE)
    panels, so its phase turns by at most QUADRATURE_PANEL_PHASE pi on each; the
    t integral stops where x sinh t = 745, past which exp underflows.
    """
    g, w = _gauss_legendre()
    panels = math.ceil((nu + float(np.max(x))) / QUADRATURE_PANEL_PHASE)
    theta = (math.pi / panels) * (np.arange(panels)[:, None] + g).ravel()
    sin_theta, w_theta = np.sin(theta), np.tile(w, panels) * (0.5 / panels)
    sin_nu_pi = math.sin(math.pi * math.fmod(nu, 2.0))
    out = np.empty(x.shape)
    for b0 in range(0, x.size, QUADRATURE_BLOCK):
        xb = x[b0:b0 + QUADRATURE_BLOCK]
        v = np.cos(nu * theta - np.outer(xb, sin_theta)) @ w_theta
        if sin_nu_pi != 0.0:
            span = np.arcsinh(745.0 / xb)
            t = np.outer(span, g)
            v -= (0.5 * sin_nu_pi / math.pi) * span * (
                np.exp(-xb[:, None] * np.sinh(t) - nu * t) @ w)
        out[b0:b0 + QUADRATURE_BLOCK] = v
    return out


def _hankel_asymptotic(nu: float, a: list[float], x: np.ndarray) -> np.ndarray:
    """sqrt(2/(pi x)) [P cos w - Q sin w] with P, Q from the coefficients a, w = x - phi.

    cos w and sin w come from cos x and sin x of the exact x (one complex
    exp of i x gives both): forming x - phi first would round away an ulp of x.
    """
    y2 = -1.0 / (x * x)   # P and Q alternate in sign
    p = np.full_like(x, a[-2])
    q = np.full_like(x, a[-1])
    for k in range(len(a) - 4, -1, -2):
        p *= y2
        p += a[k]
        q *= y2
        q += a[k + 1]
    q /= x
    e = np.empty(x.shape, dtype=complex)
    e.real = 0.0
    e.imag = x
    np.exp(e, out=e)
    # phi = (2 nu + 1) pi / 4, reduced exactly modulo 2 pi
    phi = math.fmod(2.0 * nu + 1.0, 8.0) * (math.pi / 4.0)
    c, s = math.cos(phi), math.sin(phi)
    # P cos w - Q sin w = cos x (P c + Q s) + sin x (P s - Q c)
    out = (p * c + q * s) * e.real
    out += (p * s - q * c) * e.imag
    out *= np.sqrt(2.0 / math.pi / x)
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
    finite: bool


def landau_bound_check(nu_max: int) -> LandauReport:
    """Measure sup over nu in {1..nu_max}, r in [0, nu_max + 20], of |J_nu(r)| nu^{1/3}."""
    if nu_max < 1:
        raise InvalidInput("nu_max must be >= 1")
    rg = np.linspace(0.0, float(nu_max) + 20.0, LANDAU_N_R)
    best = -1.0
    arg = (1.0, 0.0)
    for nu in range(1, nu_max + 1):
        vals = np.abs(j_grid(float(nu), rg)) * nu ** (1.0 / 3.0)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            arg = (float(nu), float(rg[i]))
    # local refinement around the winner
    nu0, r0 = arg
    dr = rg[1] - rg[0]
    fine = np.linspace(max(0.0, r0 - 2 * dr), r0 + 2 * dr, 101)
    best = max(best, float(np.max(np.abs(j_grid(nu0, fine)) * nu0 ** (1.0 / 3.0))))
    return LandauReport(best, bool(np.isfinite(best)))
