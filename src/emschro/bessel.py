"""Bessel J evaluation for real nonnegative order: one vectorized surface.

`j_grid` evaluates one order on an array of radii, `j_orders` a block of
orders on one radius grid.  Where both switch depends on nu alone:

- an ascending power series for x < `series_switch_radius(nu)` = max(2, nu/2).
  Below 2 every term is smaller than the one before, and below nu/2 the
  series cancels little, so J there keeps relative accuracy however small
  it is;
- the middle range [`series_switch_radius(nu)`, `asymptotic_switch_radius(nu)`),
  whose evaluator the order picks.  `j_grid` uses a per-order table: pieces
  of width TABLE_WIDTH, each a degree-TABLE_DEGREE polynomial evaluated by
  Horner's rule.  Its node values come from Bessel's integral (Watson, sec.
  6.2) summed by Gauss-Legendre quadrature, and at build time every piece is
  checked at one off-node point against that integral.  An order that misses
  that check, and every order from 2K + 1/2 on (where the range is
  unbounded), get scipy's Amos backend instead.  So a value never depends on
  how many radii share its call or on which tables are cached;
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

`j_orders` keeps that map pair by pair, but serves the middle range from
Bessel's integral for all orders at once.  Both integrands separate in
(nu, x), so a block of orders is two matrix products, orders x quadrature
nodes times nodes x radii.  Its accuracy is absolute, about 2e-14 like the
table's.  Each block is checked at a few (order, radius) pairs against
scipy's `jv` and taken from `jv` on a miss.  The kernel's weights and the
uniform-order bound scan read `j_orders`.

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
TABLE_CACHE_ORDERS = 64         # orders whose tables are kept
TABLE_CHECK_ATOL = 1e-14        # build check: table against the integral off the nodes
QUADRATURE_POINTS = 96          # Gauss-Legendre points per panel of Bessel's integral
QUADRATURE_PANEL_PHASE = 48.0   # the theta integral's phase turns by at most 48 pi per panel ...
QUADRATURE_MAX_PANELS = 64      # ... on up to 64 panels; `j_orders` sends larger nu + x to scipy
QUADRATURE_T_PANELS = 4         # the t integral gets at least 4 panels ...
QUADRATURE_T_PHASE = 600.0      # ... and one per 600 of (nu + x) times its span
QUADRATURE_ELEMENTS = 1 << 17   # nodes x radii per block of the quadrature (bounds temporaries)
ORDER_BLOCK = 32                # orders per block of `j_orders` (bounds orders x nodes)
HOLDOUT_PAIRS = 4               # (order, radius) pairs of each block checked against scipy
HOLDOUT_ATOL = 1e-13            # largest miss of a checked pair before the block goes to scipy
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
    """Radius below which `j_grid` and `j_orders` sum the power series: max(TABLE_X_LO, nu/2)."""
    return max(TABLE_X_LO, nu / 2.0)


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
    """J_nu at every radius of an array: series, then the order's table, then Hankel's expansion.

    Orders without a table take scipy's `jv` on the middle range.  A call
    with no radius there builds no table.
    """
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
    table = _table(nuf) if np.any(mask) else None
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


def j_orders(orders, r) -> np.ndarray:
    """J_nu(r) for every order of `orders` and radius of `r`, shape (len(orders), len(r)).

    `j_grid`'s regime map, pair by pair:
    - one series loop over every pair with r < `series_switch_radius(nu)`;
    - Bessel's integral as matrix products on [`series_switch_radius(nu)`,
      `asymptotic_switch_radius(nu)`), one block of ORDER_BLOCK orders at a
      time.  Each block is checked at HOLDOUT_PAIRS pairs against scipy's
      `jv`, and on a miss the whole block is taken from `jv`, as are radii
      past QUADRATURE_MAX_PANELS panels.  The integral's accuracy is
      absolute, about 2e-14;
    - Hankel's expansion with each order's coefficients from
      `asymptotic_switch_radius(nu)` on.
    """
    nus = np.array([_check_order(nu) for nu in np.asarray(orders).reshape(-1).tolist()],
                   dtype=float)
    x = np.asarray(r, dtype=float)
    if x.ndim != 1:
        raise InvalidInput("radii must be a 1-D array")
    if np.any(x < 0):
        raise InvalidInput("arguments must be nonnegative")
    out = np.full((nus.size, x.size), np.nan)   # no regime claims a NaN radius
    lo = np.array([series_switch_radius(nu) for nu in nus])
    cut = np.array([asymptotic_switch_radius(nu) for nu in nus])
    k, i = np.nonzero(x < lo[:, None])
    if k.size:
        out[k, i] = _series_vec(nus[k], x[i])
    for k0 in range(0, nus.size, ORDER_BLOCK):
        block = slice(k0, k0 + ORDER_BLOCK)
        middle = (x >= lo[block, None]) & (x < cut[block, None])
        if np.any(middle):
            _middle_block(nus[block], x, middle, out[block])
    for k in np.flatnonzero(np.isfinite(cut)):
        large = np.flatnonzero(x >= cut[k])
        if large.size:
            a = _hankel_coefficients(nus[k], 2 * ASYMPTOTIC_PAIRS)
            out[k, large] = _hankel_asymptotic(nus[k], a, x[large])
    return out


def _middle_block(nus: np.ndarray, x: np.ndarray, middle: np.ndarray, out: np.ndarray) -> None:
    """out[middle] = J from Bessel's integral, or from scipy if a holdout pair misses.

    Radii past QUADRATURE_MAX_PANELS panels for the block's largest order get
    scipy's `jv`, so the quadrature's matrices stay within a fixed size.
    """
    rows = np.flatnonzero(np.any(middle, axis=1))
    nus, middle = nus[rows], middle[rows]
    fits = x <= 2.0 * QUADRATURE_MAX_PANELS * QUADRATURE_PANEL_PHASE - float(np.max(nus))
    k, i = np.nonzero(middle & ~fits)
    if k.size:
        out[rows[k], i] = _scipy_jv(nus[k], x[i])
    cols = np.flatnonzero(np.any(middle & fits, axis=0))
    if not cols.size:
        return
    k, i = np.nonzero(middle[:, cols])
    values = _bessel_integral(nus, x[cols])[k, i]
    held = np.unique(np.linspace(0, k.size - 1, HOLDOUT_PAIRS).astype(np.intp))
    miss = np.abs(values[held] - _scipy_jv(nus[k[held]], x[cols[i[held]]]))
    if not np.all(miss <= HOLDOUT_ATOL):
        values = _scipy_jv(nus[k], x[cols[i]])
    out[rows[k], cols[i]] = values


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


def _theta_panels(reach: float) -> int:
    """Panels of the theta integral on [0, pi/2] for nu + x up to reach."""
    return math.ceil(reach / (2.0 * QUADRATURE_PANEL_PHASE))


def _bessel_integral(nu, x: np.ndarray) -> np.ndarray:
    """J_nu(x) for 1-D x > 0 from Bessel's integral (Watson, sec. 6.2), by Gauss-Legendre sums.

    J_nu(x) = (1/pi) int_0^pi cos(nu th - x sin th) dth
              - (sin nu pi / pi) int_0^inf exp(-x sinh t - nu t) dt.
    nu is one order (the result has x's shape) or a 1-D array (one row per
    order).  Both integrands separate in (nu, x), so a block of radii is two
    matrix products, orders x nodes times nodes x radii:
    - sin th takes the same values at th and pi - th, so the theta integral
      runs over [0, pi/2] with E = w [cos nu th + cos nu (pi - th),
      sin nu th + sin nu (pi - th)] and F = [cos(x sin th); sin(x sin th)].
      It has `_theta_panels(max nu + max x)` panels, so its phase turns by at
      most QUADRATURE_PANEL_PHASE pi on each;
    - exp(-x sinh t - nu t) = e^{-nu t} e^{-x sinh t}.  The t integral stops
      at asinh(745 / min x), past which exp underflows, on at least
      QUADRATURE_T_PANELS panels and one per QUADRATURE_T_PHASE of (nu + x)
      times that span.  sin nu pi is exactly 0 for integer orders, which
      skip it.
    Blocks of radii keep nodes x radii within QUADRATURE_ELEMENTS.
    """
    nus = np.atleast_1d(np.asarray(nu, dtype=float))
    g, w = _gauss_legendre()
    sin_nu_pi = np.where(nus == np.round(nus), 0.0, np.sin(math.pi * np.fmod(nus, 2.0)))
    odd = np.flatnonzero(sin_nu_pi)
    top = float(np.max(nus))
    step = max(1, QUADRATURE_ELEMENTS
               // (QUADRATURE_POINTS * _theta_panels(top + float(np.max(x)))))
    rows = {}   # panel count -> (sin theta, E)
    out = np.empty((nus.size, x.size))
    for b0 in range(0, x.size, step):
        xb = x[b0:b0 + step]
        reach = top + float(np.max(xb))
        panels = _theta_panels(reach)
        if panels not in rows:
            theta = (0.5 * math.pi / panels) * (np.arange(panels)[:, None] + g).ravel()
            a, b = np.outer(nus, theta), np.outer(nus, math.pi - theta)
            rows[panels] = (np.sin(theta), np.tile(w, 2 * panels) * (0.25 / panels)
                            * np.concatenate([np.cos(a) + np.cos(b), np.sin(a) + np.sin(b)],
                                             axis=1))
        sin_theta, e = rows[panels]
        arg = np.outer(sin_theta, xb)
        v = e @ np.concatenate([np.cos(arg), np.sin(arg)])
        if odd.size:
            v[odd] -= (sin_nu_pi[odd, None] / math.pi) * _t_integral(nus[odd], xb, reach)
        out[:, b0:b0 + xb.size] = v
    return out if np.ndim(nu) else out[0]


def _t_integral(nus: np.ndarray, x: np.ndarray, reach: float) -> np.ndarray:
    """int_0^inf exp(-x sinh t - nu t) dt for every order and radius x > 0; reach >= nu + x.

    One matrix product, e^{-nu t} w times e^{-x sinh t}, on `_bessel_integral`'s t panels.
    """
    g, w = _gauss_legendre()
    span = math.asinh(745.0 / float(np.min(x)))
    n_t = max(QUADRATURE_T_PANELS, math.ceil(reach * span / QUADRATURE_T_PHASE))
    t = (span / n_t) * (np.arange(n_t)[:, None] + g).ravel()
    e_t = np.exp(-np.outer(nus, t)) * (np.tile(w, n_t) * (0.5 * span / n_t))
    return e_t @ np.exp(-np.outer(np.sinh(t), x))


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


def _series_vec(nu, r: np.ndarray) -> np.ndarray:
    """Ascending power series of J_nu at every radius; nu is one order or one per radius.

    The convergence check is per element.
    """
    nu = np.asarray(nu, dtype=float)
    orders, where = np.unique(nu, return_inverse=True)
    lgamma = np.array([math.lgamma(v + 1.0) for v in orders.tolist()])[where].reshape(nu.shape)
    half = r / 2.0
    with np.errstate(divide="ignore"):
        log_t0 = np.where(half > 0, nu * np.log(np.where(half > 0, half, 1.0)), -np.inf)
    log_t0 = log_t0 - lgamma
    t = np.where(log_t0 > -745.0, np.exp(np.maximum(log_t0, -745.0)), 0.0)
    t[(r == 0.0) & (nu == 0.0)] = 1.0
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
            f"J_nu power series not converged after {n_terms} terms "
            f"(orders up to {float(np.max(nu))}, largest radius {float(np.max(r))})")
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
    return float(np.exp(lt)) if lt > -745.0 else 0.0


@dataclass(frozen=True)
class LandauReport:
    constant: float
    finite: bool


def landau_bound_check(nu_max: int) -> LandauReport:
    """Measure sup over nu in {1..nu_max}, r in [0, nu_max + 20], of |J_nu(r)| nu^{1/3}.

    The grid is read ORDER_BLOCK orders at a time from `j_orders`; its first
    maximum (lowest order, then smallest radius) is refined with `j_grid`.
    """
    if nu_max < 1:
        raise InvalidInput("nu_max must be >= 1")
    rg = np.linspace(0.0, float(nu_max) + 20.0, LANDAU_N_R)
    best = -1.0
    arg = (1.0, 0.0)
    for k0 in range(1, nu_max + 1, ORDER_BLOCK):
        orders = np.arange(k0, min(k0 + ORDER_BLOCK, nu_max + 1), dtype=float)
        scale = np.array([nu ** (1.0 / 3.0) for nu in orders.tolist()])
        vals = np.abs(j_orders(orders, rg)) * scale[:, None]
        k, i = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[k, i] > best:
            best = float(vals[k, i])
            arg = (float(orders[k]), float(rg[i]))
    # local refinement around the winner
    nu0, r0 = arg
    dr = rg[1] - rg[0]
    fine = np.linspace(max(0.0, r0 - 2 * dr), r0 + 2 * dr, 101)
    best = max(best, float(np.max(np.abs(j_grid(nu0, fine)) * nu0 ** (1.0 / 3.0))))
    return LandauReport(best, bool(np.isfinite(best)))
