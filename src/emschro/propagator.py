"""Time evolution through the Bessel-series representation, plus oracles.

For t > 0 the flow applied to u0 is evaluated modewise: expand u0 over the
angular eigenbasis, u0(r', theta') = sum_k a_k(r') psi_k(theta'), then

    u(r, theta, t) = (e^{i r^2/4t} / 2it) sum_k i^{-beta_k} psi_k(theta)
                     int_0^inf J_{beta_k}(r r'/2t) e^{i r'^2/4t} a_k(r') r' dr'.

Evaluation runs in the variable s = r/(2t): the radial integral is band-limited
in s by the source support, so a uniform s grid with spacing pi/(4 r'_max) is
spectrally adequate, and the L^2 norm follows from the same samples.  Per t,
the quadrature reads only every m-th source point, for the largest stride m
that the source-resolution rule, the mode supports and the modes' own
bandwidth allow (`_source_stride`).  Requested output radii are not
evaluated one by one: the integrals are computed on that rule's s grid and
carried onto the requested s by regularised sinc interpolation, under a
holdout check against direct evaluation (`_interpolated_integrals`).  What
depends on u0 alone (bandwidth, modal coefficients, kept modes, norms) is
computed once per sweep of t (`_Source`).

The quadrature itself (`_hankel_integrals`) takes no J value for a far pair
s r' >= R(beta), where Hankel's expansion holds to 2^-53: both grids are
uniform, so each term of the expansion, summed over r', is a chirp-z
transform (Bluestein) in O((n_s + n_r) log) per octave band of r'
(`_far_field_sum`).  The near pairs take one J value per lattice point:
every grid the quadrature builds is h (integer + offset), offset 0 or 1/2,
so s_n r'_j = h_s h_r i_n j_j, and one `bessel.j_grid` call on
h_s h_r (0 .. K) serves all of a mode's near pairs (`_near_sum`).  Each
transformed mode is checked against the direct sum (`_direct_sum`, one J
value per pair) at a few far-field s and falls back to it whole on a miss.
The holdouts of both routes call the direct sum, never `_hankel_integrals`.

Negative times are handled once, in `_evolve_core`: for real a and A the
reversed field -A has the eigendata (mu_k, conj psi_k) exactly, so
u(-t; A) = conj(u(t; -A) applied to conj(u0)) costs a conjugation, not a new
spectrum.  The free flow is the alpha = 0 case of the same core, with integer
orders beta = |m|.  The oracle is a modewise radial Crank-Nicolson integrator
(Liouville form, unitary in ell^2, signed step dt = t / n_steps); it shares
only the angular basis with the series route.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from . import bessel, kernel
from .errors import InsufficientResolution, InvalidInput, InvalidMatrix, ResolutionError
from .kernel import KernelEigendata
from .potentials import theta_grid

MODE_KEEP_RTOL = 1e-12
SUPPORT_RTOL = 1e-15         # source samples below this fraction of a row's peak are skipped
ANGULAR_DEFECT_TOL = 1e-6    # smallest detectable out-of-basis L2 fraction (sqrt eps floor)
S_OVERSAMPLE = 4.0           # s spacing = pi / (S_OVERSAMPLE * r'_max)
SRC_SAMPLES_PER_PERIOD = 16  # source grid rule vs fastest integrand oscillation
SINC_TAPS = 32               # regularised-sinc taps per side, rule s grid -> requested s
HOLDOUT_POINTS = 16          # requested s evaluated directly to check the interpolant
HOLDOUT_RTOL = 1e-10         # holdout error allowed, relative to the mode's largest sample
HANKEL_CHUNK = 384           # bounds memory only: J values per j_grid call, times n_src
FAR_PAIRS_PER_POINT = 32     # far-field pairs per FFT point a band needs to take the transform
FAR_HOLDOUT_POINTS = 4       # far-field s per transformed mode checked against the direct sum
FAR_HOLDOUT_RTOL = 1e-12     # their error allowed, relative to the mode's largest value
AFFINE_ULPS = 4              # ulps a grid may leave its least-squares line by and count as affine
BANDWIDTH_FLOOR = 1e-6       # radial bandwidth ignores samples below this fraction of the sup
CN_REFINE = 2                # Crank-Nicolson grid: source spacing divided by this
_TWO_PI = 8 * np.arctan(np.longdouble(1))


def _check_uniform(r: np.ndarray) -> None:
    if r.size > 2:
        steps = np.diff(r)
        if np.max(steps) - np.min(steps) > 1e-9 * np.max(steps):
            raise InvalidInput("radial grid must be uniformly spaced")


@dataclass(frozen=True)
class PolarField:
    """Complex field sampled on a polar product grid (uniform angles)."""
    r: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)   # shape (n_r, n_theta)
    t: float = 0.0

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if r.ndim != 1 or v.ndim != 2 or v.shape[0] != r.size:
            raise InvalidInput("values must be (n_r, n_theta) matching the radial grid")
        _check_uniform(r)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "values", v)

    @property
    def n_theta(self) -> int:
        return self.values.shape[1]

    def thetas(self) -> np.ndarray:
        return theta_grid(self.n_theta)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def _weights(self) -> tuple[float, float]:
        dr = float(self.r[1] - self.r[0]) if self.r.size > 1 else 1.0
        return dr, 2.0 * math.pi / self.n_theta

    def l1_norm(self) -> float:
        dr, dth = self._weights()
        return float(np.sum(np.abs(self.values) * self.r[:, None]) * dr * dth)

    def l2_norm(self) -> float:
        dr, dth = self._weights()
        return math.sqrt(float(np.sum(np.abs(self.values) ** 2 * self.r[:, None]) * dr * dth))


def gaussian_ring(r0: float, w: float, n_r: int, r_max: float,
                  n_theta: int = 64, angular_mode: int = 0) -> PolarField:
    """Ring exp(-(r - r0)^2 / w^2) e^{i m theta} on a uniform polar grid."""
    if r_max <= r0 or w <= 0:
        raise InvalidInput("need r_max > r0 and w > 0")
    dr = r_max / n_r
    r = dr * np.arange(1, n_r + 1)
    th = theta_grid(n_theta)
    radial = np.exp(-((r - r0) / w) ** 2)
    return PolarField(r=r, values=np.outer(radial, np.exp(1j * angular_mode * th)))


def radial_bandwidth(u0: PolarField) -> float:
    """Largest local radial frequency |d_r u| / |u| where the field has amplitude.

    Bounds how fast the field spreads radially (group velocity 2 k_rad); used
    to size evaluation windows and the Crank-Nicolson step count.  Regions
    below BANDWIDTH_FLOOR of the sup are ignored so decaying tails do not count
    as oscillation.
    """
    v = np.asarray(u0.values)
    if v.shape[0] < 3:
        return 0.0
    mag = np.abs(v)
    sup = float(mag.max())
    if sup == 0.0:
        return 0.0
    dr = float(u0.r[1] - u0.r[0])
    grad = np.gradient(v, dr, axis=0)
    mask = mag >= BANDWIDTH_FLOOR * sup
    k_loc = (np.abs(grad[mask]) / mag[mask]).ravel()
    weight = (mag[mask] ** 2 * np.broadcast_to(u0.r[:, None], mag.shape)[mask]).ravel()
    order = np.argsort(k_loc)
    cum = np.cumsum(weight[order])
    idx = int(np.searchsorted(cum, (1.0 - 1e-6) * cum[-1]))
    return float(k_loc[order[min(idx, k_loc.size - 1)]])


def modal_coefficients(data: KernelEigendata, u0: PolarField) -> np.ndarray:
    """Coefficients a_k(r) of u0 against the angular eigenbasis; (n_modes, n_r)."""
    Psi = data.psi_values(u0.thetas())
    return (2.0 * math.pi / u0.n_theta) * (u0.values @ np.conj(Psi.T)).T


def _retained_modes(data: KernelEigendata, a: np.ndarray, u0: PolarField) -> np.ndarray:
    r = u0.r
    dr = float(r[1] - r[0])
    norms = np.sqrt(np.sum(np.abs(a) ** 2 * r[None, :], axis=1) * dr)
    top = float(np.max(norms))
    if top == 0.0:
        return np.empty(0, dtype=int)
    keep = np.flatnonzero(norms > MODE_KEEP_RTOL * top)
    if np.any(keep >= data.count - 2):
        raise InsufficientResolution(
            "initial data excites the top of the computed eigenbasis; "
            "recompute the spectrum with a larger basis"
        )
    # angular content outside the eigenbasis span must not be dropped silently
    total = u0.l2_norm()
    captured_sq = float(np.sum(norms ** 2))
    defect_sq = max(total ** 2 - captured_sq, 0.0)
    if math.sqrt(defect_sq) > ANGULAR_DEFECT_TOL * total:
        raise InsufficientResolution(
            "initial data has angular content outside the resolved eigenbasis"
        )
    return keep


def required_source_points(r_max: float, s_max: float, t: float) -> int | float:
    """Minimum radial samples for the source under the oscillation rule.

    math.inf where the count overflows a double (r_max / 2t does at t = 5e-324).
    """
    rate = s_max + r_max / (2.0 * abs(t))
    dr_needed = 2.0 * math.pi / (SRC_SAMPLES_PER_PERIOD * rate)
    n = r_max / dr_needed if dr_needed > 0.0 else math.inf
    return int(math.ceil(n)) if math.isfinite(n) else math.inf


def _check_source_resolution(u0: PolarField, s_max: float, t: float) -> None:
    n_need = required_source_points(float(u0.r[-1]), s_max, t)
    if u0.r.size < n_need:
        raise ResolutionError(
            f"source grid too coarse for t = {t}: {u0.r.size} points, need at least "
            f"{n_need if n_need < 1e15 else format(n_need, '.3g')}", suggested_n=n_need,
        )


def _source_stride(a_keep: np.ndarray, r_src: np.ndarray, s_max: float, t: float) -> int:
    """Largest stride m whose sub-grid r_src[m-1::m] still resolves every row.

    The sub-grid must pass `required_source_points` at its own last radius,
    hold each row's support (the SUPPORT_RTOL threshold of `_hankel_integrals`),
    and leave above its Nyquist no row energy beyond MODE_KEEP_RTOL of the
    largest row's ell^2 norm (the `_retained_modes` yardstick, so round-off in
    weak rows does not veto): the rule covers the J and chirp oscillation, not
    the bandwidth of a_k itself.  Returns 1 if no m > 1 does.
    """
    n = r_src.size
    mag = np.abs(a_keep)
    live = mag > SUPPORT_RTOL * mag.max(axis=1, keepdims=True, initial=0.0)
    if n < 2 or not live.any():
        return 1
    last = int(np.flatnonzero(live.any(axis=0))[-1])
    # stride m keeps the folded bins q = min(j, n - j) <= n / 2m; above[:, q]
    # is each row's energy in the bins past q
    power = np.abs(np.fft.fft(a_keep, axis=1)) ** 2
    folded = power[:, :n // 2 + 1]
    folded[:, 1:(n + 1) // 2] += power[:, :n // 2:-1]
    above = np.cumsum(folded[:, ::-1], axis=1)[:, ::-1] - folded
    fits = np.all(above <= MODE_KEEP_RTOL ** 2 * folded.sum(axis=1).max(), axis=0)
    q_min = int(np.argmax(fits))
    # reaching r_src[last] takes at least the points the rule asks for there,
    # and the quadrature needs two
    m_hi = n // max(required_source_points(float(r_src[last]), s_max, t), 2)
    if q_min > 0:
        m_hi = min(m_hi, n // (2 * q_min))
    for m in range(m_hi, 1, -1):
        n_sub = n // m
        end = m * n_sub - 1
        if end >= last and required_source_points(float(r_src[end]), s_max, t) <= n_sub:
            return m
    return 1


def _flip_eigendata(data: KernelEigendata) -> KernelEigendata:
    """Eigendata of the magnetically reversed operator, by exact conjugation.

    For real a and A, L(-A) conj(psi) = conj(L(A) psi), so the pairs are
    (mu_k, conj psi_k): coefficients conj(coeffs[::-1]).  `potential` is kept
    as it is: the flow never reads it, and what the tail bounds take from it
    (the l1 norms of a and A, |reduced circulation|) is the same for -A.
    """
    return replace(data, coeffs=np.conj(data.coeffs[::-1]))


class _Source:
    """u0 against one eigenbasis, with what the flow derives from u0 alone.

    Each quantity is computed on first use and kept, so one instance serves
    a whole sweep of t.  `mirror` is the source of the t < 0 run (reversed
    field, conj u0), built once per sweep.  It projects its own coefficients,
    since conj(a) differs from that projection in the last bits, and holds no
    reference back, so a sweep's sources are freed as soon as it ends.
    """

    def __init__(self, data: KernelEigendata, u0: PolarField):
        self.data, self.u0 = data, u0

    @cached_property
    def bandwidth(self) -> float:
        return radial_bandwidth(self.u0)

    @cached_property
    def l1(self) -> float:
        return self.u0.l1_norm()

    @cached_property
    def modes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(kept mode indices, their coefficient rows, their angular rows)."""
        a = modal_coefficients(self.data, self.u0)
        keep = _retained_modes(self.data, a, self.u0)
        return keep, a[keep], self.data.psi_values(self.u0.thetas(), keep)

    @cached_property
    def mirror(self) -> _Source:
        return _Source(_flip_eigendata(self.data), replace(self.u0, values=np.conj(self.u0.values)))


def _mode_weights(a: np.ndarray, r_src: np.ndarray, t: float):
    """(row, radii, weights a_k e^{i r'^2/4t} r' dr) on each nonzero row's support."""
    dr = float(r_src[1] - r_src[0])
    chirp = np.exp(1j * r_src ** 2 / (4.0 * t)) * r_src * dr
    for i, row in enumerate(a):
        mag = np.abs(row)
        peak = float(mag.max()) if mag.size else 0.0
        nz = np.flatnonzero(mag > SUPPORT_RTOL * peak)
        if nz.size:
            lo, hi = max(int(nz[0]) - 2, 0), min(int(nz[-1]) + 3, r_src.size)
            yield i, r_src[lo:hi], row[lo:hi] * chirp[lo:hi]


def _block_sums(n_s: int, n_r: int, blocks, chunk_sum) -> np.ndarray:
    """chunk_sum(c, e, k) on s[c:e] for every block (n0, n1, k); 0 outside the blocks.

    Chunks hold at most HANKEL_CHUNK x n_r pairs.
    """
    out = np.zeros(n_s, dtype=complex)
    for n0, n1, k in blocks:
        step = max(1, HANKEL_CHUNK * n_r // k)
        for c in range(n0, n1, step):
            e = min(c + step, n1)
            out[c:e] += chunk_sum(c, e, k)
    return out


def _direct_sum(b: float, w: np.ndarray, rs: np.ndarray, s: np.ndarray,
                blocks=None) -> np.ndarray:
    """sum_j J_b(s r_j) w_j for every s, one `bessel.j_grid` value per pair.

    `blocks` lists (n0, n1, k): s[n0:n1] sums over the first k radii only,
    and s outside every block gets 0.  Each block is split into `j_grid`
    calls of at most HANKEL_CHUNK x rs.size values.
    """
    if blocks is None:
        blocks = [(0, s.size, rs.size)]
    return _block_sums(s.size, rs.size, blocks, lambda c, e, k:
                       bessel.j_grid(b, np.multiply.outer(s[c:e], rs[:k])) @ w[:k])


def _lattice(x: np.ndarray, line):
    """(h, i) with x = h i to AFFINE_ULPS ulps, i integers >= 0, or None.

    `line` = (x0, step) is `_affine(x)`.  It needs step > 0 and x0 / step an
    integer (h = step) or a half-integer (h = step / 2, i odd).
    """
    x0, step = line
    if step <= 0:
        return None
    c = int(np.rint(2 * x0 / step))   # x0 in half steps
    if c < 0 or abs(x0 - c * step / 2) > AFFINE_ULPS * np.spacing(np.max(np.abs(x))):
        return None
    p = 1 + c % 2
    return step / p, c * p // 2 + p * np.arange(x.size)


def _near_sum(b: float, w: np.ndarray, rs: np.ndarray, s: np.ndarray, r_line, s_line,
              blocks) -> np.ndarray:
    """`_direct_sum` over `blocks`, with one J value per lattice point where that pays.

    When s = h_s i and rs = h_r j on integer lattices (`_lattice`), every
    argument is s_n r_m = h_s h_r i_n j_m, so one `j_grid` call on
    h_s h_r (0 .. K), K the largest product any block reaches, serves every
    pair.  Taken when K + 1 is below the blocks' pair count and at most
    HANKEL_CHUNK x rs.size, the largest call the pairwise route makes;
    otherwise the pairs go to `_direct_sum`.
    """
    lat_s, lat_r = _lattice(s, s_line), _lattice(rs, r_line)
    if blocks and lat_s is not None and lat_r is not None:
        (h_s, i), (h_r, j) = lat_s, lat_r
        top = max(int(i[n1 - 1]) * int(j[k - 1]) for _, n1, k in blocks)
        pairs = sum((n1 - n0) * k for n0, n1, k in blocks)
        if top + 1 < pairs and top < HANKEL_CHUNK * rs.size:
            J = bessel.j_grid(b, float(h_s * h_r) * np.arange(top + 1))
            # real GEMM: the real and imaginary parts of w as two columns
            w2 = np.ascontiguousarray(w, dtype=complex).view(float).reshape(-1, 2)

            def chunk(c, e, k):
                return (J[np.multiply.outer(i[c:e], j[:k])] @ w2[:k]).view(complex)[:, 0]
            return _block_sums(s.size, rs.size, blocks, chunk)
    return _direct_sum(b, w, rs, s, blocks)


def _hankel_integrals(betas: np.ndarray, a: np.ndarray, r_src: np.ndarray,
                      t: float, s: np.ndarray) -> np.ndarray:
    """I_k(s) = int J_{beta_k}(s r') e^{i r'^2/4t} a_k(r') r' dr' for each row of a.

    Each mode's far-field pairs go through `_far_field_sum` where it accepts
    them; every other mode is the direct sum.
    """
    out = np.zeros((betas.size, s.size), dtype=complex)
    for i, rs, w in _mode_weights(a, r_src, t):
        b = float(betas[i])
        fast = _far_field_sum(b, w, rs, s)
        out[i] = _direct_sum(b, w, rs, s) if fast is None else fast
    return out


def _direct_integrals_at(betas: np.ndarray, a: np.ndarray, r_src: np.ndarray,
                         t: float, s: np.ndarray) -> np.ndarray:
    """`_hankel_integrals` by the direct sum alone, on any s: the holdouts' reference."""
    out = np.zeros((betas.size, s.size), dtype=complex)
    for i, rs, w in _mode_weights(a, r_src, t):
        out[i] = _direct_sum(float(betas[i]), w, rs, s)
    return out


def _affine(x: np.ndarray):
    """(x0, step) in long double if x is x0 + j step to AFFINE_ULPS ulps, else None.

    The line is the least-squares fit.  A step from two points carries their
    rounding, and j times it drifts coherently: on the decay benchmark's ring
    at t = 0.1 the end-to-end step left 2.5e-14 of max |I|, the fit 9e-15.
    """
    if x.size < 2:
        return None
    k = np.arange(x.size, dtype=np.longdouble) - (x.size - 1) / 2
    xl = x.astype(np.longdouble)
    step = np.sum(k * xl) / np.sum(k * k)
    x0 = np.mean(xl) - step * ((x.size - 1) / 2)
    line = x0 + step * np.arange(x.size, dtype=np.longdouble)
    if np.max(np.abs(x - line)) > AFFINE_ULPS * np.spacing(np.max(np.abs(x))):
        return None
    return x0, step


def _cis(phase: np.ndarray) -> np.ndarray:
    """e^{i phase} for long double phases, reduced modulo 2 pi before rounding to double."""
    return np.exp(1j * np.fmod(phase, _TWO_PI).astype(float))


def _fft_size(n: int) -> int:
    """Smallest 2^k or 3 2^k that is at least n."""
    p = 1 << max(n - 1, 1).bit_length()
    return 3 * p // 4 if 3 * p // 4 >= n else p


def _chirp_z(g: np.ndarray, r0, dr, s0, ds, n_out: int) -> np.ndarray:
    """sum_j g[:, j] e^{i (s0 + n ds)(r0 + j dr)} for n < n_out, by Bluestein's algorithm.

    n j = (n^2 + j^2 - (n - j)^2) / 2 turns the sum into a convolution with
    the chirp e^{-i ds dr k^2 / 2}, done by FFT.  Grid values are long double,
    and every phase is reduced modulo 2 pi before it is rounded, so no phase
    loses digits at k of 1e4 and more.
    """
    n_in = g.shape[1]
    size = _fft_size(n_in + n_out - 1)
    half = ds * dr / 2
    j = np.arange(n_in, dtype=np.longdouble)
    n = np.arange(n_out, dtype=np.longdouble)
    chirp = np.zeros(size, dtype=complex)
    chirp[:n_out] = _cis(-half * n * n)
    chirp[size - n_in + 1:] = _cis(-half * j[:0:-1] ** 2)
    spec = np.fft.fft(g * _cis(s0 * (r0 + j * dr) + half * j * j), size, axis=1)
    spec *= np.fft.fft(chirp)
    return np.fft.ifft(spec, axis=1)[:, :n_out] * _cis(n * ds * r0 + half * n * n)


def _far_field_sum(b: float, w: np.ndarray, rs: np.ndarray, s: np.ndarray):
    """`_direct_sum` with its far-field pairs from chirp-z transforms, or None to go direct.

    For x = s r' >= R = `bessel.asymptotic_switch_radius(b)`, Hankel's
    expansion gives J_b(x) = Re[sqrt(2/pi) e^{-i phi} sum_m i^m a_m
    x^{-m-1/2} e^{ix}], so per term m the sum over r' is a chirp-z transform
    of r'^{-m-1/2} w, and the e^{-ix} half the conjugate of the transform of
    conj(w).  The radii are cut into octaves [e/2, e) down from r'_max; the
    band whose smallest radius is r_lo takes s >= R / r_lo through the
    transform, with (r'/r_lo)^{-m-1/2} on its inputs and (s r_lo)^{-m-1/2}
    on its outputs, so no factor exceeds 1.  Bands stop at the first one whose
    far pairs do not pay for its FFTs.  The rest, and every radius below the
    last band, are `_direct_sum`'s near field, which for each s is a prefix
    of the radii.
    None where R is infinite, where no band pays, where s or the radii are not
    affine to round-off, or where the result misses the direct sum at
    FAR_HOLDOUT_POINTS far-field s by more than FAR_HOLDOUT_RTOL of its
    largest value.
    """
    cut = bessel.asymptotic_switch_radius(b)
    bands = []   # (first radius index, end index, first far s index)
    end = rs.size if math.isfinite(cut) else 0
    while end > 0:
        start = int(np.searchsorted(rs, rs[-1] / 2.0 ** (len(bands) + 1)))
        first = int(np.searchsorted(s * rs[start], cut))
        if (end - start) * (s.size - first) < FAR_PAIRS_PER_POINT * _fft_size(
                end - start + s.size - first - 1):
            break
        bands.append((start, end, first))
        end = start
    if not bands:
        return None
    r_line, s_line = _affine(rs), _affine(s)
    if r_line is None or s_line is None:
        return None
    n_terms = 2 * bessel.ASYMPTOTIC_PAIRS
    coef = (np.array(bessel._hankel_coefficients(b, n_terms))
            * np.array([1, 1j, -1, -1j])[np.arange(n_terms) % 4])
    # e^{-i phi} / sqrt(2 pi), phi = (2b + 1) pi / 4 reduced exactly modulo 2 pi
    phase = np.exp(-0.25j * math.pi * math.fmod(2.0 * b + 1.0, 8.0)) / math.sqrt(2.0 * math.pi)
    powers = np.arange(n_terms)[:, None] + 0.5
    out = np.zeros(s.size, dtype=complex)
    for start, end, first in bands:
        r_lo = rs[start]
        scaled = (r_lo / rs[start:end]) ** powers * w[start:end]
        f = _chirp_z(np.concatenate([scaled, np.conj(scaled)]), r_line[0] + start * r_line[1],
                     r_line[1], s_line[0] + first * s_line[1], s_line[1], s.size - first)
        terms = coef[:, None] * (1.0 / (s[first:] * r_lo)) ** powers
        out[first:] += phase * np.sum(terms * f[:n_terms], axis=0)
        out[first:] += np.conj(phase * np.sum(terms * f[n_terms:], axis=0))
    # near field: s below the top band's threshold sees every radius, and each
    # band's threshold cuts the radii seen off at that band's start
    cuts = [(0, rs.size)] + [(first, start) for start, _, first in bands] + [(s.size, 0)]
    out += _near_sum(b, w, rs, s, r_line, s_line, [
        (n0, n1, width) for (n0, width), (n1, _) in zip(cuts, cuts[1:]) if n1 > n0 and width])
    far = np.arange(bands[0][2], s.size)
    hold = far[np.unique(np.linspace(0, far.size - 1, FAR_HOLDOUT_POINTS).round().astype(int))]
    miss = np.abs(_direct_sum(b, w, rs, s[hold]) - out[hold])
    return None if np.any(miss > FAR_HOLDOUT_RTOL * np.abs(out).max()) else out


def _direct_integrals(betas: np.ndarray, a: np.ndarray, r_full: np.ndarray,
                      t: float, s: np.ndarray):
    """(source radii, a rows, I on s) on the sub-grid `_source_stride` picks for max(s)."""
    m = _source_stride(a, r_full, float(np.max(s)), t)
    r_src, a = r_full[m - 1::m], a[:, m - 1::m]
    return r_src, a, _hankel_integrals(betas, a, r_src, t, s)


def _sinc_interpolate(p: np.ndarray, h: float, s: np.ndarray, parity: np.ndarray) -> np.ndarray:
    """Rows sampled at h (j + 1/2), j >= 0, evaluated at arbitrary s >= 0.

    Row k continues to s < 0 as p(-s) = parity[k] p(s), so the half-offset
    samples mirror exactly.  The kernel is sinc times a Gaussian of variance
    SINC_TAPS / (pi - pi/S_OVERSAMPLE) over 2 SINC_TAPS taps; for rows of
    exponential type pi / (S_OVERSAMPLE h) its error falls like
    exp(-(pi - pi/S_OVERSAMPLE) SINC_TAPS / 2) (L. Qian, Proc. AMS 131, 2003).
    """
    x = s / h - 0.5
    var = SINC_TAPS / (math.pi - math.pi / S_OVERSAMPLE)
    base = np.floor(x).astype(int)
    out = np.zeros((p.shape[0], s.size), dtype=complex)
    for off in range(1 - SINC_TAPS, SINC_TAPS + 1):
        j = base + off
        d = x - j
        w = np.sinc(d) * np.exp(-d * d / (2.0 * var))
        mirrored = j < 0
        sign = np.where(mirrored[None, :], parity[:, None], 1.0)
        out += sign * p[:, np.where(mirrored, -1 - j, j)] * w
    return out


def _interpolated_integrals(betas: np.ndarray, a: np.ndarray, r_full: np.ndarray,
                            t: float, s: np.ndarray):
    """(source radii, a rows, I on s) from the rule's s grid, or None to go direct.

    I_k is of exponential type r'_max in s.  With beta = n + f, n = floor(beta),
    p_k = I_k / s^f is entire with parity (-1)^n, so it is computed on
    s_c = h (j + 1/2), h = pi / (S_OVERSAMPLE r'_max), interpolated onto s and
    multiplied back by s^f.  None when that grid is not smaller than s, when
    the source grid does not resolve its last s, or when the interpolant misses
    direct evaluation at HOLDOUT_POINTS requested s by more than HOLDOUT_RTOL
    of a mode's largest sample.
    """
    h = math.pi / (S_OVERSAMPLE * float(r_full[-1]))
    s_c = h * (np.arange(int(math.ceil(float(np.max(s)) / h)) + SINC_TAPS + 1) + 0.5)
    if s_c.size >= s.size or required_source_points(
            float(r_full[-1]), float(s_c[-1]), t) > r_full.size:
        return None
    r_src, a, I_c = _direct_integrals(betas, a, r_full, t, s_c)
    n = np.floor(betas)
    frac = (betas - n)[:, None]
    I = _sinc_interpolate(I_c / s_c ** frac, h, s, 1.0 - 2.0 * (n % 2)) * s ** frac
    hold = np.unique(np.linspace(0, s.size - 1, HOLDOUT_POINTS).round().astype(int))
    miss = np.abs(_direct_integrals_at(betas, a, r_src, t, s[hold]) - I[:, hold])
    if np.any(miss > HOLDOUT_RTOL * np.abs(I_c).max(axis=1, keepdims=True)):
        return None
    return r_src, a, I


def _zeta_negative(p: float) -> float:
    """zeta(-p) for p > 0 via the reflection formula."""
    from scipy.special import zeta
    return float(2.0 ** -p * math.pi ** (-p - 1.0) * math.sin(-math.pi * p / 2.0)
                 * math.gamma(1.0 + p) * zeta(1.0 + p))


def _modal_masses(betas: np.ndarray, a: np.ndarray, r_src: np.ndarray, t: float,
                  s: np.ndarray, I: np.ndarray) -> np.ndarray:
    """int |I_k(s)|^2 s ds per mode, with the endpoint-singularity correction.

    Near s = 0, |I_k|^2 s = C_k s^{2 nu + 1}: the uniform-grid sum misses
    zeta(-(2 nu + 1)) C_k ds^{2 nu + 2} (Euler-Maclaurin with an algebraic
    endpoint).  C_k follows from J_nu(x) -> (x/2)^nu / Gamma(nu+1).
    """
    ds = float(s[1] - s[0])
    masses = np.sum(np.abs(I) ** 2 * s[None, :], axis=1) * ds
    dr = float(r_src[1] - r_src[0])
    chirp = np.exp(1j * r_src ** 2 / (4.0 * t)) * r_src * dr
    for i, b in enumerate(betas):
        p = 2.0 * float(b) + 1.0
        if p > 60.0:
            continue   # correction underflows
        moment = np.sum(r_src ** float(b) * chirp * a[i])
        c = abs(moment) ** 2 / (4.0 ** float(b) * math.gamma(float(b) + 1.0) ** 2)
        masses[i] -= _zeta_negative(p) * c * ds ** (p + 1.0)
    return masses


def _evaluation_grid(u0: PolarField, t: float, k_rad: float) -> np.ndarray:
    """The automatic s grid for u0 with radial bandwidth k_rad.

    Its last point is checked against the source-resolution rule before the
    grid is allocated, so a tiny t is refused, not allocated; n is a float,
    inf where r_eval / 2t overflows.
    """
    r_eval = float(u0.r[-1]) + 2.0 * t * (1.25 * k_rad + 1.0)
    ds = math.pi / (S_OVERSAMPLE * float(u0.r[-1]))
    n = float(np.ceil(r_eval / (2.0 * t) / ds))
    _check_source_resolution(u0, ds * n, t)
    return ds * np.arange(int(n) + 1)


def _evolve_core(src: _Source, t: float, r_out: np.ndarray | None):
    """Evolution internals: (field, s grid, I rows, source radii, a rows, kept indices).

    The source radii and the kept a rows are the sub-grid `_source_stride`
    chose for this t.  s is always the output grid, r / 2t, and I is given on
    it, also when it was interpolated (the rule's s grid stays inside
    `_interpolated_integrals`).  For t < 0 they, s and I are those of the |t|
    mirror run (reversed field, conj u0), so `_modal_masses` at |t| applies
    unchanged.
    """
    if t < 0.0:
        mirror, s, I, r_src, a, keep = _evolve_core(src.mirror, -t, r_out)
        return replace(mirror, values=np.conj(mirror.values), t=t), s, I, r_src, a, keep
    data, u0 = src.data, src.u0
    if r_out is None:
        s = _evaluation_grid(u0, t, src.bandwidth)
    else:
        r_out = np.asarray(r_out, dtype=float)
        if np.any(r_out < 0):
            raise InvalidInput("output radii must be nonnegative")
        _check_uniform(r_out)   # the output field's grid, refused before the quadrature
        s = r_out / (2.0 * t)
        _check_source_resolution(u0, float(np.max(s)), t)

    keep, a, Psi = src.modes
    betas = data.beta[keep]
    routed = None if r_out is None else _interpolated_integrals(betas, a, u0.r, t, s)
    r_src, a, I = routed or _direct_integrals(betas, a, u0.r, t, s)
    phases = kernel._phases(betas)
    prefac = np.exp(1j * t * s ** 2) / (2.0j * t)
    values = np.einsum("s,k,ks,kj->sj", prefac, phases, I, Psi, optimize=True)
    return PolarField(r=2.0 * t * s, values=values, t=t), s, I, r_src, a, keep


def evolve(data: KernelEigendata, u0: PolarField, t: float,
           r_out: np.ndarray | None = None) -> PolarField:
    """Apply the flow for time t via the Bessel-series representation."""
    if t == 0.0:
        return replace(u0, t=0.0)
    return _evolve_core(_Source(data, u0), t, r_out)[0]


def free_evolution(u0: PolarField, t: float, r_out: np.ndarray | None) -> PolarField:
    """Evolution with no potential at all: the alpha = 0 closed-form eigendata.

    Orders beta = |m| for |m| <= (n_theta - 1) // 2, so no two modes alias on
    the angular grid of u0.
    """
    return evolve(kernel.circulation_eigendata(0.0, (u0.n_theta - 1) // 2), u0, t, r_out)


# -- Crank-Nicolson oracle ---------------------------------------------------------


def _spectral_refine(rows: np.ndarray, n_coarse: int) -> np.ndarray:
    """Band-limited upsampling of compactly supported radial profiles.

    `rows[i]` holds samples at dr * (1 .. n_src); returns samples at
    (dr / CN_REFINE) * (1 .. CN_REFINE * n_coarse) after zero extension to n_coarse.
    """
    if n_coarse <= rows.shape[1]:
        raise InvalidInput("refinement window must extend past the source support")
    grid = np.zeros((rows.shape[0], n_coarse), dtype=complex)
    grid[:, 1:rows.shape[1] + 1] = rows
    spec = np.fft.fft(grid, axis=1)
    n_fine = CN_REFINE * n_coarse
    half = n_coarse // 2
    pad = np.zeros((rows.shape[0], n_fine), dtype=complex)
    pad[:, :half] = spec[:, :half]
    pad[:, -half:] = spec[:, -half:]
    fine = np.fft.ifft(pad, axis=1) * CN_REFINE
    return np.roll(fine, -1, axis=1)   # samples at dr_f * (1 .. n_fine)


def solve_banded(factors: list, rhs: np.ndarray) -> np.ndarray:
    """One Crank-Nicolson solve: v with (I + i dt/2 H) v = rhs, from zgttrf's factors.

    rhs is overwritten.
    """
    v, info = zgttrs(*factors, rhs, overwrite_b=1)
    if info != 0:
        raise ValueError(f"zgttrs: illegal value in argument {-info}")
    return v


def crank_nicolson_oracle(data: KernelEigendata, u0: PolarField, t: float,
                          r_max: float | None = None) -> PolarField:
    """Modewise radial Crank-Nicolson evolution, sharing only the angular basis.

    Each retained mode solves i dc/dt = (-d^2/dr^2 - (1/r) d/dr + mu_k / r^2) c
    in Liouville form v = sqrt(r) c, where the operator becomes the real
    symmetric tridiagonal -v'' + (mu_k - 1/4) v / r^2 with Dirichlet walls.
    CN_REFINE subdivides the source grid spacing to push down the second-order
    dispersion error of the stencil.  Mass reaching the Dirichlet wall is a
    resolution failure (reflections would contaminate the field).
    """
    if t == 0.0:
        return replace(u0, t=0.0)

    src = _Source(data, u0)
    dr_src = float(u0.r[1] - u0.r[0])
    k_rad = src.bandwidth
    if r_max is None:
        r_max = float(u0.r[-1]) + 2.0 * abs(t) * (1.5 * k_rad + 2.0)
    n_coarse = max(int(math.ceil(r_max / dr_src)), u0.r.size + 2)
    dr = dr_src / CN_REFINE
    n_r = CN_REFINE * n_coarse
    r = dr * np.arange(1, n_r + 1)
    lam = (1.5 * k_rad + 2.0) ** 2
    n_steps = max(400, int(math.ceil(abs(t) * lam * 8.0)))
    dt = t / n_steps

    keep, a_keep, Psi = src.modes
    fine = _spectral_refine(a_keep, n_coarse)
    sqrt_r = np.sqrt(r)
    out_modes = np.zeros((keep.size, n_r), dtype=complex)
    # the step in Cayley form, (I + B)^{-1} (I - B) v = 2 (I + B)^{-1} v - v with
    # B = i dt/2 H: I + B is factored once per mode, and a step is one solve
    off = np.full(n_r - 1, 1j * dt / 2.0 * (-1.0 / dr ** 2), dtype=complex)
    for row, k in enumerate(keep):
        v = fine[row] * sqrt_r
        diag = 2.0 / dr ** 2 + (float(data.mu[k]) - 0.25) / r ** 2
        *factors, info = zgttrf(off, 1.0 + 1j * dt / 2.0 * diag, off)
        if info != 0:
            raise InvalidMatrix(f"Crank-Nicolson matrix of mode {k} is singular "
                                f"(zgttrf info {info})")
        for _ in range(n_steps):
            v = solve_banded(factors, 2.0 * v) - v
        if not np.all(np.isfinite(v)):
            raise InvalidInput(f"Crank-Nicolson field of mode {k} is not finite")
        out_modes[row] = v / sqrt_r
    values = out_modes.T @ Psi
    field = PolarField(r=r, values=values, t=t)
    # reflection monitor: mass within 2% of the wall must be negligible
    edge = min(int(0.98 * n_r), n_r - 1)
    edge_mass = float(np.sum(np.abs(out_modes[:, edge:]) ** 2 * r[edge:]) * dr)
    total_mass = float(np.sum(np.abs(out_modes) ** 2 * r) * dr)
    if total_mass > 0.0 and edge_mass > 1e-8 * total_mass:
        raise ResolutionError(
            "field reached the Dirichlet wall; enlarge r_max",
            suggested_n=2 * n_coarse,
        )
    return field


def relative_l2_difference(f1: PolarField, f2: PolarField) -> float:
    """|f1 - f2|_L2 / |f2|_L2 for fields on identical grids."""
    if f1.values.shape != f2.values.shape or f1.r.size != f2.r.size:
        raise InvalidInput("fields must share the same polar grid")
    if not np.allclose(f1.r, f2.r):
        raise InvalidInput("fields must share the same radial grid")
    diff = PolarField(r=f1.r, values=f1.values - f2.values, t=f1.t)
    denom = f2.l2_norm()
    if denom == 0.0:
        raise InvalidInput("reference field is zero")
    return diff.l2_norm() / denom


# -- decay functional ---------------------------------------------------------------


@dataclass(frozen=True)
class EvolutionResult:
    """One evolved field with its dispersive-decay statistic."""
    t: float
    field: PolarField
    sup_norm: float
    l2_norm: float
    decay_functional: float       # |t| * sup_norm / |u0|_L1


def evolve_result(data: KernelEigendata, u0: PolarField, t: float) -> EvolutionResult:
    """Evolve on the automatic grid; L2 from per-mode masses (endpoint-corrected)."""
    return _result(_Source(data, u0), t)


def _result(src: _Source, t: float) -> EvolutionResult:
    u0 = src.u0
    if t == 0.0:
        return EvolutionResult(t=0.0, field=replace(u0, t=0.0), sup_norm=u0.sup_norm(),
                               l2_norm=u0.l2_norm(), decay_functional=0.0)
    field, s, I, r_src, a, keep = _evolve_core(src, t, None)
    masses = _modal_masses(src.data.beta[keep], a, r_src, abs(t), s, I)
    sup = field.sup_norm()
    return EvolutionResult(t=float(t), field=field, sup_norm=sup,
                           l2_norm=math.sqrt(float(np.sum(masses))),
                           decay_functional=abs(t) * sup / src.l1)


@dataclass(frozen=True)
class DecayReport:
    rows: list[EvolutionResult]
    l1_initial: float
    l2_initial: float
    empirical_constant: float     # max of the decay functional over the sweep
    max_over_median: float
    l2_max_drift: float


def decay_profile(data: KernelEigendata, u0: PolarField, times) -> DecayReport:
    """|t| |u(t)|_inf / |u0|_L1 over the given times, with L^2 drift tracking.

    Zero initial data is InvalidInput: both statistics divide by its norms.
    """
    ts = [float(t) for t in times]
    positive = [abs(t) for t in ts if t != 0.0]
    if len(positive) < 2 or max(positive) < 1e3 * min(positive):
        raise InvalidInput("decay sweep must span at least three decades of t")
    if not np.any(u0.values):
        raise InvalidInput("initial data is zero on its grid (a ring narrower than the "
                           "radial spacing underflows); the decay functional divides by "
                           "its L1 norm")
    src = _Source(data, u0)   # u0-only work, once for the sweep
    l2_0 = u0.l2_norm()
    rows = []
    drift = 0.0
    for t in ts:
        res = _result(src, t)
        rows.append(res)
        drift = max(drift, abs(res.l2_norm - l2_0) / l2_0)
    vals = np.array([r.decay_functional for r in rows])
    return DecayReport(rows=rows, l1_initial=src.l1, l2_initial=l2_0,
                       empirical_constant=float(np.max(vals)),
                       max_over_median=float(np.max(vals) / np.median(vals)),
                       l2_max_drift=drift)


# -- field snapshots ----------------------------------------------------------------

SNAPSHOT_MAGIC = b"POLARFLD"


def save_field(path, field: PolarField) -> None:
    """Flat binary snapshot: magic, dims, t, radial grid, interleaved re/im."""
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        np.array([field.r.size, field.n_theta], dtype="<i8").tofile(fh)
        np.array([field.t], dtype="<f8").tofile(fh)
        field.r.astype("<f8").tofile(fh)
        inter = np.empty((field.r.size, field.n_theta, 2))
        inter[..., 0] = field.values.real
        inter[..., 1] = field.values.imag
        inter.astype("<f8").tofile(fh)


def load_field(path) -> PolarField:
    """Read a `save_field` snapshot; InvalidInput unless its header's dims fit the file."""
    with open(path, "rb") as fh:
        if fh.read(len(SNAPSHOT_MAGIC)) != SNAPSHOT_MAGIC:
            raise InvalidInput(f"not a field snapshot: {path}")
        dims = [int(x) for x in np.fromfile(fh, dtype="<i8", count=2)]
        n_r, n_theta = dims if len(dims) == 2 else (-1, -1)
        data_bytes = os.fstat(fh.fileno()).st_size - len(SNAPSHOT_MAGIC) - 24
        if min(n_r, n_theta) < 0 or data_bytes != 8 * n_r * (1 + 2 * n_theta):
            raise InvalidInput(f"field snapshot {path} does not match its header: "
                               f"(n_r, n_theta) = {tuple(dims)}, {data_bytes} data bytes")
        t = float(np.fromfile(fh, dtype="<f8", count=1)[0])
        r = np.fromfile(fh, dtype="<f8", count=n_r)
        inter = np.fromfile(fh, dtype="<f8", count=2 * n_r * n_theta)
    inter = inter.reshape(n_r, n_theta, 2)
    return PolarField(r=r, values=inter[..., 0] + 1j * inter[..., 1], t=t)
