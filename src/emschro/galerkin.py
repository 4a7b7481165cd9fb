"""Fourier-Galerkin spectra of the angular operator on the circle.

The operator acts on 2pi-periodic functions as

    L phi = -phi'' + [a + A^2 - i A'] phi - 2 i A phi'

and is Hermitian on L^2 of the circle.  In the orthonormal basis
e_j = e^{i j theta} / sqrt(2 pi), j = -M..M, the matrix entries are

    H[j', j] = j^2 delta_{j'j} + V_{j'-j} + 2 j A_{j'-j},

where V_m are the Fourier coefficients of a + A^2 - i A' (so V_m =
(a + A^2)_m + m A_m) and A_m those of A.  Hermiticity then holds entry-wise
up to round-off; `eigensolve` measures that defect once, on the assembled
matrix, refuses it past HERMITIAN_DEFECT_TOL and solves the Hermitian part.

H is banded: its half-width is b = max(bw(a), 2 bw(A)).  The M solve is a
dense `eigh` (the eigenvectors are needed); the resolution certificate
re-solves at M' = ceil(1.5 M) for eigenvalues only, from LAPACK upper band
storage, in O(M' b) memory and O(M'^2 b) time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import eigvals_banded

from .errors import InsufficientResolution, InvalidInput, InvalidMatrix
from .potentials import AngularPotential, power_of_two_at_least, theta_grid

HERMITIAN_DEFECT_TOL = 1e-12
RESOLVE_FACTOR = 1.5
RESOLVE_RTOL = 1e-9
CLUSTER_GAP = 1e-8


def _convolved_coeffs(p: AngularPotential) -> tuple[np.ndarray, np.ndarray, int]:
    """Coefficients of V = a + A^2 - i A' and of A, on a common mode range."""
    A = p.A_coeffs
    a = p.a_coeffs
    A2 = np.convolve(A, A)  # bandwidth doubles
    bw = max(p.a_bandwidth, 2 * p.A_bandwidth)
    modes = np.arange(-bw, bw + 1)
    V = _padded(a, bw) + _padded(A2, bw)
    V += modes * _padded(A, bw)  # -i A' contributes m * A_m
    return V, _padded(A, bw), bw


def _padded(c: np.ndarray, bw: int) -> np.ndarray:
    m0 = c.size // 2
    out = np.zeros(2 * bw + 1, dtype=complex)
    out[bw - m0:bw + m0 + 1] = c
    return out


def _diagonals(p: AngularPotential, M: int):
    """Diagonals of the (2M+1)^2 matrix: (m, cols, entries (cols + m, cols)).

    The entry (j + m, j) is V_m + 2 j A_m, plus j^2 on the main diagonal; m
    runs over -b..b with b = max(bw(a), 2 bw(A)) capped at 2M.
    """
    V, A, bw = _convolved_coeffs(p)
    js = np.arange(-M, M + 1)
    n = js.size
    b = min(bw, n - 1)
    for m in range(-b, b + 1):
        cols = np.arange(max(0, -m), min(n, n - m))
        d = V[bw + m] + 2.0 * js[cols] * A[bw + m]
        yield m, cols, js.astype(float) ** 2 + d if m == 0 else d


def assemble_matrix(p: AngularPotential, M: int) -> np.ndarray:
    """Dense (2M+1)^2 matrix of the angular operator, as assembled.

    It is Hermitian up to round-off; `eigensolve` measures and removes the
    defect.
    """
    if M < 1:
        raise InvalidInput("M must be >= 1")
    n = 2 * M + 1
    H = np.zeros((n, n), dtype=complex)
    for m, cols, d in _diagonals(p, M):
        H[cols + m, cols] += d
    return H


def _upper_band(p: AngularPotential, M: int) -> np.ndarray:
    """`assemble_matrix(p, M)` in LAPACK upper band storage, shape (b + 1, 2M + 1).

    ab[b + m, j] holds the entry (j + m, j) for m = -b..0.
    """
    upper = [(m, cols, d) for m, cols, d in _diagonals(p, M) if m <= 0]
    b = len(upper) - 1
    ab = np.zeros((b + 1, 2 * M + 1), dtype=complex)
    for m, cols, d in upper:
        ab[b + m, cols] = d
    return ab


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of the angular operator at truncation M.

    `coeffs[:, k]` holds the Fourier coefficients (modes -M..M) of the k-th
    eigenfunction in the orthonormal basis e^{i j theta} / sqrt(2 pi); columns
    are L^2-orthonormal and phase-fixed so the largest-modulus coefficient is
    real positive.  The leading `resolved_count` eigenvalues agree with the
    eigenvalues of the M' = ceil(1.5 M) matrix to relative 1e-9.
    `hermitian_defect` is max |H - H^H| of the assembled M matrix, and
    `potential` the pair (a, A) the matrix was assembled from.
    `reference_dim` (2M' + 1) and `band_halfwidth` (b) are the size of that
    re-solve; both are 0 when nothing was certified (a bare `eigensolve`).
    """

    eigenvalues: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    M: int
    resolved_count: int
    hermitian_defect: float
    potential: AngularPotential
    reference_dim: int = 0
    band_halfwidth: int = 0

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.M, self.M + 1)

    def eigenfunctions_on_grid(self, n: int) -> np.ndarray:
        """(n, n_eig) samples of all eigenfunctions on theta_grid(n)."""
        if n < 2 * self.M + 2:
            raise InvalidInput("grid too coarse for the stored bandwidth")
        z = np.zeros((n, self.coeffs.shape[1]), dtype=complex)
        z[self.modes % n, :] = self.coeffs
        return np.fft.ifft(z, axis=0) * n / math.sqrt(2.0 * math.pi)

    def sup_norms(self) -> np.ndarray:
        """Rigorous upper bounds of eigenfunction sup norms (l1 of coefficients)."""
        return np.sum(np.abs(self.coeffs), axis=0) / math.sqrt(2.0 * math.pi)


def _phase_fix(U: np.ndarray) -> np.ndarray:
    top = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])]
    # scalar abs: np.abs on the array rounds some moduli an ulp differently
    return U * np.array([np.conj(c) / abs(c) if c != 0 else 1.0 for c in top])


def eigensolve(H: np.ndarray, potential: AngularPotential) -> SpectralDecomposition:
    """Backward-stable dense Hermitian eigensolve with phase fixing.

    H is checked once, as given: its defect max |H - H^H| is refused past
    HERMITIAN_DEFECT_TOL of max(1, max |H|) and reported, and the Hermitian
    part 0.5 (H + H^H) is solved.  Nothing is certified: `resolved_count` is 0.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] % 2 != 1:
        raise InvalidInput("matrix must be square with odd dimension 2M+1")
    defect = float(np.max(np.abs(H - H.conj().T)))
    scale = max(1.0, float(np.max(np.abs(H))))
    if defect > HERMITIAN_DEFECT_TOL * scale:
        raise InvalidMatrix(f"matrix is not Hermitian (defect {defect:.2e})")
    w, U = np.linalg.eigh(0.5 * (H + H.conj().T))
    U = _phase_fix(U)
    M = H.shape[0] // 2
    return SpectralDecomposition(
        eigenvalues=w, coeffs=U, M=M, resolved_count=0,
        hermitian_defect=defect, potential=potential,
    )


def compute_spectrum(p: AngularPotential, M: int) -> SpectralDecomposition:
    """Assemble and solve at M, then certify the leading eigenvalues.

    The certificate re-solves at M' = ceil(RESOLVE_FACTOR M) for eigenvalues
    only, from band storage (the dense M' matrix is never built), and counts
    the leading eigenvalues that match it to relative `RESOLVE_RTOL`.
    """
    dec = eigensolve(assemble_matrix(p, M), p)
    ab = _upper_band(p, int(math.ceil(RESOLVE_FACTOR * M)))
    w = dec.eigenvalues
    ref = eigvals_banded(ab, lower=False)[:w.size]
    match = np.abs(w - ref) <= RESOLVE_RTOL * np.maximum(1.0, np.abs(ref))
    return replace(dec, resolved_count=int(np.cumprod(match).sum()),
                   reference_dim=ab.shape[1], band_halfwidth=ab.shape[0] - 1)


def spectrum_rows(dec: SpectralDecomposition):
    """CSV-ready `(k, mu_k)` rows, k starting at 1."""
    return [(k + 1, float(mu)) for k, mu in enumerate(dec.eigenvalues)]


# -- mode pairing -------------------------------------------------------------


@dataclass(frozen=True)
class ModePairing:
    j: int
    k: int                # column index into the decomposition
    overlap: float
    cluster_flag: bool    # eigenvalue has a near-degenerate partner
    ambiguous: bool       # runner-up overlap too close to call


def _gauge_profile_coeffs(p: AngularPotential, M: int) -> np.ndarray:
    """Coefficients (modes -M..M) of e^{-i P(theta)}, P = periodic part of int A."""
    n = power_of_two_at_least(8 * (M + p.A_bandwidth + 1))
    th = theta_grid(n)
    P = p.integral_A(th) - p.circulation * th
    q = np.fft.fft(np.exp(-1j * P)) / n
    modes = np.arange(-M, M + 1)
    return q[modes % n]


def pair_modes(dec: SpectralDecomposition, j_list) -> list[ModePairing]:
    """Match signed asymptotic indices j to decomposition columns by overlap.

    The model eigenfunction for j is conj(gauge) e^{i(Atil + j) theta} / sqrt(2pi)
    = e^{i(j - L) theta} e^{-i P} / sqrt(2pi) (`AngularPotential.gauge`), whose
    coefficients are those of e^{-i P} shifted by j - L.
    """
    p = dec.potential
    base = _gauge_profile_coeffs(p, dec.M)
    n = base.size
    out = []
    w = dec.eigenvalues
    adjoint = dec.coeffs.conj().T
    for j in j_list:
        shift = int(j) - p.circulation_floor
        mv = np.zeros(n, dtype=complex)
        lo, hi = max(0, shift), min(n, n + shift)
        if lo < hi:
            mv[lo:hi] = base[lo - shift:hi - shift]
        ov = np.abs(adjoint @ mv)
        k = int(np.argmax(ov))
        second = float(np.partition(ov, -2)[-2]) if ov.size > 1 else 0.0
        gap_prev = abs(w[k] - w[k - 1]) if k > 0 else np.inf
        gap_next = abs(w[k] - w[k + 1]) if k + 1 < w.size else np.inf
        cluster = min(gap_prev, gap_next) < CLUSTER_GAP * max(1.0, abs(w[k]))
        out.append(ModePairing(
            j=int(j), k=k, overlap=float(ov[k]),
            cluster_flag=bool(cluster),
            ambiguous=bool(second > 0.8 * ov[k]),
        ))
    return out


# -- eigenvalue cluster check --------------------------------------------------


@dataclass(frozen=True)
class ClusterRow:
    k: int
    center: float
    radius: float
    count: int


@dataclass(frozen=True)
class ClusterReport:
    passed: bool
    smallest_c: float
    disjoint: bool
    rows: list[ClusterRow]


def cluster_check(dec: SpectralDecomposition, k_min: int, k_max: int) -> ClusterReport:
    """Exactly-two-eigenvalues-per-ball check around the squared integers.

    Balls are B(k^2, c + sqrt(alpha_bound + 4 k^2 Abar^2)) with alpha_bound the
    squared sup norm of a + Abar^2; reports the smallest c >= 0 that works and
    whether consecutive balls stay disjoint.
    """
    if k_max <= k_min or k_min < 1:
        raise InvalidInput("need 1 <= k_min < k_max")
    p = dec.potential
    ab = p.reduced_circulation
    th = theta_grid(4096)
    alpha_bound = float(np.max(np.abs(p.a_values(th) + ab ** 2)) ** 2)
    w = np.sort(dec.eigenvalues[:dec.resolved_count])
    edge = (k_max + 1.0) ** 2
    if w.size < 4 or w[-1] < edge:
        raise InsufficientResolution(
            f"resolved spectrum tops out at {w[-1] if w.size else 'nothing'}; "
            f"need eigenvalues beyond {edge:.1f} - increase M"
        )
    base = {k: math.sqrt(alpha_bound + 4.0 * k * k * ab * ab)
            for k in range(k_min, k_max + 1)}
    c_needed = 0.0
    for k in range(k_min, k_max + 1):
        d = np.sort(np.abs(w - k * k))
        c_needed = max(c_needed, max(0.0, float(d[1]) - base[k]))
    rows = []
    ok = True
    for k in range(k_min, k_max + 1):
        r = c_needed + base[k]
        cnt = int(np.sum(np.abs(w - k * k) <= r))
        rows.append(ClusterRow(k=k, center=float(k * k), radius=r, count=cnt))
        if cnt != 2:
            ok = False
    disjoint = all(
        (k + 1) ** 2 - k ** 2 > (c_needed + base[k]) + (c_needed + base.get(k + 1, 0.0))
        for k in range(k_min, k_max)
    )
    return ClusterReport(passed=ok and disjoint, smallest_c=c_needed,
                         disjoint=disjoint, rows=rows)


def subspace_angle(U1: np.ndarray, U2: np.ndarray) -> float:
    """Largest principal angle (radians) between the column spans of U1, U2."""
    Q1, _ = np.linalg.qr(np.atleast_2d(U1.T).T if U1.ndim == 1 else U1)
    Q2, _ = np.linalg.qr(np.atleast_2d(U2.T).T if U2.ndim == 1 else U2)
    s = np.linalg.svd(Q1.conj().T @ Q2, compute_uv=False)
    s = np.clip(s, -1.0, 1.0)
    return float(np.arccos(np.min(s)))


def loglog_slope(x: np.ndarray, vals: np.ndarray) -> float:
    """Least-squares slope of log vals against log x over the positive vals (0 if < 2)."""
    good = vals > 1e-300
    if np.sum(good) < 2:
        return 0.0
    A = np.vstack([np.log(x[good]), np.ones(int(np.sum(good)))]).T
    return float(np.linalg.lstsq(A, np.log(vals[good]), rcond=None)[0][0])
