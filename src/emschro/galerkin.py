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

H is banded: its half-width is b = max(bw(a), 2 bw(A)), and it is only ever
held in LAPACK band storage, in O(M b) memory.  The M solve takes its
eigenvalues from `eigvals_banded` and its eigenvectors from banded inverse
iteration (Wilkinson, ch. 9): one `zgbtrf` per shift, a few `zgbtrs` steps,
and a Rayleigh-Ritz step inside each group of close eigenvalues (Dhillon,
BIT 38, 1998, on clusters).  An eigenvector lives where the diagonal j^2 + ...
meets its eigenvalue, so each group is solved on the principal submatrix
over a window of W = WINDOW_MODES modes, those whose diagonal entries lie
nearest its shift (the +-j lumps), in O(M W b) time for the whole spectrum.
Only the vector's entries within b of a window edge couple out of it; when
one exceeds eps ||x||, or a residual fails, the window doubles, up to the
whole matrix.  The reported eigenvalues are shifted Rayleigh quotients,
accurate relative to |mu| at the bottom of the spectrum, and every residual
is that of the zero-padded vector against the whole band, and is checked.

The resolution certificate encloses each eigenvalue lambda_k of the infinite
operator H from data the M solve already has.  Above: lambda_k(H) <=
lambda_k(H_M) <= mu_k + rho_k (min-max), rho_k being the residual of mu_k's
group plus a rounding allowance.  Below: while the outer block (|j| > M)
exceeds a level l, that is below the outer floor, Haynsworth's inertia
additivity counts the eigenvalues of H below l as those of its Schur
complement onto the inner modes.  That complement is at least the n x n
matrix diag(mu - rho) minus the vectors' coupling into the outer modes
through a bound W(l) on the outer resolvent (`_enclosures`).  The certified
run is the leading eigenvalues below the floor whose enclosures are within
RESOLVE_RTOL max(1, |mu|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import eigvals_banded
from scipy.linalg.lapack import zgbtrf, zgbtrs

from .errors import InsufficientResolution, InvalidInput, InvalidMatrix, NoConvergence
from .potentials import AngularPotential, power_of_two_at_least, theta_grid

HERMITIAN_DEFECT_TOL = 1e-12
RESOLVE_RTOL = 1e-9
CLUSTER_GAP = 1e-8
GROUP_RTOL = 1e-4         # relative eigenvalue gap that separates inverse-iteration groups
INVERSE_STEPS = 2         # zgbtrs solves per shift
CHUNK_BYTES = 1 << 20     # stacked band storage per zgbtrf call
WINDOW_MODES = 80         # modes in a group's first window, doubled while it leaks
OUTER_MODES = 24          # outer modes per side held exactly in the certificate


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


def _entries(V: np.ndarray, A: np.ndarray, bw: int, rows: np.ndarray,
             cols: np.ndarray) -> np.ndarray:
    """The operator's entries H[j', j] = j^2 delta + V_{j'-j} + 2 j A_{j'-j} for
    broadcast mode arrays `rows` (j') and `cols` (j); 0 for |j' - j| > bw."""
    d = rows - cols
    k = np.clip(d + bw, 0, 2 * bw)
    H = np.where(np.abs(d) <= bw, V[k] + 2.0 * cols * A[k], 0.0)
    return H + np.where(d == 0, cols.astype(float) ** 2, 0.0)


def assemble_matrix(p: AngularPotential, M: int) -> np.ndarray:
    """The (2M+1)^2 matrix of the angular operator, as assembled, in LAPACK
    general band storage: ab[b + i - j, j] = H[i, j], shape (2b + 1, 2M + 1).

    Rows 0..b are the upper band storage that `eigvals_banded` reads.  H is
    Hermitian up to round-off; `eigensolve` measures and removes the defect.
    """
    if M < 1:
        raise InvalidInput("M must be >= 1")
    V, A, bw = _convolved_coeffs(p)
    js = np.arange(-M, M + 1)
    b = min(bw, 2 * M)
    rows = js + np.arange(-b, b + 1)[:, None]
    return np.where(np.abs(rows) <= M, _entries(V, A, bw, rows, js), 0.0)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of the angular operator at truncation M.

    `coeffs[:, k]` holds the Fourier coefficients (modes -M..M) of the k-th
    eigenfunction in the orthonormal basis e^{i j theta} / sqrt(2 pi); columns
    are L^2-orthonormal and phase-fixed so the largest-modulus coefficient is
    real positive.  `radius[k]` is the width of an enclosure of the k-th
    eigenvalue that also holds mu_k, so |lambda_k - mu_k| <= radius[k]: of
    the operator (`compute_spectrum`, inf at or above `outer_floor`, a lower
    bound of the spectrum of the modes |j| > M) or, from a bare `eigensolve`,
    of the matrix solved (`outer_floor` is then inf).  The leading
    `resolved_count` eigenvalues are below the floor and have radii within
    RESOLVE_RTOL max(1, |mu_k|); 0 from a bare `eigensolve`.
    `hermitian_defect` is max |H - H^H| of the assembled M matrix, and
    `potential` the pair (a, A) the matrix was assembled from.
    `residual_max` is the largest ||H x_k - mu_k x_k|| and `angle_bound` the
    Davis-Kahan bound max_k ||r_k|| / gap_k on the angle between x_k and the
    invariant subspace of its eigenvalue group, gap_k being the distance from
    mu_k to the nearest eigenvalue outside the group.
    `window_max` is the most modes any eigenvalue group was solved over and
    `window_widened` the number of groups whose first window leaked (both 0
    for a diagonal matrix, which needs no solve).
    """

    eigenvalues: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    M: int
    resolved_count: int
    hermitian_defect: float
    potential: AngularPotential
    residual_max: float
    angle_bound: float
    window_max: int
    window_widened: int
    radius: np.ndarray = field(repr=False)
    outer_floor: float

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.M, self.M + 1)

    def certificate_limit(self) -> str:
        """What ends the certified run: the first eigenvalue past it, and the
        bound it fails."""
        k = self.resolved_count
        if k == self.eigenvalues.size:
            return f"all {k} eigenvalues certified"
        mu = float(self.eigenvalues[k])
        if mu >= self.outer_floor:
            return (f"eigenvalue {k + 1} (mu = {mu:.6g}) is at or above the outer "
                    f"floor {self.outer_floor:.6g}")
        return (f"eigenvalue {k + 1} (mu = {mu:.6g}) has enclosure radius "
                f"{self.radius[k]:.2e} > {RESOLVE_RTOL:g} max(1, |mu|) = "
                f"{RESOLVE_RTOL * max(1.0, abs(mu)):.2e}")

    def eigenfunctions_on_grid(self, n: int, columns=None) -> np.ndarray:
        """(n, n_eig) samples of the eigenfunctions on theta_grid(n): all of
        them, or the `columns` listed."""
        if n < 2 * self.M + 2:
            raise InvalidInput("grid too coarse for the stored bandwidth")
        coeffs = self.coeffs if columns is None else self.coeffs[:, columns]
        z = np.zeros((n, coeffs.shape[1]), dtype=complex)
        z[self.modes % n, :] = coeffs
        return np.fft.ifft(z, axis=0) * n / math.sqrt(2.0 * math.pi)


def _phase_fix(U: np.ndarray) -> np.ndarray:
    """Rotate each column of U, in place, so its largest-modulus entry is real positive."""
    top = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])]
    # scalar abs: np.abs on the array rounds some moduli an ulp differently
    U *= np.array([np.conj(c) / abs(c) if c != 0 else 1.0 for c in top])
    return U


def _hermitian_part(ab: np.ndarray) -> tuple[np.ndarray, float]:
    """0.5 (H + H^H) in general band storage, and the defect max |H - H^H|.

    Entry (j + m, j) at ab[b + m, j] meets its partner (j, j + m) at ab[b - m,
    j + m], one gather from the reversed rows; storage outside H is ignored.
    """
    b = ab.shape[0] // 2
    n = ab.shape[1]
    cols = np.arange(n) + np.arange(-b, b + 1)[:, None]
    inside = (cols >= 0) & (cols < n)
    partner = np.take_along_axis(ab[::-1], np.clip(cols, 0, n - 1), axis=1).conj()
    defect = float(np.max(np.abs(ab - partner), where=inside, initial=0.0))
    return np.where(inside, 0.5 * (ab + partner), 0.0), defect


def _shifted_matvec(bands: np.ndarray, X: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Rows (H_k - s_k) x_k for the rows x_k of X, the band matrices H_k in
    `bands[k]` (general band storage) and their shifts s_k."""
    b = bands.shape[1] // 2
    n = bands.shape[2]
    Y = (bands[:, b].real - shifts[:, None]) * X
    for m in range(1, b + 1):
        Y[:, m:] += bands[:, b + m, :n - m] * X[:, :n - m]
        Y[:, :n - m] += bands[:, b - m, m:] * X[:, m:]
    return Y


def _real_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Re(x_k^H y_k) for the rows of two C-contiguous complex arrays."""
    return np.einsum("ij,ij->i", X.view(float), Y.view(float))


def _groups(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices of the runs of sorted w that no relative gap
    above GROUP_RTOL separates."""
    rel = np.diff(w) / np.maximum(1.0, np.abs(w[:-1]))
    starts = np.flatnonzero(np.concatenate(([True], rel > GROUP_RTOL)))
    return starts, np.append(starts[1:], w.size)


def _window_band(herm: np.ndarray, idx: np.ndarray):
    """H over each window and over the modes within b of it.

    `idx` holds the sorted modes of one window per row.  Row g of `ext` lists
    them with every mode within b of them, sorted, then padding above n + b
    that couples to nothing; `inner` marks the window modes among them.
    `band[g]` is the principal submatrix of H over ext[g] in general band
    storage, `closed[g]` the one over the window alone (entries in rows or
    columns outside it zeroed), and `leaks` marks the window modes that H
    couples to a mode outside it.
    """
    b = herm.shape[0] // 2
    n = herm.shape[1]
    mine = np.zeros((idx.shape[0], n + 2 * b), dtype=bool)     # mode j at column j + b
    mine[np.arange(idx.shape[0])[:, None], idx + b] = True
    near = mine.copy()
    for k in range(1, b + 1):
        near[:, k:] |= mine[:, :-k]
        near[:, :-k] |= mine[:, k:]
    near, mine = near[:, b:n + b], mine[:, b:n + b]
    g, modes = np.nonzero(near)
    count = np.bincount(g, minlength=idx.shape[0])
    width = int(count.max())
    at = np.arange(g.size) - np.repeat(np.cumsum(count) - count, count) + b
    # b uncoupled pads on either side, so row p = q + m of column q is always there
    padded = np.repeat([(b + 1) * np.arange(-b, width + b) + np.where(
        np.arange(width + 2 * b) < b, -b, n + b)], idx.shape[0], axis=0)
    padded[g, at] = modes
    flags = np.zeros(padded.shape, dtype=bool)
    flags[g, at] = mine[near]
    ext, inner = padded[:, b:width + b], flags[:, b:width + b]
    rows = sliding_window_view(padded, width, axis=1)         # rows[g, b + m, q] = ext[g, q + m]
    d = rows - ext[:, None, :]
    coupled = np.abs(d) <= b
    band = np.where(coupled, np.take(herm, (d + b) * n + ext[:, None, :], mode="clip"), 0)
    inside = sliding_window_view(flags, width, axis=1)
    closed = np.where(inside & inner[:, None, :], band, 0)
    leaks = inner & np.any(coupled & ~inside, axis=1)
    return ext, inner, band, closed, leaks


def _inverse_iteration(stack: np.ndarray, shifts: np.ndarray, start: np.ndarray,
                       tiny: float) -> np.ndarray:
    """Rows (H_i - s_i)^{-INVERSE_STEPS} start_i, normalised after every step.

    `stack[i]` holds H_i transposed, in `zgbtrf` layout with b fill rows in
    front; it is overwritten.  The shifted matrices are the blocks of one
    block-diagonal band matrix, so one `zgbtrf` and one `zgbtrs` per step
    serve every shift; partial pivoting never leaves a block, whose coupling
    entries are zero.  An exactly singular block (an exact shift) gets the
    pivot `tiny`.
    """
    c, n, rows = stack.shape
    b = (rows - 1) // 3
    stack[:, :, 2 * b] -= shifts[:, None]
    lu, piv, _ = zgbtrf(stack.reshape(c * n, rows).T, b, b, overwrite_ab=True)
    pivots = lu[2 * b]
    pivots[pivots == 0] = tiny
    x = start
    for _ in range(INVERSE_STEPS):
        x, _ = zgbtrs(lu, b, b, x.reshape(c * n), piv, overwrite_b=True)
        x = x.reshape(c, n)
        x /= np.sqrt(_real_dot(x, x))[:, None]
    return x


def _solve_windows(herm, w, first, size, idx, start, tiny, X, mu, res) -> np.ndarray:
    """Eigenpairs of the groups w[first_g : first_g + size_g], each solved on
    the principal submatrix over its window idx[g], from the start vectors
    (over window modes) in the rows of `start`; returns which groups held.

    A held group's zero-padded vectors, shifted Rayleigh quotients (or Ritz
    values) and residual norms against the whole band go to the rows of X,
    mu and res.  A group fails to hold when an entry that H couples out of
    its window exceeds eps ||x||, or a residual exceeds RESOLVE_RTOL
    max(1, |mu|); the whole matrix, having no outside, always holds.
    """
    b = herm.shape[0] // 2
    n = herm.shape[1]
    ext, inner, band, closed, leaks = _window_band(herm, idx)
    offs = np.cumsum(size) - size
    gs = np.repeat(np.arange(size.size), size)
    k = np.arange(gs.size) + np.repeat(first - offs, size)   # eigenvalue index of each row
    sig = w[k]
    c, W = gs.size, ext.shape[1]
    stack = np.empty((c, W, 3 * b + 1), dtype=complex)       # fill rows unset
    stack[:, :, b:] = closed.transpose(0, 2, 1)[gs]
    x = np.zeros((c, W), dtype=complex)
    x[inner[gs]] = start[:c].ravel()
    x = _inverse_iteration(stack, sig, x, tiny)
    leak = np.max(np.abs(x) * leaks[gs], axis=1) > np.finfo(float).eps
    bands = band[gs]
    r = _shifted_matvec(bands, x, sig)
    q = _real_dot(x, r)
    m = sig + q
    r -= q[:, None] * x
    for g in np.unique(size[size > 1]):
        rows = offs[size == g][:, None] + np.arange(g)
        Q = np.linalg.qr(x[rows].transpose(0, 2, 1))[0].transpose(0, 2, 1)
        Q *= inner[gs[rows]]     # QR leaves round-off outside the window
        s0 = sig[rows[:, :1]]
        HQ = _shifted_matvec(bands[rows].reshape(-1, 2 * b + 1, W), Q.reshape(-1, W),
                             np.repeat(s0, g)).reshape(Q.shape)
        G = Q.conj() @ HQ.transpose(0, 2, 1)
        theta, V = np.linalg.eigh(0.5 * (G + G.conj().transpose(0, 2, 1)))
        Vt = V.transpose(0, 2, 1)
        x[rows] = Vt @ Q
        r[rows] = Vt @ HQ - theta[:, :, None] * x[rows]
        m[rows] = s0 + theta
    norm = np.sqrt(_real_dot(r, r))
    bad = (leak | (norm > RESOLVE_RTOL * np.maximum(1.0, np.abs(m)))) & (idx.shape[1] < n)
    held = np.bincount(gs, weights=bad, minlength=size.size) == 0
    keep = held[gs]
    modes = ext[gs]
    put = keep[:, None] & (modes < n)
    X[np.broadcast_to(k[:, None], modes.shape)[put], modes[put]] = x[put]
    mu[k[keep]] = m[keep]
    res[k[keep]] = norm[keep]
    return held


def _band_eigenpairs(herm: np.ndarray, scale: float):
    """Eigenvalues, eigenvector rows and residual norms of a Hermitian band
    matrix, its eigenvalue groups (starts, ends), the widest window solved
    and the number of groups that had to widen theirs.

    Shifts are `eigvals_banded`'s eigenvalues.  Each group is solved on the
    principal submatrix over its window: the WINDOW_MODES modes whose
    diagonal entries form the run of the sorted diagonal centred on the
    group's mean shift (both resonant lumps of a +-j pair).  Groups are
    solved in chunks of about CHUNK_BYTES of stacked band storage.  A
    singleton reports the shifted Rayleigh quotient s + x^H (H - s) x; a
    group of g vectors is QR-orthonormalised and Rayleigh-Ritz rotated by a
    g x g `eigh`.  A group whose window leaks (`_solve_windows`) is solved
    again in a window twice as wide, up to the whole matrix.
    """
    b = herm.shape[0] // 2
    n = herm.shape[1]
    w = eigvals_banded(herm[:b + 1], lower=False)
    starts, ends = _groups(w)
    size = ends - starts
    order = np.argsort(herm[b].real, kind="stable")
    centre = np.searchsorted(herm[b].real[order], np.add.reduceat(w, starts) / size)
    rng = np.random.default_rng(0)   # fixed start vectors, distinct within a chunk
    tiny = np.finfo(float).eps * scale
    X = np.zeros((n, n), dtype=complex)
    mu = np.empty(n)
    res = np.empty(n)
    pending = np.arange(starts.size)
    width, widened = min(n, WINDOW_MODES), None
    while True:
        fits = size[pending] <= width
        todo, retry = pending[fits], [pending[~fits]]
        per_chunk = max(int(np.max(size)), CHUNK_BYTES // (
            (3 * b + 1) * min(n, width + 4 * b) * herm.itemsize))
        start = rng.standard_normal((per_chunk, width)) + 1j * rng.standard_normal(
            (per_chunk, width))
        cum = np.cumsum(size[todo])
        first = 0
        while first < todo.size:
            last = int(np.searchsorted(cum, cum[first] - size[todo[first]] + per_chunk,
                                       side="right"))
            chunk = todo[first:last]
            lo = np.clip(centre[chunk] - width // 2, 0, n - width)
            idx = np.sort(order[lo[:, None] + np.arange(width)], axis=1)
            held = _solve_windows(herm, w, starts[chunk], size[chunk], idx, start, tiny,
                                  X, mu, res)
            retry.append(chunk[~held])
            first = last
        pending = np.concatenate(retry)
        widened = pending.size if widened is None else widened
        if not pending.size:
            return mu, X, res, starts, ends, width, widened
        width = min(n, 2 * width)


def _angle_bound(mu: np.ndarray, res: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray) -> float:
    """Davis-Kahan: max_k ||r_k|| / gap_k, gap_k from mu_k to the nearest
    eigenvalue outside its group."""
    size = ends - starts
    below = np.repeat(np.concatenate(([-np.inf], mu[starts[1:] - 1])), size)
    above = np.repeat(np.append(mu[ends[:-1]], np.inf), size)
    return float(np.max(res / np.minimum(mu - below, above - mu)))


def eigensolve(ab: np.ndarray, potential: AngularPotential) -> SpectralDecomposition:
    """Eigenpairs of a band matrix in general band storage, with phase fixing.

    The matrix is checked once, as given: a half-width b >= 2M + 1 is refused
    with InvalidInput and a non-finite entry with InvalidMatrix; its defect
    max |H - H^H| is refused past HERMITIAN_DEFECT_TOL of max(1, max |H|) and
    reported, and the Hermitian part 0.5 (H + H^H) is solved.  A diagonal
    matrix has the unit vectors as eigenvectors; otherwise vectors come from
    windowed banded inverse iteration (`_band_eigenpairs`).  A residual
    ||H x - mu x|| above RESOLVE_RTOL max(1, |mu|) is refused with
    NoConvergence.  Nothing is certified: `resolved_count` is 0, and `radius`
    encloses the matrix's eigenvalues (`_inner_radius`).
    """
    ab = np.asarray(ab)
    if (ab.ndim != 2 or ab.shape[0] % 2 != 1 or ab.shape[1] % 2 != 1
            or ab.shape[0] > 2 * ab.shape[1] - 1):
        raise InvalidInput("band storage must have 2b + 1 rows and 2M + 1 columns, b <= 2M")
    if not np.all(np.isfinite(ab)):
        raise InvalidMatrix("band storage has a non-finite entry")
    herm, defect = _hermitian_part(ab)
    scale = max(1.0, float(np.max(np.abs(ab))))
    if defect > HERMITIAN_DEFECT_TOL * scale:
        raise InvalidMatrix(f"matrix is not Hermitian (defect {defect:.2e})")
    b = ab.shape[0] // 2
    n = ab.shape[1]
    if np.any(herm[:b]):
        mu, X, res, starts, ends, window, widened = _band_eigenpairs(herm, scale)
        bad = res > RESOLVE_RTOL * np.maximum(1.0, np.abs(mu))
        if np.any(bad):
            k = int(np.argmax(bad))
            raise NoConvergence(f"inverse iteration left residual {res[k]:.2e} "
                                f"at eigenvalue {mu[k]:.6g}")
        U = _phase_fix(X.T)
        residual_max, angle = float(np.max(res)), _angle_bound(mu, res, starts, ends)
    else:
        order = np.argsort(herm[b].real, kind="stable")
        mu = herm[b].real[order]
        U = np.zeros((n, n), dtype=complex)
        U[order, np.arange(n)] = 1.0
        residual_max, angle, window, widened = 0.0, 0.0, 0, 0
        res, starts, ends = np.zeros(n), np.arange(n), np.arange(1, n + 1)
    return SpectralDecomposition(
        eigenvalues=mu, coeffs=U, M=n // 2, resolved_count=0,
        hermitian_defect=defect, potential=potential,
        residual_max=residual_max, angle_bound=angle,
        window_max=window, window_widened=widened,
        radius=2.0 * _inner_radius(herm, mu, res, starts, ends), outer_floor=math.inf,
    )


def _inner_radius(herm: np.ndarray, mu: np.ndarray, res: np.ndarray, starts: np.ndarray,
                  ends: np.ndarray) -> np.ndarray:
    """rho_k with |lambda_k(H_M) - mu_k| <= rho_k.

    It is the Frobenius norm of the residuals of mu_k's group: by Kahan's
    bound for a Rayleigh-Ritz group, as many eigenvalues as vectors lie that
    close to the group's values, sorted alike.  The groups are GROUP_RTOL
    apart, and every residual is within RESOLVE_RTOL, so their intervals are
    disjoint and each bound falls on its own index (a diagonal matrix's
    values are its eigenvalues).  A rounding allowance
    (2b + 8) eps (3 |mu_k| + ||r_k|| + 2 h) covers the residual's evaluation
    and the assembly, h being the largest off-diagonal row sum of |H|, since
    || |H| |x_k| || <= |mu_k| + ||r_k|| + 2 h.
    """
    b = herm.shape[0] // 2
    size = ends - starts
    group = np.repeat(np.sqrt(np.add.reduceat(res ** 2, starts)), size)
    h = float(np.max(np.sum(np.abs(herm), axis=0) - np.abs(herm[b])))
    eps = np.finfo(float).eps
    return group + (2 * b + 8) * eps * (3.0 * np.abs(mu) + res + 2.0 * h)


def compute_spectrum(p: AngularPotential, M: int) -> SpectralDecomposition:
    """Assemble and solve at M, then certify the leading eigenvalues.

    `_enclosures` bounds every eigenvalue of the operator from the M solve
    alone; the certified run is the leading eigenvalues below the outer floor
    whose enclosures are within `RESOLVE_RTOL` max(1, |mu|).
    """
    dec = eigensolve(assemble_matrix(p, M), p)
    radius, floor = _enclosures(dec)
    ok = radius <= RESOLVE_RTOL * np.maximum(1.0, np.abs(dec.eigenvalues))
    return replace(dec, resolved_count=int(np.cumprod(ok).sum()), radius=radius,
                   outer_floor=floor)


def _enclosures(dec: SpectralDecomposition) -> tuple[np.ndarray, float]:
    """Radii of enclosures [lower_k, mu_k + rho_k] of the operator's
    eigenvalues lambda_k (inf at or above the outer floor q), and q.

    The upper end is min-max, lambda_k(H) <= lambda_k(H_M) <= mu_k + rho_k,
    rho_k being half the in-band radius `eigensolve` reports.  For the lower
    end, split the modes into the inner ones I (|j| <= M), the near outer ones
    N (M < |j| <= M + L, both sides) and the far ones F:
    - on F, Gershgorin's rows give H_F >= q2 (the diagonal grows like j^2,
      the row sums like |j|).  With C2 the coupling from N to F and c the
      smallest diagonal entry of H_N, L starts at OUTER_MODES and doubles,
      up to 16 times that, while q2 - c < ||C2||_F (a strong A: 0.3 + 40 cos
      theta takes 192 modes a side at M = 64);
    - the outer block H_{N+F} - l is then positive, and the inverse of its
      Schur complement onto N at most W(l) = (Ht - l)^-1, whenever l is below
      q = the smallest eigenvalue of Ht = H_N - C2^H C2 / (q2 - c) (less its
      rounding), for then l < c < q2;
    - by Haynsworth's inertia additivity, H then has no more eigenvalues
      below l than F(l) = diag(mu - rho) - R^H W(l) R has, R = C X being the
      vectors' residual rows on N (C couples I to N; the vectors X stand in
      for H_M's eigenvectors, which they are to within `angle_bound`).
    F decreases in l, so lambda_k >= lambda_k(F(l)) for any l in [mu_k, q).
    Only the vectors S whose residual rows exceed sqrt(eps) enter F densely;
    the rest enter through R^H W R <= (1 + t) R_S^H W R_S + (1 + 1/t) ||W||
    ||R_rest||_F^2, t = eps^(1/4).  The dense S block is solved once per level
    l: at mu_s for each s in S below q, and at the top mu below q; each
    serves the k from the previous level up to its own.
    """
    p, M, mu, U = dec.potential, dec.M, dec.eigenvalues, dec.coeffs
    rho = 0.5 * dec.radius
    V, A, bw = _convolved_coeffs(p)
    eps = np.finfo(float).eps
    a_off = float(np.sum(np.abs(A))) - abs(A[bw])
    v_off = float(np.sum(np.abs(V))) - abs(V[bw])
    A0, V0 = A[bw].real, V[bw].real
    L = max(OUTER_MODES, bw)
    while True:   # widen N while F's floor sits too close to N's diagonal (strong A)
        near = np.concatenate((np.arange(-M - L, -M), np.arange(M + 1, M + L + 1)))
        far = np.concatenate((np.arange(-M - L - bw, -M - L),
                              np.arange(M + L + 1, M + L + bw + 1)))
        q2 = math.inf
        for side in (1.0, -1.0):   # min over |j| > M + L of the row's Gershgorin floor
            j = max(M + L + 1.0, a_off - side * A0)
            q2 = min(q2, j * j + 2.0 * j * (side * A0 - a_off) + V0 - v_off - 2.0 * bw * a_off)
        HN = _entries(V, A, bw, near[:, None], near)
        c = float(np.min(HN.diagonal().real))
        C2 = _entries(V, A, bw, far[:, None], near)
        if q2 - c >= np.linalg.norm(C2) or L >= 16 * OUTER_MODES:
            break
        L *= 2
    if not c < q2:
        return np.full(mu.size, math.inf), -math.inf
    Ht = 0.5 * (HN + HN.conj().T) - C2.conj().T @ C2 / (q2 - c)
    theta, Z = np.linalg.eigh(Ht)
    q = float(theta[0]) - 4 * L * eps * float(np.max(np.abs(Ht)))
    coupled = np.abs(near) <= M + bw
    edge = np.arange(-M, M + 1)[np.abs(np.arange(-M, M + 1)) > M - bw]
    R = _entries(V, A, bw, near[coupled][:, None], edge) @ U[edge + M]
    d2 = np.sum(R.real ** 2 + R.imag ** 2, axis=0)
    S = d2 > eps
    rest = float(np.sum(d2[~S]))
    Y = Z[coupled].conj().T @ R[:, S]          # R_S in the eigenbasis of Ht
    t = eps ** 0.25
    lower = np.full(mu.size, -math.inf)
    below = int(np.sum(mu < q))    # mu is sorted
    if below:
        tops = np.union1d(np.flatnonzero(S[:below]), [below - 1])
        gap = theta - mu[tops][:, None]
        block = np.diag(mu[S] - rho[S]) - (1.0 + t) * (
            (Y.conj().T / gap[:, None, :]) @ Y)
        inner = np.broadcast_to(mu[~S] - rho[~S], (tops.size, mu.size - Y.shape[1]))
        vals = np.sort(np.concatenate((inner, np.linalg.eigvalsh(block)), axis=1), axis=1)
        level = np.searchsorted(tops, np.arange(below))
        lower[:below] = (vals[level, np.arange(below)]
                         - (1.0 + 1.0 / t) * rest / (q - mu[tops][level]))
    return mu + rho - lower, q


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
    coefficients are those of e^{-i P} shifted by j - L.  The model vectors
    are the columns of one n x n_j matrix, and one product takes every
    overlap.
    """
    p = dec.potential
    base = _gauge_profile_coeffs(p, dec.M)
    n = base.size
    js = np.array([int(j) for j in j_list], dtype=int)
    src = np.arange(n)[:, None] - (js - p.circulation_floor)   # mv[i] = base[i - shift]
    inside = (src >= 0) & (src < n)
    models = np.where(inside, base[np.clip(src, 0, n - 1)], 0.0)
    ov = np.abs(models.T.conj() @ dec.coeffs)
    w = dec.eigenvalues
    out = []
    for j, row in zip(js, ov):
        k = int(np.argmax(row))
        second = float(np.partition(row, -2)[-2]) if row.size > 1 else 0.0
        gap_prev = abs(w[k] - w[k - 1]) if k > 0 else np.inf
        gap_next = abs(w[k] - w[k + 1]) if k + 1 < w.size else np.inf
        cluster = min(gap_prev, gap_next) < CLUSTER_GAP * max(1.0, abs(w[k]))
        out.append(ModePairing(
            j=int(j), k=k, overlap=float(row[k]),
            cluster_flag=bool(cluster),
            ambiguous=bool(second > 0.8 * row[k]),
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
            f"need eigenvalues beyond {edge:.1f} ({dec.certificate_limit()}) - increase M"
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
    """Largest principal angle (radians) between column spans of equal dimension.

    arcsin of ||(I - Q1 Q1^H) Q2||_2, which resolves angles down to round-off;
    arccos of the smallest singular value of Q1^H Q2 cannot go below about
    sqrt(2 eps) = 2e-8.
    """
    Q1, _ = np.linalg.qr(np.atleast_2d(U1.T).T if U1.ndim == 1 else U1)
    Q2, _ = np.linalg.qr(np.atleast_2d(U2.T).T if U2.ndim == 1 else U2)
    sine = np.linalg.norm(Q2 - Q1 @ (Q1.conj().T @ Q2), 2)
    return float(np.arcsin(min(sine, 1.0)))


def loglog_slope(x: np.ndarray, vals: np.ndarray) -> float:
    """Least-squares slope of log vals against log x over the positive vals (0 if < 2)."""
    good = vals > 1e-300
    if np.sum(good) < 2:
        return 0.0
    A = np.vstack([np.log(x[good]), np.ones(int(np.sum(good)))]).T
    return float(np.linalg.lstsq(A, np.log(vals[good]), rcond=None)[0][0])
