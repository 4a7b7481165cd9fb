"""Truncated eigenproblem: exact flux-line case, invariances, clusters, certificate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emschro import galerkin
from emschro.errors import InvalidInput, InvalidMatrix, NoConvergence
from emschro.galerkin import (
    RESOLVE_RTOL,
    _convolved_coeffs,
    _entries,
    assemble_matrix,
    cluster_check,
    compute_spectrum,
    eigensolve,
    pair_modes,
    spectrum_rows,
    subspace_angle,
)
from emschro.potentials import build_potential, constant_potential, theta_grid


def dense_matrix(p, M) -> np.ndarray:
    """The (2M+1)^2 matrix as assembled, built densely from the entry formula
    that the band storage and the certificate read."""
    V, A, bw = _convolved_coeffs(p)
    js = np.arange(-M, M + 1)
    return _entries(V, A, bw, js[:, None], js)


def dense_eigh(p, M):
    H = dense_matrix(p, M)
    return np.linalg.eigh(0.5 * (H + H.conj().T))


@pytest.mark.parametrize("alpha", [0.3, -0.25, 0.5])
def test_flux_line_spectrum_is_exact(alpha):
    dec = compute_spectrum(constant_potential(alpha), 48)
    k = np.arange(-48, 49)
    assert np.allclose(np.sort(dec.eigenvalues), np.sort((k + alpha) ** 2),
                       atol=1e-11)
    mags = np.abs(dec.coeffs)
    assert np.allclose(np.max(mags, axis=0), 1.0, atol=1e-12)
    assert np.max(np.partition(mags, -2, axis=0)[-2, :]) < 1e-12


def test_eigenvalues_sorted_real_and_certified(dec_cos64):
    w = dec_cos64.eigenvalues
    assert np.all(np.diff(w) >= 0)
    assert w.dtype == np.float64
    assert 0 < dec_cos64.resolved_count <= w.size
    assert dec_cos64.hermitian_defect < 1e-12


def test_ground_state_frozen_value(dec_cos64):
    # a = cos(theta), A = 0.3 has a slightly negative ground eigenvalue
    assert dec_cos64.eigenvalues[0] == pytest.approx(-0.35890355745735536, abs=1e-9)


def test_positive_well_ground_state_frozen_value():
    # a = 1 + cos(theta), A = 0.3 lifts it above zero, as the kernel needs
    dec = compute_spectrum(build_potential(a_coeffs=[0.5, 1.0, 0.5], A_coeffs=[0.3]), 48)
    assert dec.eigenvalues[0] == pytest.approx(0.641096, abs=1e-5)


@pytest.mark.parametrize("name, M, b", [("p_mixed", 1, 2), ("p_mixed", 16, 2),
                                        ("p_cos", 7, 1), ("p_even_electric", 2, 2),
                                        ("p_ab", 5, 0)])
def test_band_storage_reproduces_the_assembled_matrix(request, name, M, b):
    p = request.getfixturevalue(name)
    H = dense_matrix(p, M)
    n = 2 * M + 1
    assert not np.any(np.triu(H, b + 1)) and not np.any(np.tril(H, -b - 1))
    full = assemble_matrix(p, M)   # general band storage, both triangles
    assert full.shape == (2 * b + 1, n)
    band = np.zeros_like(H)
    for j in range(n):   # ab[b + i - j, j] = H[i, j]
        for i in range(max(0, j - b), min(n, j + b + 1)):
            band[i, j] = full[b + i - j, j]
    assert np.array_equal(band, H)


@pytest.mark.parametrize("name", ["p_cos", "p_mixed", "strong_A"])
def test_entries_are_the_fourier_coefficients_of_L_on_the_basis(request, name):
    # L e_j = (j^2 + a + A^2 - i A' + 2 j A) e_j, sampled on a fine grid with a
    # spectral A' and transformed: the matrix without the entry formula
    p = (build_potential(a_coeffs=[0.5, 0.0, 0.5], A_coeffs=[3.0, 0.3, 3.0])
         if name == "strong_A" else request.getfixturevalue(name))
    M, n = 16, 256
    th = theta_grid(n)
    a, A = p.a_values(th), p.A_values(th)
    dA = np.fft.ifft(1j * np.fft.fftfreq(n, 1.0 / n) * np.fft.fft(A)).real
    js = np.arange(-M, M + 1)
    Lej = (js[:, None] ** 2 + a + A ** 2 - 1j * dA + 2 * js[:, None] * A) * np.exp(
        1j * np.outer(js, th))
    ref = (np.fft.fft(Lej, axis=1) / n)[:, js % n].T    # ref[j', j]
    H = dense_matrix(p, M)
    assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(H))


def _assert_within_radii(p, dec):
    """Every enclosure below the outer floor holds its eigenvalue of a dense
    eigvalsh at max(4M, 48), less that reference's own round-off, a few eps
    ||H||; the radii of the top certified eigenvalues, which carry the
    coupling to the outer modes, are far above it.  The certified radii are
    within the tolerance."""
    H = dense_matrix(p, max(4 * dec.M, 48))
    H = 0.5 * (H + H.conj().T)
    ref = np.linalg.eigvalsh(H)[:dec.eigenvalues.size]
    below = dec.eigenvalues < dec.outer_floor
    assert np.all(np.isfinite(dec.radius[below])) and np.all(np.isinf(dec.radius[~below]))
    err = np.abs(dec.eigenvalues - ref)[below]
    assert np.all(err <= dec.radius[below] + 16 * np.finfo(float).eps * np.linalg.norm(H, 2))
    k = dec.resolved_count
    assert np.all(dec.radius[:k] <= RESOLVE_RTOL * np.maximum(1.0, np.abs(ref[:k])))


def test_a_strong_field_widens_the_exact_outer_block():
    # A = 0.3 + 40 cos(theta): the far rows' Gershgorin floor sits below or
    # just above the near diagonal until N holds 192 modes a side (M = 64);
    # the counts are the 1.5 M re-solve's
    p = build_potential(a_coeffs=[0.5, 0.4, 0.5], A_coeffs=[20.0, 0.3, 20.0])
    for M, count in ((32, 0), (64, 19)):
        dec = compute_spectrum(p, M)
        assert dec.resolved_count == count
        _assert_within_radii(p, dec)


def test_enclosures_hold_for_a_band_wider_than_the_truncation():
    # a = 0.02 cos(8 theta), A = 0.3: at M = 1..3 the band reaches from one
    # side of the outer modes to the other (b = 8 >= 2M + 2); at M = 6 the
    # ground state still couples straight into them
    p = build_potential(a_coeffs=[0.01] + [0.0] * 15 + [0.01], A_coeffs=[0.3])
    for M in (1, 2, 3, 6):
        _assert_within_radii(p, compute_spectrum(p, M))


CERTIFIED_COUNTS = {   # (M = 16, 64, 96), as the 1.5 M eigenvalue re-solve counted them
    "p_cos": (29, 127, 191), "p_mixed": (27, 123, 187),
    "p_ab": (33, 129, 193), "p_even_electric": (25, 125, 189),
}


@pytest.mark.parametrize("name", ["p_cos", "p_mixed", "p_ab", "p_even_electric"])
@pytest.mark.parametrize("M", [16, 64, 96])
def test_band_certificate_matches_the_dense_reference(request, name, M):
    p = request.getfixturevalue(name)
    dec = compute_spectrum(p, M)
    assert dec.resolved_count == CERTIFIED_COUNTS[name][(16, 64, 96).index(M)]
    _assert_within_radii(p, dec)


def test_too_small_truncation_certifies_part_of_the_spectrum(p_mixed):
    dec = compute_spectrum(p_mixed, 6)
    assert (dec.resolved_count, dec.eigenvalues.size) == (4, 13)
    _assert_within_radii(p_mixed, dec)
    k = dec.resolved_count     # stopped by its radius, well below the outer floor
    assert dec.radius[k] > RESOLVE_RTOL * max(1.0, abs(dec.eigenvalues[k]))
    assert dec.eigenvalues[k] < dec.outer_floor
    assert "eigenvalue 5 " in dec.certificate_limit() and "radius" in dec.certificate_limit()


def test_a_shifted_circulation_certifies_only_below_the_missed_mode():
    # A = 1.3: the outer mode j = -17 has diagonal (-17 + 1.3)^2 = 246.49, inside
    # the M = 16 spectrum, whose eigenvalues above it sit on the wrong index
    p = build_potential(a_coeffs=[0.5, 0.0, 0.5], A_coeffs=[1.3])
    dec = compute_spectrum(p, 16)
    mu, k = dec.eigenvalues, dec.resolved_count
    assert 0 < k < mu.size
    assert mu[k - 1] < dec.outer_floor <= (-17 + 1.3) ** 2
    above = mu >= dec.outer_floor
    assert np.sum(above) == 2 and np.all(np.isinf(dec.radius[above]))
    H = dense_matrix(p, 64)
    ref = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
    assert np.all(np.abs(mu - ref[:mu.size])[above] > 10.0)   # the missed mode's index shift
    _assert_within_radii(p, dec)


@pytest.mark.parametrize("M", [448, 640])
def test_large_truncations_certify_every_eigenvalue(M):
    # a = 0.2 cos(theta), A = 0.3: a 1.5 M eigenvalue re-solve certified none
    # here, its own round-off eps ||H_1.5M|| being above the tolerance
    dec = compute_spectrum(build_potential(a_coeffs=[0.1, 0.0, 0.1], A_coeffs=[0.3]), M)
    assert dec.resolved_count == dec.eigenvalues.size == 2 * M + 1
    assert np.all(dec.radius <= RESOLVE_RTOL * np.maximum(1.0, np.abs(dec.eigenvalues)))


def test_compute_spectrum_solves_eigenvalues_once(monkeypatch, p_mixed):
    calls = []
    real = galerkin.eigvals_banded
    monkeypatch.setattr(galerkin, "eigvals_banded",
                        lambda *a, **kw: calls.append(a[0].shape) or real(*a, **kw))
    compute_spectrum(p_mixed, 24)
    assert calls == [(3, 49)]


def test_compute_spectrum_assembles_once(monkeypatch, p_mixed):
    sizes = []
    real = galerkin.assemble_matrix
    monkeypatch.setattr(galerkin, "assemble_matrix",
                        lambda p, M: sizes.append(M) or real(p, M))
    compute_spectrum(p_mixed, 24)
    assert sizes == [24]


def test_hermitian_defect_is_that_of_the_assembled_matrix(p_mixed):
    dec = compute_spectrum(p_mixed, 64)
    H = dense_matrix(p_mixed, 64)
    defect = max(abs(H[i, j] - np.conj(H[j, i])) for i, j in np.ndindex(H.shape))
    assert dec.hermitian_defect == defect > 0.0


def test_spectral_shift_by_constant(p_cos):
    shifted = build_potential(a_coeffs=[0.5, 0.7, 0.5], A_coeffs=[0.3])
    d0 = compute_spectrum(p_cos, 32)
    d1 = compute_spectrum(shifted, 32)
    assert np.allclose(d1.eigenvalues - d0.eigenvalues, 0.7, atol=1e-10)


def test_integer_circulation_shift_preserves_spectrum(p_cos):
    p_shift = build_potential(a_coeffs=[0.5, 0.0, 0.5], A_coeffs=[1.3])
    d0 = compute_spectrum(p_cos, 48)
    d1 = compute_spectrum(p_shift, 48)
    n = min(d0.resolved_count, d1.resolved_count)
    assert np.allclose(d0.eigenvalues[:n], d1.eigenvalues[:n], atol=1e-9)


def test_eigenfunctions_orthonormal(dec_cos64):
    n = 512
    psi = dec_cos64.eigenfunctions_on_grid(n)[:, :20]
    gram = (2 * np.pi / n) * psi.conj().T @ psi
    assert np.allclose(gram, np.eye(20), atol=1e-10)


def test_eigenfunction_satisfies_operator(dec_cos64, p_cos):
    """Apply the angular operator pseudo-spectrally to the fifth eigenfunction."""
    n = 1024
    th = theta_grid(n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    psi = dec_cos64.eigenfunctions_on_grid(n)[:, 5]
    mu = dec_cos64.eigenvalues[5]
    a = p_cos.a_values(th)
    A = p_cos.A_values(th)
    ph = np.fft.fft(psi)
    d1 = np.fft.ifft(1j * k * ph)
    d2 = np.fft.ifft(-(k ** 2) * ph)
    Lpsi = -d2 + (a + A ** 2) * psi - 2j * A * d1  # A' = 0 for constant A
    assert np.max(np.abs(Lpsi - mu * psi)) < 1e-8


def test_spectrum_rows_shape(dec_cos64):
    rows = list(spectrum_rows(dec_cos64))
    assert len(rows) == dec_cos64.eigenvalues.size
    ks, mus = zip(*rows)
    assert list(mus) == sorted(mus)


def test_cluster_check_two_per_ball(dec_cos64):
    rep = cluster_check(dec_cos64, 10, 28)
    assert rep.passed and rep.disjoint
    assert all(r.count == 2 for r in rep.rows)
    assert rep.smallest_c >= 0.0


def test_cluster_check_validates_range(dec_cos64):
    with pytest.raises(InvalidInput):
        cluster_check(dec_cos64, 10, 10)
    with pytest.raises(InvalidInput):
        cluster_check(dec_cos64, 0, 12)


def test_subspace_angle_extremes(rng):
    v = rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))
    assert subspace_angle(v, 2.0j * v) == pytest.approx(0.0, abs=1e-6)
    e1 = np.zeros((8, 1), complex)
    e2 = np.zeros((8, 1), complex)
    e1[0, 0] = 1.0
    e2[3, 0] = 1.0
    assert subspace_angle(e1, e2) == pytest.approx(np.pi / 2, abs=1e-12)


@pytest.mark.parametrize("angle", [1e-12, 1e-9, 3e-8, 0.4])
def test_subspace_angle_resolves_small_angles(rng, angle):
    # two unit vectors at a known angle, in a random unitary frame of C^8
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    u = Q[:, :1]
    v = np.cos(angle) * Q[:, :1] + np.sin(angle) * 1j * Q[:, 1:2]
    assert subspace_angle(u, 3.0 * v) == pytest.approx(angle, rel=1e-3)


def test_truncation_validation(p_cos):
    with pytest.raises(InvalidInput):
        compute_spectrum(p_cos, 0)


@settings(max_examples=10, deadline=None)
@given(c=st.floats(-2.0, 2.0))
def test_shift_property_random_constant(c):
    base = build_potential(a_coeffs=[0.25, 0.0, 0.25], A_coeffs=[0.2])
    moved = build_potential(a_coeffs=[0.25, c, 0.25], A_coeffs=[0.2])
    d0 = compute_spectrum(base, 16)
    d1 = compute_spectrum(moved, 16)
    assert np.allclose(d1.eigenvalues - d0.eigenvalues, c, atol=1e-10)


# -- the band route against the dense reference ------------------------------------


def _flux(alpha):
    return constant_potential(alpha)


def _assert_matches_dense_eigh(dec, p, M):
    w, U = dense_eigh(p, M)
    assert np.all(np.abs(dec.eigenvalues - w) <= 1e-12 * np.maximum(1.0, np.abs(w)))
    starts, ends = galerkin._groups(w)   # clusters of the dense spectrum
    for lo, hi in zip(starts, ends):
        assert subspace_angle(dec.coeffs[:, lo:hi], U[:, lo:hi]) <= 1e-10


@pytest.mark.parametrize("name, M", [
    (name, M) for M in (24, 96)
    for name in ("p_cos", "p_mixed", "p_even_electric", "p_ab", "flux_0", "flux_half")
] + [("p_mixed", 320), ("p_even_electric", 320)])
def test_band_route_matches_dense_eigh(request, name, M):
    p = {"flux_0": lambda: _flux(0.0), "flux_half": lambda: _flux(0.5)}.get(
        name, lambda: request.getfixturevalue(name))()
    dec = eigensolve(assemble_matrix(p, M), p)
    _assert_matches_dense_eigh(dec, p, M)
    if M == 320:   # every group held in its first window
        assert (dec.window_max, dec.window_widened) == (galerkin.WINDOW_MODES, 0)


def test_strongly_coupled_eigenvectors_widen_their_windows():
    # A = 0.3 + 6 cos(theta): the gauge factor e^{-i P} spreads every
    # eigenvector over about 2 x 6 + 30 modes per lump, past the first window
    p = build_potential(a_coeffs=[0.5, 0.4, 0.5], A_coeffs=[3.0, 0.3, 3.0])
    dec = eigensolve(assemble_matrix(p, 96), p)
    assert dec.window_widened > 0
    assert dec.window_max > galerkin.WINDOW_MODES
    _assert_matches_dense_eigh(dec, p, 96)


def test_a_group_larger_than_a_window_is_solved_whole(p_mixed):
    # eigenvalues 1 + O(1e-7): one group of all 201, wider than any window but the whole
    n, b = 201, 2
    rng = np.random.default_rng(5)
    ab = np.zeros((2 * b + 1, n), dtype=complex)
    ab[b] = 1.0 + 1e-7 * rng.standard_normal(n)
    for m in range(1, b + 1):
        ab[b + m, :n - m] = 1e-8 * (rng.standard_normal(n - m) + 1j * rng.standard_normal(n - m))
        ab[b - m, m:] = ab[b + m, :n - m].conj()
    dec = eigensolve(ab, p_mixed)
    assert (dec.window_max, dec.window_widened) == (n, 1)
    H = np.zeros((n, n), dtype=complex)
    for m in range(-b, b + 1):
        H += np.diag(ab[b + m, max(0, -m):n - max(0, m)], -m)
    assert np.all(np.abs(dec.eigenvalues - np.linalg.eigvalsh(H)) <= 1e-12)
    U = dec.coeffs
    assert np.max(np.abs(U.conj().T @ U - np.eye(n))) <= 1e-13
    assert np.max(np.linalg.norm(H @ U - U * dec.eigenvalues, axis=0)) <= 1e-13


def test_eigensolve_refuses_a_non_finite_entry(p_mixed):
    ab = assemble_matrix(p_mixed, 8)
    ab[0, -1] = np.nan
    with pytest.raises(InvalidMatrix):
        eigensolve(ab, p_mixed)


def test_eigensolve_refuses_a_band_wider_than_the_matrix(p_mixed):
    with pytest.raises(InvalidInput):
        eigensolve(np.eye(7, 3, dtype=complex), p_mixed)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_electric_potentials_are_orthonormal_at_m160(alpha):
    # near-degenerate sector pairs need the grouped Rayleigh-Ritz step
    p = build_potential(a_coeffs=[1.0, 0.0, 0.0, 0.0, 1.0], A_coeffs=[alpha])
    dec = compute_spectrum(p, 160)
    U = dec.coeffs
    assert np.max(np.abs(U.conj().T @ U - np.eye(U.shape[1]))) <= 1e-13


def test_error_budget_holds_against_the_gram_matrix(monkeypatch, p_even_electric):
    # one step leaves visibly non-orthogonal vectors: the bound must still cover them
    bounds = []
    for steps in (galerkin.INVERSE_STEPS, 1):
        monkeypatch.setattr(galerkin, "INVERSE_STEPS", steps)
        dec = compute_spectrum(p_even_electric, 48)
        H = dense_matrix(p_even_electric, 48)
        H = 0.5 * (H + H.conj().T)
        U, mu = dec.coeffs, dec.eigenvalues
        res = np.linalg.norm(H @ U - U * mu, axis=0)
        assert dec.residual_max == pytest.approx(float(np.max(res)), rel=1e-3)
        inner = eigensolve(assemble_matrix(p_even_electric, 48), p_even_electric)
        assert np.all(inner.radius >= 2.0 * res)     # the in-band enclosure holds the residual
        starts, ends = galerkin._groups(mu)
        group = np.repeat(np.arange(starts.size), ends - starts)
        gram = np.abs(U.conj().T @ U - np.eye(mu.size))
        across = group[:, None] != group[None, :]
        assert np.max(gram[across]) <= 2.0 * dec.angle_bound
        assert np.max(gram[~across]) <= 1e-13
        bounds.append(dec.angle_bound)
    assert bounds[1] > 100.0 * bounds[0]


def test_unconverged_inverse_iteration_is_refused(monkeypatch, p_mixed):
    monkeypatch.setattr(galerkin, "INVERSE_STEPS", 0)   # start vectors, unsolved
    with pytest.raises(NoConvergence):
        compute_spectrum(p_mixed, 24)


def test_a_diagonal_matrix_gets_unit_vectors(p_ab):
    dec = compute_spectrum(_flux(0.5), 16)   # every level but one is a double
    assert np.array_equal(np.abs(dec.coeffs) ** 2, np.abs(dec.coeffs))
    assert (dec.residual_max, dec.angle_bound) == (0.0, 0.0)


def test_pair_modes_product_matches_one_matvec_per_index(dec_mixed64):
    # the reference: one n x n matvec per j, as the pairing was first written
    p = dec_mixed64.potential
    base = galerkin._gauge_profile_coeffs(p, dec_mixed64.M)
    n = base.size
    js = list(range(-40, 41))
    for j, pr in zip(js, pair_modes(dec_mixed64, js)):
        shift = j - p.circulation_floor
        mv = np.zeros(n, dtype=complex)
        lo, hi = max(0, shift), min(n, n + shift)
        if lo < hi:
            mv[lo:hi] = base[lo - shift:hi - shift]
        ov = np.abs(dec_mixed64.coeffs.conj().T @ mv)
        assert pr.k == int(np.argmax(ov))
        assert pr.overlap == pytest.approx(float(ov[pr.k]), rel=1e-13)


def test_sampling_chosen_columns_matches_sampling_all(dec_mixed64):
    cols = [7, 3, 60, 61]
    assert np.array_equal(dec_mixed64.eigenfunctions_on_grid(512, cols),
                          dec_mixed64.eigenfunctions_on_grid(512)[:, cols])
