"""Correction-equation fixed point and paired eigenvalue asymptotics."""

import math

import numpy as np
import pytest

from emschro.errors import InvalidInput, NoConvergence, ResonantParameter
from emschro.galerkin import subspace_angle
from emschro.potentials import build_potential, constant_potential, theta_grid
from emschro.wkb import (
    asymptotic_residuals,
    discover_lambda_eff,
    eigenpair_coeff_vector,
    fixed_point,
    half_integer_distance,
    solve_eigenvalue,
)


def _samples(sol):
    """W on the solution grid, rebuilt from its Fourier coefficients."""
    return np.fft.ifft(sol.W_coeffs) * sol.grid_n


def test_fixed_point_solves_the_correction_equation(p_cos):
    lam = 150.3
    sol = fixed_point(p_cos, lam)
    assert sol.residual_sup < 1e-10
    # independent residual: -i W' + 2 s W + W^2 = mean(a) - a, pseudo-spectrally
    n = sol.grid_n
    th = theta_grid(n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    W = _samples(sol)
    Wp = np.fft.ifft(1j * k * np.fft.fft(W))
    lhs = -1j * Wp + 2.0 * sol.s * W + W * W
    rhs = sol.a_mean - p_cos.a_values(th)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_fixed_point_correction_is_small(p_cos):
    # W = O(1/s): doubling s roughly halves the sup norm
    s1 = fixed_point(p_cos, 10.2 ** 2 + p_cos.a_mean.real)
    s2 = fixed_point(p_cos, 20.4 ** 2 + p_cos.a_mean.real)
    r = np.max(np.abs(_samples(s2))) / np.max(np.abs(_samples(s1)))
    assert 0.3 < r < 0.7


def test_fixed_point_rejects_resonant_parameters(p_cos):
    with pytest.raises(ResonantParameter):
        fixed_point(p_cos, p_cos.a_mean.real - 1.0)  # below the mean
    with pytest.raises(ResonantParameter):
        fixed_point(p_cos, p_cos.a_mean.real + 12.25)  # s = 3.5 half-integer


def test_half_integer_distance():
    # resonances sit on the full lattice of half-integers, integers included
    assert half_integer_distance(3.5) == pytest.approx(0.0, abs=1e-14)
    assert half_integer_distance(3.0) == pytest.approx(0.0, abs=1e-14)
    assert half_integer_distance(10.2) == pytest.approx(0.2, abs=1e-12)
    assert half_integer_distance(7.75) == pytest.approx(0.25, abs=1e-12)


def test_solve_eigenvalue_matches_galerkin(p_cos, dec_cos64):
    for j, branch in [(10, "plus"), (10, "minus"), (17, "plus")]:
        pair = solve_eigenvalue(p_cos, j, branch)
        i = int(np.argmin(np.abs(dec_cos64.eigenvalues - pair.lam)))
        assert abs(dec_cos64.eigenvalues[i] - pair.lam) < 1e-9
        vec = eigenpair_coeff_vector(pair, 64)[:, None]
        assert subspace_angle(vec, dec_cos64.coeffs[:, i:i + 1]) < 1e-6
        assert pair.fp_residual < 1e-10 * math.sqrt(pair.lam)


def test_branches_split_by_circulation_sign(p_cos):
    plus = solve_eigenvalue(p_cos, 12, "plus")
    minus = solve_eigenvalue(p_cos, 12, "minus")
    # branch eigenvalues sit near (j + Abar)^2 and (j - Abar)^2
    gap = plus.lam - minus.lam
    assert gap == pytest.approx(4 * 12 * 0.3, rel=0.05)


def test_solve_eigenvalue_validates_input(p_cos):
    with pytest.raises(InvalidInput):
        solve_eigenvalue(p_cos, 0, "plus")
    with pytest.raises(InvalidInput):
        solve_eigenvalue(p_cos, 8, "up")


def test_resonant_circulation_is_rejected():
    p_int = build_potential(a_coeffs=[0.5, 0.0, 0.5], A_coeffs=[0.0])
    with pytest.raises(ResonantParameter):
        solve_eigenvalue(p_int, 8, "plus")


def test_residual_table_frozen_ranges(dec_cos64):
    table = asymptotic_residuals(dec_cos64, range(8, 25))
    scaled_eig = np.array([r.scaled_eig for r in table.rows])
    linear_sup = np.array([r.j * r.sup_R for r in table.rows])
    assert scaled_eig.min() > 0.10 and scaled_eig.max() < 0.14
    assert linear_sup.min() > 0.40 and linear_sup.max() < 0.60
    assert table.eig_slope < -1.8
    assert -1.2 < table.fun_slope < -0.8  # plain remainder decays like 1/j
    assert not any(r.flagged for r in table.rows)
    assert 1 <= table.ell_eff <= 8


def test_residual_table_overlap_is_near_unity(dec_mixed64):
    table = asymptotic_residuals(dec_mixed64, range(8, 17))
    for r in table.rows:
        assert r.overlap > 0.999


def test_discover_lambda_eff_contracts(p_cos):
    lam = discover_lambda_eff(p_cos)
    sol = fixed_point(p_cos, lam)
    assert sol.residual_sup < 1e-10
    with pytest.raises((ResonantParameter, NoConvergence)):
        fixed_point(p_cos, p_cos.a_mean.real + 0.01)


def test_flux_line_correction_vanishes():
    p = constant_potential(0.3)
    sol = fixed_point(p, 80.0)
    assert np.max(np.abs(_samples(sol))) < 1e-13
    pair = solve_eigenvalue(p, 9, "plus")
    assert pair.lam == pytest.approx((9 + 0.3) ** 2, abs=1e-12)
