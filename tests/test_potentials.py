"""Potential construction, circulation bookkeeping, gauge transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emschro.errors import InvalidInput, ResonantParameter
from emschro.potentials import (
    ResonanceClass,
    build_potential,
    classify_resonance,
    coeffs_from_samples,
    constant_potential,
    require_non_resonant,
    theta_grid,
)


def test_coefficient_evaluation_matches_closed_form(p_cos):
    th = theta_grid(128)
    assert np.allclose(p_cos.a_values(th), np.cos(th), atol=1e-13)
    assert np.allclose(p_cos.A_values(th), 0.3, atol=1e-13)


def test_mixed_potential_evaluation(p_mixed):
    th = theta_grid(256)
    a = np.cos(th) + 0.5 * np.sin(2 * th)
    A = 0.3 + 0.2 * np.cos(th)
    assert np.allclose(p_mixed.a_values(th), a, atol=1e-13)
    assert np.allclose(p_mixed.A_values(th), A, atol=1e-13)


def test_sample_route_matches_coefficient_route(p_mixed):
    th = theta_grid(256)
    p = build_potential(
        a_samples=np.cos(th) + 0.5 * np.sin(2 * th),
        A_samples=0.3 + 0.2 * np.cos(th),
        n_modes=2,
    )
    assert np.allclose(p.a_coeffs, p_mixed.a_coeffs, atol=1e-13)
    fine = theta_grid(1024)
    assert np.allclose(p.A_values(fine), p_mixed.A_values(fine), atol=1e-13)


def test_build_rejects_ambiguous_or_missing_input():
    with pytest.raises(InvalidInput):
        build_potential(a_coeffs=[0.0], a_samples=[0.0] * 8, A_coeffs=[0.0])
    with pytest.raises(InvalidInput):
        build_potential(a_coeffs=[0.0])
    with pytest.raises(InvalidInput):
        build_potential(a_samples=[0.0] * 8, A_coeffs=[0.0])  # n_modes missing
    with pytest.raises(InvalidInput):
        build_potential(a_coeffs=[0.5, 0.5], A_coeffs=[0.0])  # even length
    with pytest.raises(InvalidInput):
        coeffs_from_samples([1.0, 2.0, 3.0], 2)  # too few samples


def test_build_rejects_complex_valued_fields():
    # coefficients must be conjugate-symmetric so the field is real
    with pytest.raises(InvalidInput):
        build_potential(a_coeffs=[0.5j, 0.0, 0.5j], A_coeffs=[0.0])


def test_circulation_reduction():
    for alpha, red, floor in [(0.3, 0.3, 0), (1.3, 0.3, 1), (-0.25, -0.25, 0),
                              (0.5, -0.5, 1), (-0.5, -0.5, 0), (2.0, 0.0, 2)]:
        p = constant_potential(alpha)
        assert p.circulation == pytest.approx(alpha, abs=1e-14)
        assert p.reduced_circulation == pytest.approx(red, abs=1e-14)
        assert p.circulation_floor == floor
        assert -0.5 <= p.reduced_circulation < 0.5


def test_resonance_classes():
    assert classify_resonance(constant_potential(0.3)) is ResonanceClass.NON_RESONANT
    assert classify_resonance(constant_potential(0.0)) is ResonanceClass.INTEGER
    assert classify_resonance(constant_potential(2.0)) is ResonanceClass.INTEGER
    assert classify_resonance(constant_potential(0.5)) is ResonanceClass.HALF_INTEGER
    assert classify_resonance(constant_potential(-0.5)) is ResonanceClass.HALF_INTEGER
    # tolerance window around the resonant set
    assert classify_resonance(constant_potential(1e-10)) is ResonanceClass.INTEGER
    assert classify_resonance(constant_potential(1e-8)) is ResonanceClass.NON_RESONANT
    with pytest.raises(ResonantParameter):
        require_non_resonant(constant_potential(1.0))


def test_integral_of_A_endpoints(p_mixed):
    # antiderivative vanishes at 0 and carries 2 pi circulation over a turn
    val = p_mixed.integral_A(np.array([0.0, 2 * np.pi]))
    assert val[0] == pytest.approx(0.0, abs=1e-14)
    assert val[1] == pytest.approx(2 * np.pi * p_mixed.circulation, abs=1e-12)


def test_integral_of_A_derivative(p_mixed):
    th = theta_grid(4096)
    F = p_mixed.integral_A(th)
    dF = np.gradient(F, th)
    assert np.allclose(dF[2:-2], p_mixed.A_values(th)[2:-2], atol=1e-5)


def test_gauge_transform_round_trip_and_isometry(p_mixed, rng):
    # circulation 2.3, so the frame's floor L = 2 enters
    p = build_potential(a_coeffs=p_mixed.a_coeffs, A_coeffs=p_mixed.A_coeffs + [0.0, 2.0, 0.0])
    assert p.circulation_floor == 2
    th = theta_grid(512)
    g = p.gauge(th)
    phi = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    assert np.allclose(np.conj(g) * (g * phi), phi, atol=1e-12)
    assert np.allclose(np.abs(g), 1.0, atol=1e-14)
    # log-derivative i (L + A)
    dense = theta_grid(4096)
    dphase = np.gradient(np.unwrap(np.angle(p.gauge(dense))), dense)
    assert np.allclose(dphase[2:-2], 2.0 + p.A_values(dense)[2:-2], atol=1e-5)
    # on a flux line it takes the mode e^{i(j - L) theta} of eigenvalue (j + Abar)^2
    # exactly to the model mode e^{i(Atil + j) theta}
    flux = constant_potential(2.3)
    for j in (-4, 0, 3):
        mode = np.exp(1j * (j - 2) * th)
        assert np.allclose(flux.gauge(th) * mode, np.exp(1j * (2.3 + j) * th), atol=1e-12)
        assert (j - 2 + 2.3) ** 2 == pytest.approx((j + flux.reduced_circulation) ** 2)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(-3.0, 3.0, allow_nan=False), shift=st.integers(-3, 3))
def test_reduced_circulation_is_shift_invariant(alpha, shift):
    p1 = constant_potential(alpha)
    p2 = constant_potential(alpha + shift)
    assert p2.reduced_circulation == pytest.approx(p1.reduced_circulation, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       st.floats(-0.45, 0.45))
def test_mean_values_match_samples(coeffs, alpha):
    c1, c0, _ = coeffs
    p = build_potential(a_coeffs=[complex(c1, 0.0), c0, complex(c1, 0.0)],
                        A_coeffs=[alpha])
    th = theta_grid(256)
    assert p.a_mean == pytest.approx(np.mean(p.a_values(th)), abs=1e-12)
    assert p.circulation == pytest.approx(np.mean(p.A_values(th)), abs=1e-12)


def test_theta_grid_contract():
    th = theta_grid(64)
    assert th.size == 64
    assert th[0] == 0.0
    assert th[-1] < 2 * np.pi
    with pytest.raises(InvalidInput):
        theta_grid(3)
