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
    with pytest.raises(InvalidInput, match="n_modes"):
        build_potential(a_coeffs=[0.0], A_coeffs=[0.3], n_modes=2)  # no samples


def test_storage_drops_exactly_zero_outer_pairs_only():
    padded = build_potential(a_coeffs=[0, 0, 0.5, 1.0, 0.5, 0, 0], A_coeffs=[0, 0.3, 0])
    assert np.array_equal(padded.a_coeffs, [0.5, 1.0, 0.5])
    assert np.array_equal(padded.A_coeffs, [0.3])
    assert (padded.a_bandwidth, padded.A_bandwidth, padded.bandwidth) == (1, 0, 1)
    # mode 0 stays even when it is zero; an inner zero pair stays
    zero = build_potential(a_coeffs=[0.0] * 5, A_coeffs=[0.5, 0, 0.1, 0, 0.5])
    assert np.array_equal(zero.a_coeffs, [0.0]) and zero.A_bandwidth == 2
    # a constant on 8 samples has exact zero harmonics; on 7 its round-off stays
    assert build_potential(a_samples=[0.0] * 8, A_samples=[0.3] * 8, n_modes=3).bandwidth == 0
    seven = build_potential(a_samples=[0.0] * 7, A_samples=[0.3] * 7, n_modes=3)
    assert seven.A_bandwidth == 3 and np.max(np.abs(seven.A_coeffs[:3])) < 1e-15


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


# -- coefficient norm bounds -------------------------------------------------------


def _real_field(mean, harmonics):
    """Coefficients of mean + sum_m (c_m e^{i m theta} + conj), modes -M..M."""
    pos = [complex(re, im) for re, im in harmonics]
    return [c.conjugate() for c in reversed(pos)] + [complex(mean)] + pos


_harmonics = st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                      min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(a0=st.floats(-3.0, 3.0), a_h=_harmonics, A0=st.floats(-3.0, 3.0), A_h=_harmonics)
def test_norm_bounds_enclose_the_sampled_extremes(a0, a_h, A0, A_h):
    p = build_potential(a_coeffs=_real_field(a0, a_h), A_coeffs=_real_field(A0, A_h))
    floor, sup_a, sup_A = p.norm_bounds
    th = theta_grid(2 ** 14)
    a, A = p.a_values(th), p.A_values(th)
    # a few ulps of slack for the grid evaluation's own rounding, where a bound is attained
    eps = 1e-13 * (1.0 + sup_a + sup_A)
    assert floor <= np.min(a) + eps
    assert sup_a >= np.max(np.abs(a)) - eps
    assert sup_A >= np.max(np.abs(A)) - eps


def test_norm_floor_is_at_or_below_a_minimum_between_grid_points():
    # a = 1 + cos(theta + pi/4096) has min a = 0 off every power-of-two grid
    c = 0.5 * np.exp(1j * np.pi / 4096)
    p = build_potential(a_coeffs=[np.conj(c), 1.0, c], A_coeffs=[0.3])
    floor, sup_a, sup_A = p.norm_bounds
    assert floor <= 0.0
    assert sup_a == pytest.approx(2.0, abs=1e-15)
    assert sup_A == pytest.approx(0.3, abs=1e-15)


def test_constant_pair_bounds_are_its_values():
    assert constant_potential(-0.7).norm_bounds == (0.0, 0.0, 0.7)
