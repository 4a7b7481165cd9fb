"""Purely electric sector: parity splitting, half-circulation pairs, doubling."""

import numpy as np
import pytest

from emschro import electric
from emschro.electric import (
    even_cosine_coefficients,
    half_integer_table,
    solve_pair,
    splitting_table,
)
from emschro.errors import InvalidInput, NoConvergence, SymmetryViolation
from emschro.galerkin import compute_spectrum
from emschro.potentials import AngularPotential, build_potential

# characteristic-value gap of -u'' + 2cos(2x)u at the first pair, 30-digit reference
MATHIEU_FIRST_GAP = 1.9693568895064586


def doubled_potential(p: AngularPotential) -> AngularPotential:
    """The potential 4 a(2 theta) with no magnetic part."""
    ac_in = p.a_coeffs
    B = p.a_bandwidth
    out = np.zeros(4 * B + 1, dtype=complex)
    for m in range(-B, B + 1):
        out[2 * B + 2 * m] = 4.0 * ac_in[B + m]
    return AngularPotential(out, np.zeros(1, dtype=complex))


def doubling_check(p: AngularPotential, M: int, count: int) -> float:
    """Spectral identity for even a: eigenvalues of -d^2 + 4 a(2 theta) equal
    4 times the union of the periodic and antiperiodic eigenvalues of -d^2 + a.

    Returns the worst absolute deviation over the first `count` eigenvalues,
    scaled by max(1, eigenvalue).
    """
    even_cosine_coefficients(p)   # validates symmetry assumptions
    p_half = AngularPotential(p.a_coeffs, np.array([0.5], dtype=complex))
    p_doubled = doubled_potential(p)
    per = compute_spectrum(p, M)
    anti = compute_spectrum(p_half, M)
    dbl = compute_spectrum(p_doubled, 2 * M)
    nmax = min(count, per.resolved_count, anti.resolved_count)
    union = 4.0 * np.sort(np.concatenate([
        per.eigenvalues[:nmax], anti.eigenvalues[:nmax]]))[:nmax]
    if dbl.resolved_count < nmax:
        nmax = dbl.resolved_count
    direct = np.asarray(dbl.eigenvalues[:nmax])
    union = union[:nmax]
    return float(np.max(np.abs(direct - union) / np.maximum(1.0, np.abs(union))))


@pytest.fixture(scope="module")
def dec_even(p_even_electric):
    return compute_spectrum(p_even_electric, 96)


def test_cosine_coefficient_extraction(p_even_electric):
    ac = even_cosine_coefficients(p_even_electric)
    assert ac[0] == pytest.approx(0.0, abs=1e-14)
    assert ac[2] == pytest.approx(2.0, abs=1e-14)
    assert np.max(np.abs(np.delete(ac, 2))) < 1e-14


def test_symmetry_guards(p_cos):
    with pytest.raises(SymmetryViolation):
        even_cosine_coefficients(p_cos)  # magnetic part present
    p_odd = build_potential(a_coeffs=[0.5j, 0.0, -0.5j], A_coeffs=[0.0])
    with pytest.raises(SymmetryViolation):
        even_cosine_coefficients(p_odd)  # sin(theta) is odd


def test_first_gap_matches_characteristic_values(dec_even):
    st = splitting_table(dec_even, [1])
    row = st.rows[0]
    assert row.splitting == pytest.approx(MATHIEU_FIRST_GAP, abs=1e-8)
    assert row.predicted_splitting == pytest.approx(2.0, abs=1e-14)
    assert row.lam_cosine > row.lam_sine


def test_predicted_splitting_vanishes_beyond_bandwidth(dec_even):
    st = splitting_table(dec_even, range(2, 12))
    for row in st.rows:
        assert row.predicted_splitting == 0.0
        assert row.match_residual < 1e-9  # two routes to the same eigenvalue


def test_splitting_decays_at_high_index(dec_even):
    st = splitting_table(dec_even, range(4, 25))
    gaps = np.array([abs(r.splitting) for r in st.rows])
    assert np.all(gaps < 1e-3)
    assert gaps[-1] < gaps[0]


def test_solve_pair_residual_and_shift(p_even_electric):
    for k, parity in [(1, "sine"), (1, "cosine"), (6, "cosine")]:
        pair = solve_pair(p_even_electric, k, parity)
        assert pair.residual_sup < 1e-9
        assert abs(pair.lam - k * k) < 1.2


def test_splitting_table_refuses_a_pair_that_misses_the_operator(
        dec_even, monkeypatch):
    monkeypatch.setattr(electric, "_operator_residual", lambda *args: 1e-6)
    with pytest.raises(NoConvergence):
        splitting_table(dec_even, [1])


def test_solve_pair_validation(p_even_electric):
    with pytest.raises(InvalidInput):
        solve_pair(p_even_electric, 0, "sine")
    with pytest.raises(InvalidInput):
        solve_pair(p_even_electric, 3, "even")


def test_half_integer_pairs_cluster():
    p_half = build_potential(a_coeffs=[1.0, 0.0, 0.0, 0.0, 1.0], A_coeffs=[0.5])
    table = half_integer_table(compute_spectrum(p_half, 96), range(4, 25))
    for r in table.rows:
        assert r.predicted == pytest.approx((r.j - 0.5) ** 2, abs=1e-12)
        assert abs(r.mu_pair[0] - r.mu_pair[1]) < 2.0 * r.residual + 1e-12
    assert table.slope < -1.0


def test_half_integer_requires_half_circulation(dec_cos64):
    with pytest.raises(InvalidInput):
        half_integer_table(dec_cos64, [4, 5])


def test_doubling_identity(p_even_electric):
    assert doubling_check(p_even_electric, 48, 40) < 1e-9
