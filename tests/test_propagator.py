"""Representation-formula evolution: closed forms, invariances, oracles."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.special import eval_genlaguerre

from emschro.errors import InsufficientResolution, InvalidInput, ResolutionError
from emschro.galerkin import compute_spectrum
from emschro.kernel import ab_eigendata, from_spectrum
from emschro import bessel, propagator
from emschro.potentials import build_potential, theta_grid
from emschro.propagator import (
    HOLDOUT_POINTS,
    S_OVERSAMPLE,
    SINC_TAPS,
    PolarField,
    _direct_integrals_at,
    _direct_sum,
    _evaluation_grid,
    _far_field_sum,
    _hankel_integrals,
    _interpolated_integrals,
    _mode_weights,
    _retained_modes,
    _source_stride,
    crank_nicolson_oracle,
    decay_profile,
    evolve,
    evolve_result,
    free_evolution,
    gaussian_ring,
    load_field,
    modal_coefficients,
    radial_bandwidth,
    relative_l2_difference,
    required_source_points,
    save_field,
)


def uniform_radii(r_max: float, n: int) -> np.ndarray:
    return (r_max / n) * np.arange(1, n + 1)


@pytest.fixture(scope="module")
def ring_m1():
    return gaussian_ring(5.0, 1.0, 2048, 12.0, n_theta=64, angular_mode=1)


@pytest.fixture(scope="module")
def data_ab():
    return ab_eigendata(0.3, 24)


def test_gaussian_ring_structure():
    u0 = gaussian_ring(5.0, 1.0, 256, 12.0, n_theta=32, angular_mode=2)
    assert u0.values.shape == (256, 32)
    assert u0.r.shape == (256,)
    assert u0.t == 0.0
    th = u0.thetas()
    radial = np.exp(-((u0.r - 5.0) ** 2))
    assert np.allclose(u0.values, np.outer(radial, np.exp(2j * th)), atol=1e-14)
    assert u0.sup_norm() == pytest.approx(np.max(radial), abs=1e-12)


def test_polar_field_validation():
    vals = np.zeros((8, 16), complex)
    with pytest.raises(InvalidInput):
        PolarField(np.array([0.1, 0.2, 0.4]), np.zeros((3, 8), complex), 0.0)
    with pytest.raises(InvalidInput):
        PolarField(uniform_radii(1.0, 4), vals, 0.0)


def test_norms_against_direct_quadrature():
    u0 = gaussian_ring(3.0, 0.7, 512, 8.0, n_theta=48)
    dr = u0.r[1] - u0.r[0]
    dth = 2 * np.pi / 48
    w = np.abs(u0.values) ** 2 * u0.r[:, None]
    assert u0.l2_norm() == pytest.approx(np.sqrt(np.sum(w) * dr * dth), rel=1e-12)
    assert u0.l1_norm() == pytest.approx(
        np.sum(np.abs(u0.values) * u0.r[:, None]) * dr * dth, rel=1e-12)


def test_snapshot_round_trip(tmp_path, ring_m1):
    path = tmp_path / "field.bin"
    moved = dataclasses.replace(ring_m1, t=1.25)
    save_field(str(path), moved)
    back = load_field(str(path))
    assert back.t == 1.25
    assert np.array_equal(back.r, moved.r)
    assert np.array_equal(back.values, moved.values)


def test_load_field_refuses_a_header_that_disagrees_with_the_file(tmp_path, ring_m1):
    path = tmp_path / "field.bin"
    save_field(str(path), ring_m1)
    whole = path.read_bytes()
    path.write_bytes(whole[:-8])                      # truncated snapshot
    with pytest.raises(InvalidInput):
        load_field(str(path))
    header = propagator.SNAPSHOT_MAGIC + np.array([10 ** 12, 64], dtype="<i8").tobytes()
    path.write_bytes(header + whole[len(header):])    # n_r = 1e12: 7.3 TiB of radii alone
    with pytest.raises(InvalidInput):
        load_field(str(path))
    path.write_bytes(whole[:12])                      # header cut inside the dims
    with pytest.raises(InvalidInput):
        load_field(str(path))


def test_radial_bandwidth_of_ring(ring_m1):
    k = radial_bandwidth(ring_m1)
    assert 4.0 < k < 6.0  # unit-width Gaussian ring, measured 4.89


def test_modal_coefficients_pick_out_the_ring_mode(ring_m1, data_ab):
    coeffs = modal_coefficients(data_ab, ring_m1)
    norms = np.linalg.norm(coeffs, axis=1)
    top = int(np.argmax(norms))
    assert np.isclose(data_ab.beta[top], abs(1 + 0.3))
    others = np.delete(norms, top)
    assert np.max(others) < 1e-12 * norms[top]
    radial = np.exp(-((ring_m1.r - 5.0) ** 2))
    assert np.allclose(coeffs[top], np.sqrt(2 * np.pi) * radial, atol=1e-12)


def test_free_evolution_matches_gaussian_closed_form():
    a = 2.0
    n, r_max, t = 2048, 16.0, 0.5
    r = uniform_radii(r_max, n)
    u0 = PolarField(r, np.outer(np.exp(-((r / a) ** 2)),
                                np.ones(32, complex)), 0.0)
    out = free_evolution(u0, t, r_out=r)
    sigma = a * a + 4j * t
    exact = np.outer((a * a / sigma) * np.exp(-(r ** 2) / sigma),
                     np.ones(32, complex))
    err = np.linalg.norm(out.values - exact) / np.linalg.norm(exact)
    assert err < 1e-4


def test_free_evolution_matches_degree_one_closed_form():
    a = 2.0
    n, r_max = 2048, 16.0
    r = uniform_radii(r_max, n)
    th = 2 * np.pi * np.arange(32) / 32
    u0 = PolarField(r, np.outer(r * np.exp(-((r / a) ** 2)), np.exp(1j * th)), 0.0)
    # at t < 0, sigma = a^2 + 4it is the conjugate of its value at |t|
    for t in (0.5, -0.5):
        out = free_evolution(u0, t, r_out=r)
        sigma = a * a + 4j * t
        exact = np.outer((a * a / sigma) ** 2 * r * np.exp(-(r ** 2) / sigma),
                         np.exp(1j * th))
        err = np.linalg.norm(out.values - exact) / np.linalg.norm(exact)
        assert err < 1e-6


def test_evolve_at_time_zero_is_identity(ring_m1, data_ab):
    out = evolve(data_ab, ring_m1, 0.0)
    assert out.t == 0.0
    assert np.array_equal(out.values, ring_m1.values)


def test_zero_data_stays_zero(ring_m1, data_ab):
    zero = dataclasses.replace(ring_m1, values=np.zeros_like(ring_m1.values))
    out = evolve(data_ab, zero, 0.8)
    assert np.all(out.values == 0)


def test_round_trip_through_negative_time(ring_m1, data_ab):
    mid_grid = uniform_radii(26.0, 6144)
    mid = evolve(data_ab, ring_m1, 0.5, r_out=mid_grid)
    back = evolve(data_ab, mid, -0.5, r_out=ring_m1.r)
    num = np.linalg.norm(back.values - ring_m1.values)
    den = np.linalg.norm(ring_m1.values)
    assert num / den < 1e-6


def test_group_property(ring_m1, data_ab):
    mid_grid = uniform_radii(24.0, 4096)
    one = evolve(data_ab, ring_m1, 0.7, r_out=mid_grid)
    two = evolve(data_ab, one, 0.9, r_out=mid_grid)
    direct = evolve(data_ab, ring_m1, 1.6, r_out=mid_grid)
    err = relative_l2_difference(two, direct)
    assert err < 1e-8


def test_parabolic_scaling_covariance(ring_m1, data_ab):
    lam = 1.5
    t = 0.4
    r_mid = uniform_radii(20.0, 4096)
    base = evolve(data_ab, ring_m1, t, r_out=r_mid)
    scaled_u0 = PolarField(lam * ring_m1.r, ring_m1.values, 0.0)
    scaled = evolve(data_ab, scaled_u0, lam * lam * t, r_out=lam * r_mid)
    err = np.linalg.norm(scaled.values - base.values) / np.linalg.norm(base.values)
    assert err < 1e-10


def test_l2_norm_is_conserved(ring_m1, data_ab):
    res = evolve_result(data_ab, ring_m1, 0.5)
    assert res.l2_norm == pytest.approx(ring_m1.l2_norm(), rel=1e-8)
    assert res.decay_functional == pytest.approx(
        0.5 * res.sup_norm / ring_m1.l1_norm(), rel=1e-12)


@pytest.fixture(scope="module")
def ring_3886():
    """The decay benchmark's ring: 3886 points is the rule's count at t = 0.1."""
    return gaussian_ring(5.0, 1.0, 3886, 12.0, n_theta=64, angular_mode=1)


def _stride_inputs(data, u0, t):
    s = _evaluation_grid(u0, t, radial_bandwidth(u0))
    a = modal_coefficients(data, u0)
    keep = _retained_modes(data, a, u0)
    return a[keep], s, data.beta[keep]


def test_source_stride_follows_the_resolution_rule(ring_3886, data_ab):
    r = ring_3886.r
    a, s, _ = _stride_inputs(data_ab, ring_3886, 0.1)
    assert _source_stride(a, r, float(s.max()), 0.1) == 1
    a, s, _ = _stride_inputs(data_ab, ring_3886, 1.0)
    m = _source_stride(a, r, float(s.max()), 1.0)
    assert m > 1
    sub = r[m - 1::m]
    assert sub.size >= required_source_points(float(sub[-1]), float(s.max()), 1.0)


def test_decimated_hankel_rows_match_the_full_grid(ring_3886, data_ab):
    t = 1.0
    r = ring_3886.r
    a, s, betas = _stride_inputs(data_ab, ring_3886, t)
    m = _source_stride(a, r, float(s.max()), t)
    full = _hankel_integrals(betas, a, r, t, s)
    sub = _hankel_integrals(betas, a[:, m - 1::m], r[m - 1::m], t, s)
    assert np.max(np.abs(sub - full)) <= 1e-10 * np.max(np.abs(full))


def test_spectral_guard_keeps_fast_profiles_whole(ring_3886, data_ab):
    t = 1.0
    r = ring_3886.r
    a, s, _ = _stride_inputs(data_ab, ring_3886, t)
    # above the stride-2 Nyquist pi / 2dr, below the grid's own pi / dr
    k = 0.75 * np.pi / (r[1] - r[0])
    assert _source_stride(a, r, float(s.max()), t) > 1
    assert _source_stride(a * np.cos(k * r), r, float(s.max()), t) == 1


def test_weak_rows_do_not_veto_decimation(ring_3886, data_ab):
    t = 1.0
    r = ring_3886.r
    a, s, _ = _stride_inputs(data_ab, ring_3886, t)
    # a second row at 1e-7 of the first, with round-off-sized content above
    # the stride-2 Nyquist: 1e-9 of its own norm, 1e-16 of the first row's
    k = 0.75 * np.pi / (r[1] - r[0])
    two = np.vstack([a[0], 1e-7 * a[0] * (1.0 + 1e-9 * np.cos(k * r))])
    m = _source_stride(a, r, float(s.max()), t)
    assert m > 1
    assert _source_stride(two, r, float(s.max()), t) == m


def test_interpolated_integrals_match_direct_evaluation():
    t = 1.0
    u0 = gaussian_ring(5.0, 1.0, 1024, 12.0, n_theta=4)
    betas = np.array([0.0, 0.3, 1.0, 3.3, 4.55, 9.25])
    a = np.tile(u0.values[:, 0], (betas.size, 1))
    rng = np.random.default_rng(7)
    for r_out in (np.linspace(0.0, 16.0, 501), np.sort(rng.uniform(0.0, 18.0, 400))):
        s = r_out / (2.0 * t)
        r_src, a_sub, interpolated = _interpolated_integrals(betas, a, u0.r, t, s)
        direct = _hankel_integrals(betas, a_sub, r_src, t, s)
        err = np.max(np.abs(interpolated - direct), axis=1)
        assert np.all(err <= 1e-11 * np.max(np.abs(direct), axis=1))


def _ring_weights(t: float, half_offset: bool = False):
    """(radii, weights, s) of the decay benchmark's ring at t, on the automatic
    s grid or on the interpolation's half-offset grid."""
    u0 = gaussian_ring(5.0, 1.0, 3886, 12.0, n_theta=4)
    s = _evaluation_grid(u0, t, radial_bandwidth(u0))
    if half_offset:
        h = np.pi / (S_OVERSAMPLE * u0.r[-1])
        s = h * (np.arange(int(np.ceil(s[-1] / h)) + SINC_TAPS + 1) + 0.5)
    (_, rs, w), = _mode_weights(u0.values[:, :1].T, u0.r, t)
    return rs, w, s


@pytest.mark.parametrize("half_offset", [False, True])
@pytest.mark.parametrize("beta", [0.0, 0.28, 0.5, 1.36, 7.5, 16.4])
def test_far_field_transform_matches_the_direct_sum(beta, half_offset):
    # integer, R at its floor (half-integer) and the largest order with a finite R
    rs, w, s = _ring_weights(0.1, half_offset)
    fast = _far_field_sum(beta, w, rs, s)
    assert fast is not None
    direct = _direct_sum(beta, w, rs, s)
    assert np.max(np.abs(fast - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_direct_sum_calls_stay_within_the_chunk(monkeypatch):
    rs, w, s = _ring_weights(0.1)
    sizes = []
    real = bessel.j_grid

    def spy(nu, x):
        sizes.append(x.size)
        return real(nu, x)

    monkeypatch.setattr(bessel, "j_grid", spy)
    assert _far_field_sum(1.3, w, rs, s) is not None
    assert len(sizes) > 1 and max(sizes) <= propagator.HANKEL_CHUNK * rs.size
    # s outside every block gets 0
    got = _direct_sum(1.3, w, rs, s, [(10, 500, rs.size // 3), (700, 701, rs.size)])
    inside = np.zeros(s.size, dtype=bool)
    inside[10:500] = inside[700] = True
    assert not np.any(got[~inside]) and np.all(got[inside])


def test_order_without_a_switch_radius_goes_direct():
    beta = 16.6
    assert np.isinf(bessel.asymptotic_switch_radius(beta))
    rs, w, s = _ring_weights(0.1)
    assert _far_field_sum(beta, w, rs, s) is None


def test_far_field_holdout_catches_a_wrong_phase(monkeypatch):
    t = 0.1
    u0 = gaussian_ring(5.0, 1.0, 3886, 12.0, n_theta=4)
    s = _evaluation_grid(u0, t, radial_bandwidth(u0))
    betas, a = np.array([0.28]), u0.values[:, :1].T
    rs, w, _ = _ring_weights(t)
    assert _far_field_sum(0.28, w, rs, s) is not None
    real = propagator._chirp_z
    monkeypatch.setattr(propagator, "_chirp_z",
                        lambda *args: real(*args) * np.exp(1e-3j))
    assert _far_field_sum(0.28, w, rs, s) is None
    assert np.array_equal(_hankel_integrals(betas, a, u0.r, t, s),
                          _direct_integrals_at(betas, a, u0.r, t, s))


@pytest.mark.parametrize("perturbed", ["r", "s"])
def test_grid_off_its_line_goes_direct(perturbed):
    # every other point moved by 1e-10 of a step: uniform to `_check_uniform`,
    # not affine to round-off
    t = 0.1
    u0 = gaussian_ring(5.0, 1.0, 3886, 12.0, n_theta=4)
    r, s = u0.r, _evaluation_grid(u0, t, radial_bandwidth(u0))
    if perturbed == "r":
        r = r + 1e-10 * (r[1] - r[0]) * (np.arange(r.size) % 2)
    else:
        s = s + 1e-10 * (s[1] - s[0]) * (np.arange(s.size) % 2)
    propagator._check_uniform(r)
    propagator._check_uniform(s)
    betas, a = np.array([0.28]), u0.values[:, :1].T
    (_, rs, w), = _mode_weights(a, r, t)
    assert _far_field_sum(0.28, w, rs, s) is None
    assert np.array_equal(_hankel_integrals(betas, a, r, t, s),
                          _direct_integrals_at(betas, a, r, t, s))


def _spy_on_j_grid(monkeypatch):
    """Argument arrays of every `bessel.j_grid` call: the lattice route passes
    h (0 .. K), 1-D; the pairwise route passes the outer product s x r', 2-D."""
    args = []
    real = bessel.j_grid

    def spy(nu, x):
        args.append(np.asarray(x))
        return real(nu, x)

    monkeypatch.setattr(bessel, "j_grid", spy)
    return args


def _near_blocks(monkeypatch, beta, w, rs, s):
    """The near-field blocks `_far_field_sum` hands on, and its result."""
    seen = []
    real = propagator._near_sum

    def spy(*args):
        seen.append(args[-1])
        return real(*args)

    monkeypatch.setattr(propagator, "_near_sum", spy)
    fast = _far_field_sum(beta, w, rs, s)
    monkeypatch.setattr(propagator, "_near_sum", real)
    assert fast is not None and len(seen) == 1
    return seen[0], fast


@pytest.mark.parametrize("stride,width,half_offset", [
    (1, 1.0, False), (1, 1.0, True), (2, 1.0, False), (2, 1.0, True), (17, 1.0, False),
    (1, 0.8, False), (1, 0.8, True), (17, 0.8, False)])
def test_lattice_route_matches_the_pairwise_sum(monkeypatch, stride, width, half_offset):
    # s0 = 0 and ds/2; source sub-grids r[m-1::m]; a 0.8-wide ring's support
    # slice starts at lo > 0
    t = 0.1
    _, _, s = _ring_weights(t, half_offset)
    u0 = gaussian_ring(5.0, width, 3886, 12.0, n_theta=4)
    r = u0.r[stride - 1::stride]
    (_, rs, w), = _mode_weights(u0.values[stride - 1::stride, :1].T, r, t)
    assert (rs[0] > r[0]) == (width < 1.0)
    blocks, _ = _near_blocks(monkeypatch, 0.3, w, rs, s)
    args = _spy_on_j_grid(monkeypatch)
    near = propagator._near_sum(0.3, w, rs, s, propagator._affine(rs), propagator._affine(s),
                                blocks)
    assert len(args) == 1 and args[0].ndim == 1 and args[0][0] == 0.0
    assert args[0].size < sum((n1 - n0) * k for n0, n1, k in blocks)
    pairwise = _direct_sum(0.3, w, rs, s, blocks)
    top = np.max(np.abs(_direct_sum(0.3, w, rs, s)))
    assert np.max(np.abs(near - pairwise)) <= 1e-13 * top


@pytest.mark.parametrize("t", [0.1, 0.3])
def test_one_lattice_call_per_mode_and_pairwise_holdouts(monkeypatch, data_ab, t):
    u0 = gaussian_ring(5.0, 1.0, 3886, 12.0, n_theta=64, angular_mode=1)
    betas, a = np.array([0.3, 1.3, 2.7]), np.tile(u0.values[:, 0], (3, 1))
    n_src = u0.r.size
    args = _spy_on_j_grid(monkeypatch)
    # the automatic s grid: per mode one lattice call, then the far-field
    # holdout's FAR_HOLDOUT_POINTS s pair by pair
    _hankel_integrals(betas, a, u0.r, t, _evaluation_grid(u0, t, radial_bandwidth(u0)))
    assert [x.ndim for x in args] == [1, 2] * betas.size
    assert all(x.shape[0] == propagator.FAR_HOLDOUT_POINTS for x in args[1::2])
    assert max(x.size for x in args) <= propagator.HANKEL_CHUNK * n_src
    # a requested grid: the rule's half-offset grid as above, then the
    # interpolant's HOLDOUT_POINTS requested s pair by pair
    args.clear()
    r_out = np.linspace(0.0, 14.0, 4001)
    assert _interpolated_integrals(betas, a, u0.r, 0.3, r_out / 0.6) is not None
    assert [x.ndim for x in args] == [1, 2] * betas.size + [2] * betas.size
    assert all(x.shape[0] == HOLDOUT_POINTS for x in args[-betas.size:])


def test_radii_off_the_lattice_go_pairwise(monkeypatch):
    # r = dr (j + 0.3) is affine, but r0 / dr is neither an integer nor a half-integer
    t = 0.1
    u0 = gaussian_ring(5.0, 1.0, 3886, 12.0, n_theta=4)
    s = _evaluation_grid(u0, t, radial_bandwidth(u0))
    dr = u0.r[1] - u0.r[0]
    r = dr * (np.arange(u0.r.size) + 0.3)
    (_, rs, w), = _mode_weights(np.exp(-(r - 5.0) ** 2)[None, :], r, t)
    assert propagator._affine(rs) is not None
    assert propagator._lattice(rs, propagator._affine(rs)) is None
    args = _spy_on_j_grid(monkeypatch)
    fast = _far_field_sum(0.3, w, rs, s)
    assert fast is not None and all(x.ndim == 2 for x in args)
    direct = _direct_sum(0.3, w, rs, s)
    assert np.max(np.abs(fast - direct)) <= 1e-13 * np.max(np.abs(direct))


@pytest.mark.parametrize("case", ["last_rows", "stride_17_half_offset"])
def test_a_lattice_larger_than_its_pairs_goes_pairwise(monkeypatch, case):
    if case == "last_rows":
        # the last 10 s against every radius: the lattice would reach i_max j_max
        rs, w, s = _ring_weights(0.1)
        blocks = [(s.size - 10, s.size, rs.size)]
    else:
        # the far field's own blocks; odd i on the half-offset grid double K
        u0 = gaussian_ring(5.0, 1.0, 3886, 12.0, n_theta=4)
        _, _, s = _ring_weights(0.1, half_offset=True)
        (_, rs, w), = _mode_weights(u0.values[16::17, :1].T, u0.r[16::17], 0.1)
        blocks, _ = _near_blocks(monkeypatch, 0.3, w, rs, s)
    args = _spy_on_j_grid(monkeypatch)
    got = propagator._near_sum(0.3, w, rs, s, propagator._affine(rs), propagator._affine(s),
                               blocks)
    assert args and all(x.ndim == 2 for x in args)
    assert np.array_equal(got, _direct_sum(0.3, w, rs, s, blocks))


@pytest.mark.parametrize("beta", [0.3, 1.3])
def test_laguerre_gauss_ring_matches_its_closed_form(beta):
    # a(r) = r^{b + 2n} e^{-r^2/w^2} psi_k: Gradshteyn-Ryzhik 6.631.10 gives
    # int_0^inf J_b(s r) r^{b+2n+1} e^{-c r^2} dr = n! s^b e^{-z} L_n^b(z) / (2^{b+1} c^{b+n+1}),
    # z = s^2 / 4c, with c = 1/w^2 - i/4t.  For t < 0 the mode's factor is i^{+b}.
    n, width = 6, 1.6
    data = ab_eigendata(0.3, 8)
    k = int(np.argmin(np.abs(data.beta - beta)))
    b = float(data.beta[k])
    r = uniform_radii(12.0, 37000)
    psi = data.psi_values(theta_grid(64))[k]
    u0 = PolarField(r=r, values=np.outer(r ** (b + 2 * n) * np.exp(-(r / width) ** 2), psi))
    for t in (0.01, -0.01, 0.1, -0.1, 1.0, -1.0, 10.0, -10.0, 1000.0, -1000.0):
        u = evolve(data, u0, t)
        s = u.r / (2.0 * abs(t))
        c = 1.0 / width ** 2 - 0.25j / t
        z = s ** 2 / (4.0 * c)
        radial = (math.factorial(n) * s ** b * np.exp(-z) * eval_genlaguerre(n, b, z)
                  / (2.0 ** (b + 1.0) * c ** (b + n + 1.0)))
        radial *= np.exp(1j * u.r ** 2 / (4.0 * t) - 0.5j * np.pi * b * np.sign(t)) / (2j * t)
        exact = np.outer(radial, psi)
        assert np.max(np.abs(u.values - exact)) <= 1e-12 * np.max(np.abs(exact)), t


def _spy_on_hankel(monkeypatch):
    """s sizes, in call order, of the quadrature and of the interpolant's holdout."""
    sizes = []
    for name in ("_hankel_integrals", "_direct_integrals_at"):
        def spy(betas, a, r_src, t, s, *args, _real=getattr(propagator, name)):
            sizes.append(s.size)
            return _real(betas, a, r_src, t, s, *args)

        monkeypatch.setattr(propagator, name, spy)
    return sizes


def test_requested_grid_reads_only_the_rule_grid(monkeypatch, data_ab):
    t = 0.5
    u0 = gaussian_ring(5.0, 1.0, 1280, 12.0, n_theta=64, angular_mode=1)
    cn = crank_nicolson_oracle(data_ab, u0, t)
    sizes = _spy_on_hankel(monkeypatch)
    evolve(data_ab, u0, t, r_out=cn.r)
    h = np.pi / (S_OVERSAMPLE * u0.r[-1])
    coarse = int(np.ceil(cn.r[-1] / (2.0 * t) / h)) + SINC_TAPS + 1
    assert sum(sizes) <= coarse + HOLDOUT_POINTS < cn.r.size // 5
    # the automatic grid is no larger than the interpolation's own: direct route
    sizes.clear()
    r_auto = 2.0 * t * _evaluation_grid(u0, t, radial_bandwidth(u0))
    evolve(data_ab, u0, t, r_out=r_auto)
    assert sizes == [r_auto.size]


def test_holdout_guard_falls_back_to_direct_evaluation(monkeypatch, ring_m1, data_ab):
    t = 0.5
    r_out = uniform_radii(16.0, 1024)
    monkeypatch.setattr(propagator, "SINC_TAPS", 2)
    sizes = _spy_on_hankel(monkeypatch)
    guarded = evolve(data_ab, ring_m1, t, r_out=r_out)
    assert sizes[1:] == [HOLDOUT_POINTS, r_out.size]
    monkeypatch.setattr(propagator, "_interpolated_integrals", lambda *args: None)
    direct = evolve(data_ab, ring_m1, t, r_out=r_out)
    assert np.max(np.abs(guarded.values - direct.values)) <= 1e-15 * direct.sup_norm()


def test_non_uniform_output_grid_is_refused_before_the_quadrature(monkeypatch, ring_m1,
                                                                 data_ab):
    sizes = _spy_on_hankel(monkeypatch)
    projected = []
    monkeypatch.setattr(propagator, "modal_coefficients",
                        lambda *args: projected.append(args))
    r_out = np.sort(np.random.default_rng(3).uniform(0.0, 16.0, 300))
    for t in (0.5, -0.5):
        with pytest.raises(InvalidInput, match="uniformly spaced"):
            evolve(data_ab, ring_m1, t, r_out=r_out)
    assert sizes == [] and projected == []


def test_negative_time_result_is_the_mirror_run(ring_m1, data_ab):
    back = evolve_result(data_ab, ring_m1, -1.0)
    mirror_u0 = dataclasses.replace(ring_m1, values=np.conj(ring_m1.values))
    fwd = evolve_result(ab_eigendata(-0.3, 24), mirror_u0, 1.0)
    assert back.t == back.field.t == -1.0
    assert np.max(np.abs(back.field.values - np.conj(fwd.field.values))) <= 1e-12 * fwd.sup_norm
    assert back.sup_norm == pytest.approx(fwd.sup_norm, rel=1e-12)
    assert back.l2_norm == pytest.approx(fwd.l2_norm, rel=1e-12)
    assert back.l2_norm == pytest.approx(ring_m1.l2_norm(), rel=1e-8)


def test_crank_nicolson_agrees_with_series(data_ab):
    u0 = gaussian_ring(5.0, 1.0, 1280, 12.0, n_theta=64, angular_mode=1)
    orc = crank_nicolson_oracle(data_ab, u0, 0.5)
    ev = evolve(data_ab, u0, 0.5, r_out=orc.r)
    assert relative_l2_difference(ev, orc) < 1e-3


def test_crank_nicolson_step_matches_scipys_banded_solve():
    # the factored step against scipy's one-shot banded solve of I + i dt/2 H
    rng = np.random.default_rng(9)
    n, off = 200, 0.4j
    diag = 1.0 + 1j * rng.uniform(0.5, 3.0, n)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ab = np.array([np.r_[0.0, np.full(n - 1, off)], diag, np.r_[np.full(n - 1, off), 0.0]])
    ref = scipy.linalg.solve_banded((1, 1), ab, rhs)
    *factors, info = scipy.linalg.lapack.zgttrf(np.full(n - 1, off), diag, np.full(n - 1, off))
    assert info == 0
    v = propagator.solve_banded(factors, rhs.copy())
    assert np.max(np.abs(v - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_crank_nicolson_boundary_monitor(data_ab):
    u0 = gaussian_ring(5.0, 1.0, 640, 12.0, n_theta=32, angular_mode=1)
    # at r_max = 20 the wall sample itself is quiet, but ~1e-4 of the mass
    # sits in the last 2 % of the grid
    for r_max in (10.0, 20.0):
        with pytest.raises(ResolutionError) as exc:
            crank_nicolson_oracle(data_ab, u0, 2.0, r_max=r_max)
        assert exc.value.suggested_n > 0


def test_source_resolution_guard(data_ab):
    coarse = gaussian_ring(5.0, 1.0, 256, 12.0, n_theta=32, angular_mode=1)
    with pytest.raises(ResolutionError) as exc:
        evolve(data_ab, coarse, 0.05)
    assert exc.value.suggested_n > 256
    assert required_source_points(12.0, 30.0, 0.05) > required_source_points(
        12.0, 30.0, 0.5)


def test_angular_completeness_guard(ring_m1):
    tiny = ab_eigendata(0.3, 2)  # modes -2..2 cannot carry an m = 4 ring
    u4 = gaussian_ring(5.0, 1.0, 1024, 12.0, n_theta=32, angular_mode=4)
    with pytest.raises(InsufficientResolution):
        evolve(tiny, u4, 0.5)


def test_decay_profile_needs_three_decades(ring_m1, data_ab):
    with pytest.raises(InvalidInput):
        decay_profile(data_ab, ring_m1, [1.0, 2.0, 4.0])


def test_decay_profile_refuses_zero_data_before_any_quadrature(monkeypatch, ring_m1, data_ab):
    # evolve of zero stays zero; the decay statistics divide by |u0|_1 and |u0|_2
    zero = dataclasses.replace(ring_m1, values=np.zeros_like(ring_m1.values))
    monkeypatch.setattr(propagator, "_evolve_core", None)
    with pytest.raises(InvalidInput, match="initial data is zero"):
        decay_profile(data_ab, zero, [1.0, 1000.0])


@pytest.mark.parametrize("t,need", [(1e-5, "36669518"), (1e-300, "3.67e+302"),
                                    (5e-324, "inf")])
def test_a_tiny_time_is_refused_before_its_grid_exists(monkeypatch, data_ab, t, need):
    # at t = 1e-5 the s grid would hold 9e6 points (73 MB); at 1e-300 numpy
    # cannot size it, and at 5e-324 r / 2t overflows to inf.  A count of 300
    # digits is written in floating point.
    u0 = gaussian_ring(5.0, 1.0, 2048, 12.0, n_theta=4, angular_mode=1)
    monkeypatch.setattr(propagator, "modal_coefficients", None)
    tracemalloc.start()
    try:
        with pytest.raises(ResolutionError) as exc:
            evolve(data_ab, u0, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert exc.value.suggested_n > 3e7
    assert str(exc.value).endswith(f"2048 points, need at least {need}")
    assert required_source_points(12.0, 0.0, 5e-324) == math.inf


def test_decay_profile_does_u0_work_once_per_sweep(monkeypatch, ring_m1, data_ab):
    calls = {"modal_coefficients": 0, "radial_bandwidth": 0}
    for name in calls:
        def counted(*args, _f=getattr(propagator, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(propagator, name, counted)
    times = [0.5, -0.5, 5.0, -50.0, 500.0]
    rep = decay_profile(data_ab, ring_m1, times)
    # once for u0 and once for the mirror's conj(u0), not once per t
    assert calls == {"modal_coefficients": 2, "radial_bandwidth": 2}
    for row, t in zip(rep.rows, times):
        single = evolve_result(data_ab, ring_m1, t)
        assert row.sup_norm == single.sup_norm and row.l2_norm == single.l2_norm
    assert rep.l1_initial == ring_m1.l1_norm()


def test_relative_difference_requires_matching_grids(ring_m1):
    other = gaussian_ring(5.0, 1.0, 1024, 12.0, n_theta=64, angular_mode=1)
    with pytest.raises(InvalidInput):
        relative_l2_difference(ring_m1, other)


def test_general_potential_evolution_against_stepper():
    p = build_potential(a_coeffs=[0.1, 0.0, 0.1], A_coeffs=[0.3])
    data = from_spectrum(compute_spectrum(p, 48))
    u0 = gaussian_ring(5.0, 1.0, 1280, 12.0, n_theta=64, angular_mode=0)
    orc = crank_nicolson_oracle(data, u0, 0.5)
    ev = evolve(data, u0, 0.5, r_out=orc.r)
    assert relative_l2_difference(ev, orc) < 1e-3


def test_negative_time_with_general_eigendata():
    a_coeffs = [0.05j, 0.1, 0.45, 0.1, -0.05j]      # 0.45 + 0.2 cos + 0.1 sin 2theta
    A_coeffs = np.array([0.04, 0.3, 0.04])          # 0.3 + 0.08 cos
    p = build_potential(a_coeffs=a_coeffs, A_coeffs=A_coeffs)
    data = from_spectrum(compute_spectrum(p, 48))
    u0 = gaussian_ring(5.0, 1.0, 1280, 12.0, n_theta=64, angular_mode=0)
    cn = crank_nicolson_oracle(data, u0, -0.5)
    # every 4th stepper radius: the series route is pointwise in r
    sub = dataclasses.replace(cn, r=cn.r[::4], values=cn.values[::4])
    ev = evolve(data, u0, -0.5, r_out=sub.r)
    assert ev.t == -0.5
    assert relative_l2_difference(ev, sub) < 1e-3

    # the reversed-field spectrum re-solved from scratch, then conjugated back
    flipped = from_spectrum(compute_spectrum(
        build_potential(a_coeffs=a_coeffs, A_coeffs=-A_coeffs), 48))
    mirror = evolve(flipped, dataclasses.replace(u0, values=np.conj(u0.values)), 0.5,
                    r_out=sub.r)
    resolved = dataclasses.replace(mirror, values=np.conj(mirror.values), t=-0.5)
    assert relative_l2_difference(ev, resolved) < 1e-10

    l2_0 = u0.l2_norm()
    back, fwd = evolve_result(data, u0, -0.5), evolve_result(data, u0, 0.5)
    assert back.t == back.field.t == -0.5
    assert back.l2_norm == pytest.approx(l2_0, rel=1e-8)
    assert back.l2_norm == pytest.approx(fwd.l2_norm, rel=1e-12)
