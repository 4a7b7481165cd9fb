"""Propagator kernel series: closed-form references, truncation certificates."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import jv

from emschro import bessel, kernel
from emschro.errors import HypothesisViolation, InsufficientResolution, InvalidInput
from emschro.galerkin import compute_spectrum, pair_modes
from emschro.kernel import (
    ab_eigendata,
    cutoff_index,
    difference_scan,
    evaluate_grid,
    from_spectrum,
    i_power,
    kernel_value,
    sup_scan,
    tail_bound_beyond,
    term_bounds,
)
from emschro.potentials import build_potential, constant_potential

# frozen flux-line kernel values (600-mode reference sums, 1e-30 tail)
FROZEN_POINTS = [
    (0.3, 1.0, 0.0, 0.0, 0.088021387513851816462 - 0.18172540714121108623j),
    (0.3, 7.5, 2.0, 0.0, -0.14998192189195170517 + 0.066350903126644290251j),
    (-0.25, 3.0, 0.7, 0.0, -0.066171677455886920426 - 0.11402834216758154513j),
]


def test_i_power_branch():
    assert i_power(0.0) == pytest.approx(1.0)
    assert i_power(1.0) == pytest.approx(-1j)
    assert i_power(2.0) == pytest.approx(-1.0)
    assert i_power(0.5) == pytest.approx(np.exp(-1j * np.pi / 4))
    assert abs(i_power(3.7)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("alpha,rho,th,thp,ref", FROZEN_POINTS)
def test_flux_line_kernel_frozen_points(alpha, rho, th, thp, ref):
    data = ab_eigendata(alpha, 80)
    kv = kernel_value(data, rho, th, thp, tol=1e-12)
    assert kv.value == pytest.approx(ref, abs=5e-12)
    assert kv.tail_bound < 1e-11
    assert kv.terms_used <= data.count


def test_kernel_value_is_the_grid_sum_at_one_point():
    data = ab_eigendata(0.3, 40)
    for rho, th, thp in [(0.0, 0.3, 1.2), (2.5, 1.1, 0.4), (12.0, 0.1, 5.0)]:
        grid = evaluate_grid(data, np.array([rho]), np.array([th]), np.array([thp]))
        kv = kernel_value(data, rho, th, thp)
        assert kv.value == grid[0, 0, 0]
        assert kv.terms_used == cutoff_index(data, rho, 1e-9)


def test_flux_line_routes_agree():
    """Closed-form eigendata versus the generic route through the dense solver."""
    data_ab = ab_eigendata(0.3, 24)
    dec = compute_spectrum(constant_potential(0.3), 48)
    data_gal = from_spectrum(dec, count=49)
    b1 = np.sort(data_ab.beta[:30])
    b2 = np.sort(data_gal.beta[:30])
    assert np.allclose(b1, b2, atol=1e-10)
    v1 = kernel_value(data_ab, 2.5, 1.1, 0.4).value
    v2 = kernel_value(data_gal, 2.5, 1.1, 0.4).value
    assert v1 == pytest.approx(v2, abs=1e-8)


def test_positivity_hypothesis_enforced(p_cos, dec_cos64):
    with pytest.raises(HypothesisViolation):
        from_spectrum(dec_cos64)


def test_eigenfunctions_orthonormal_in_data():
    p = build_potential(a_coeffs=[0.5, 1.0, 0.5], A_coeffs=[0.3])
    data = from_spectrum(compute_spectrum(p, 48))
    n = 1024
    th = 2 * np.pi * np.arange(n) / n
    psi = data.psi_values(th)
    gram = (2 * np.pi / n) * psi.conj() @ psi.T
    assert np.allclose(gram, np.eye(data.count), atol=1e-9)


def test_truncation_certificate_dominates_true_remainder():
    data = ab_eigendata(0.3, 400)
    rho, th, thp = 4.0, 0.9, 0.1
    ref = kernel_value(data, rho, th, thp, tol=1e-14).value
    short = ab_eigendata(0.3, 60)
    kv = kernel_value(short, rho, th, thp, tol=1e-9)
    assert abs(kv.value - ref) <= kv.tail_bound + 1e-13


def test_term_bounds_decay_past_the_bump():
    data = ab_eigendata(0.3, 120)
    b = term_bounds(data, 10.0)
    assert b.shape == (data.count,)
    # once beta >= 2 rho + 2 the majorant halves per step
    tail = b[np.sort(data.beta) >= 22.0] if b.ndim == 1 else b
    k = np.argmax(data.beta >= 22.0)
    assert np.all(np.diff(b[k:]) <= 0)


@pytest.mark.parametrize("rho", [0.0, 1e-300, 0.5, 10.0, 50.0, 1e5])
def test_term_bounds_match_the_scalar_majorant_bit_for_bit(rho):
    # free orders include beta = 0; rho = 1e-300 underflows, rho = 1e5 overflows
    for data in (ab_eigendata(0.3, 120), kernel.circulation_eigendata(0.0, 40)):
        loop = np.array([bessel.term_tail_bound(b, rho) for b in data.beta])
        assert np.array_equal(term_bounds(data, rho), loop * data.sup_bounds ** 2)


def test_cutoff_index_certifies(p_ab):
    data = ab_eigendata(0.3, 120)
    n = cutoff_index(data, 5.0, 1e-9)
    assert 0 < n < data.count
    dropped = float(np.sum(term_bounds(data, 5.0)[n:])) + tail_bound_beyond(data, 5.0)
    assert dropped < 1e-9
    with pytest.raises(InsufficientResolution):
        cutoff_index(ab_eigendata(0.3, 6), 30.0, 1e-9)


def test_evaluate_grid_matches_pointwise():
    data = ab_eigendata(0.3, 80)
    rho = np.array([0.5, 2.0, 6.0])
    th = np.array([0.0, 1.0, 2.5])
    thp = np.array([0.0, 0.7])
    grid = evaluate_grid(data, rho, th, thp)
    assert grid.shape == (3, 3, 2)
    # every retained mode summed directly, with scipy's J and e^{ik(t - t')} / 2 pi
    weights = np.array([i_power(b) for b in data.beta])
    ks = np.arange(-80, 81)
    ks = ks[np.argsort((ks + 0.3) ** 2, kind="stable")]
    for i, r in enumerate(rho):
        for j, t in enumerate(th):
            for l, tp in enumerate(thp):
                ref = np.sum(weights * jv(data.beta, r)
                             * np.exp(1j * ks * (t - tp))) / (2.0 * np.pi)
                assert grid[i, j, l] == pytest.approx(ref, abs=1e-8)


def test_kernel_vanishes_at_origin_without_integer_flux():
    data = ab_eigendata(0.3, 40)
    kv = kernel_value(data, 0.0, 0.3, 1.2)
    assert abs(kv.value) == pytest.approx(0.0, abs=1e-12)


def test_sup_scan_report_structure():
    data = ab_eigendata(0.3, 60)
    rep = sup_scan(data, rho_max=10.0, n_rho=50, n_theta=24)
    assert np.isfinite(rep.max_abs)
    assert rep.grid_shape == (50, 24, 24)
    assert np.all(np.diff(rep.running_maxima) >= 0)
    assert len(rep.window_maxima) == len(rep.window_edges) - 1
    assert rep.max_abs == pytest.approx(rep.running_maxima[-1])
    with pytest.raises(InvalidInput):   # the angles come from theta_grid
        sup_scan(data, rho_max=10.0, n_rho=50, n_theta=3)
    with pytest.raises(InvalidInput):   # the trend needs rho = 0 and rho_max
        sup_scan(data, rho_max=10.0, n_rho=1, n_theta=24)


def test_sup_scan_flux_line_frozen():
    data = ab_eigendata(0.3, 120)
    rep = sup_scan(data, rho_max=50.0, n_rho=200, n_theta=64)
    assert rep.max_abs == pytest.approx(0.20877, abs=2e-4)
    assert rep.top_two_decade_variation < 0.01


def test_sup_scan_reports_the_first_of_tied_maxima():
    # flux-line |K| depends on theta - theta' only, so every row's maximum is
    # tied along a diagonal; rounding-level changes must not move the report
    data = ab_eigendata(0.3, 60)
    scale = 1.0 + 1e-15 * np.random.default_rng(5).uniform(-1.0, 1.0, data.count)
    nudged = replace(data, coeffs=data.coeffs * scale)
    rep = sup_scan(data, rho_max=10.0, n_rho=50, n_theta=24)
    rep_nudged = sup_scan(nudged, rho_max=10.0, n_rho=50, n_theta=24)
    assert np.array_equal(rep.row_argmax, rep_nudged.row_argmax)
    assert rep.argmax == rep_nudged.argmax
    assert np.all(rep.row_argmax[:, 0] == 0.0)


def _spy_on_rows(monkeypatch):
    """Rows each `psi_values` call builds, in call order."""
    built = []
    real = kernel.KernelEigendata.psi_values

    def spy(self, theta, rows=None):
        out = real(self, theta, rows)
        built.append(out.shape[0])
        return out

    monkeypatch.setattr(kernel.KernelEigendata, "psi_values", spy)
    return built


def test_scans_build_only_the_angular_rows_they_sum(small_gap_grid, gap_case, monkeypatch):
    data = ab_eigendata(0.3, 60)
    rho = np.linspace(0.0, 10.0, 25)
    cuts = [kernel.truncation(data, float(r), kernel.DEFAULT_TOL)[0] for r in rho]
    assert max(cuts) < data.count
    built = _spy_on_rows(monkeypatch)
    sup_scan(data, rho_max=10.0, n_rho=rho.size, n_theta=8)
    assert built == [max(cuts)]            # theta' is theta: one build
    built.clear()
    rep = difference_scan(gap_case, ells=(4, 8), rho_max=GAP_RHO_MAX)
    assert built == [rep.rows[0].terms]    # one row per paired mode


@pytest.mark.parametrize("k,n_rho,n_theta", [(166, 200, 64), (304, 120, 48), (1, 120, 48)])
def test_mode_sum_matches_a_per_mode_loop(k, n_rho, n_theta):
    rng = np.random.default_rng(k)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # the weights are real Bessel values; their phases ride in the rows P
    W, P, Q = rng.standard_normal((k, n_rho)), cplx(k, n_theta), cplx(k, n_theta)
    ref = np.zeros((n_rho, n_theta, n_theta), dtype=complex)
    for w, p, q in zip(W, P, Q):
        ref += w[:, None, None] * np.outer(p, np.conj(q))[None]
    K = kernel._mode_sum(W, P, Q)
    assert K.flags.c_contiguous
    assert np.max(np.abs(K - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_kernel_value_rejects_negative_radius():
    data = ab_eigendata(0.3, 20)
    with pytest.raises(InvalidInput):
        kernel_value(data, -1.0, 0.0, 0.0)


@pytest.mark.parametrize("rho", [np.nan, np.inf, -np.inf])
def test_a_non_finite_radius_is_invalid_input(rho, monkeypatch):
    # refused before any log or exp, so no vectorised majorant sees a non-finite rho
    data = ab_eigendata(0.3, 20)
    monkeypatch.setattr(kernel, "tail_bound_beyond", lambda *args: pytest.fail("reached"))
    monkeypatch.setattr(kernel, "term_bounds", lambda *args: pytest.fail("reached"))
    with pytest.raises(InvalidInput):
        kernel_value(data, rho, 0.0, 0.0)
    with pytest.raises(InvalidInput):
        evaluate_grid(data, np.array([rho]), np.array([0.0]), np.array([0.0]))


# -- gap scan against the constant-circulation tail -------------------------------

GAP_RHO_MAX = 4.0          # j_max = int(e * 2) + 24 = 29, all resolved at M = 48


@pytest.fixture()
def small_gap_grid(monkeypatch):
    monkeypatch.setattr(kernel, "DIFFERENCE_N_RHO", 9)
    monkeypatch.setattr(kernel, "DIFFERENCE_N_THETA", 6)


@pytest.fixture(scope="module")
def gap_case():
    p = build_potential(a_coeffs=[0.1, 0.0, 0.1], A_coeffs=[0.3])
    return compute_spectrum(p, 48)


def _gap_per_ell(dec, ells):
    """(ell, D(ell), terms) by re-summing every pair's term once per ell."""
    data = from_spectrum(dec)
    ab = dec.potential.reduced_circulation
    j_max = int(np.e * GAP_RHO_MAX / 2.0) + 24
    pairs = pair_modes(dec, [j for j in range(-j_max, j_max + 1) if abs(j) >= min(ells)])
    rho = np.linspace(0.0, GAP_RHO_MAX, kernel.DIFFERENCE_N_RHO)
    th = 2.0 * np.pi * np.arange(kernel.DIFFERENCE_N_THETA) / kernel.DIFFERENCE_N_THETA
    chi = np.sqrt(2.0 * np.pi) * data.psi_values(th) * dec.potential.gauge(th)
    dth = th[:, None] - th[None, :]
    out = []
    for ell in ells:
        acc = np.zeros((rho.size, th.size, th.size), dtype=complex)
        terms = 0
        for pr in pairs:
            if abs(pr.j) < ell:
                continue
            b = float(data.beta[pr.k])
            bm = abs(pr.j + ab)
            acc += np.einsum("r,t,s->rts", i_power(b) * bessel.j_grid(b, rho), chi[pr.k],
                             np.conj(chi[pr.k]))
            acc -= np.einsum("r,ts->rts", i_power(bm) * bessel.j_grid(bm, rho),
                             np.exp(1j * (pr.j + ab) * dth))
            terms += 1
        out.append((ell, float(np.max(np.abs(acc))), terms))
    return out


def test_gap_scan_matches_the_per_ell_sum(small_gap_grid, gap_case):
    dec = gap_case
    ells = (2, 5, 9, 13)
    rep = difference_scan(dec, ells=(9, 2, 13, 5), rho_max=GAP_RHO_MAX)
    assert [r.ell for r in rep.rows] == list(ells)
    for row, (ell, ref, terms) in zip(rep.rows, _gap_per_ell(dec, ells)):
        assert row.terms == terms == 2 * (29 - ell + 1)
        assert abs(row.max_abs - ref) <= 1e-12 * ref
    assert rep.decreasing
    vals = np.array([r.max_abs for r in rep.rows])
    assert rep.slope == pytest.approx(np.polyfit(np.log(ells), np.log(vals), 1)[0], abs=1e-12)


def test_gap_scan_evaluates_each_tail_term_once(small_gap_grid, gap_case, monkeypatch):
    calls = []
    real = bessel.j_orders

    def spy(orders, r):
        calls.append(np.array(orders, dtype=float))
        return real(orders, r)

    monkeypatch.setattr(bessel, "j_orders", spy)
    rep = difference_scan(gap_case, ells=(4, 8, 16), rho_max=GAP_RHO_MAX)
    pairs = rep.rows[0].terms      # the smallest ell counts every pair
    assert len(calls) == 1         # one call for every order of the scan ...
    assert calls[0].size == 2 * pairs == np.unique(calls[0]).size   # ... each order once


@pytest.mark.parametrize("ells", [(), (0, 4), (4, 30)])
def test_gap_scan_refuses_ells_outside_the_paired_range(small_gap_grid, gap_case, ells):
    with pytest.raises(InvalidInput):
        difference_scan(gap_case, ells=ells, rho_max=GAP_RHO_MAX)



def test_gap_scan_cutoff_drops_a_hundredth_of_the_tolerance():
    """Orders past `difference_ells`' j_max add majorants below DEFAULT_TOL / 100.

    Past j_max the orders |j + Abar| are at least nu = j_max + 1/2, j_max + 3/2,
    ..., once per sign of j; each majorant grows with rho, so rho_max is the
    worst rho, and the sum is worst just below each step of j_max.  Past
    nu > e rho / 2 the terms fall by q = rho / (2 (nu + 1)) < 1/e per step, so
    the sum stops on a geometric remainder bound.
    """
    steps = 2.0 * np.arange(1, int(np.e * 5000.0 / 2.0) + 1) / np.e * (1.0 - 1e-12)
    worst = 0.0
    for rho_max in [0.5, *steps[steps >= 0.5], 5000.0]:
        _, j_max = kernel.difference_ells([1], rho_max)
        total, nu = 0.0, j_max + 0.5
        while True:
            term = bessel.term_tail_bound(nu, rho_max)
            q = rho_max / (2.0 * (nu + 1.0))
            total += term
            if term * q / (1.0 - q) <= 1e-3 * total:
                total += term * q / (1.0 - q)
                break
            nu += 1.0
        worst = max(worst, 2.0 * total)
    assert worst < kernel.DEFAULT_TOL / 100.0


# -- the real GEMM against complex Bessel weights ---------------------------------


@pytest.fixture(scope="module", params=["flux_line", "galerkin"])
def gemm_case(request):
    if request.param == "flux_line":
        return compute_spectrum(constant_potential(0.3), 48)
    return compute_spectrum(build_potential(a_coeffs=[0.1, 0.0, 0.1], A_coeffs=[0.3]), 48)


def test_grid_matches_complex_bessel_weights(gemm_case):
    """sum_k i^{-beta_k} J_{beta_k} psi_k conj psi_k with the phase on the weights."""
    data = from_spectrum(gemm_case)
    rho = np.linspace(0.0, 8.0, 17)
    th, thp = np.linspace(0.0, 6.0, 7), np.linspace(0.5, 5.5, 5)
    cuts = np.array([cutoff_index(data, r, kernel.DEFAULT_TOL) for r in rho])
    n = int(cuts.max())
    W = np.array([i_power(b) for b in data.beta[:n]])[:, None] \
        * bessel.j_orders(data.beta[:n], rho)
    W[np.arange(n)[:, None] >= cuts] = 0.0
    ref = np.einsum("kr,kt,ks->rts", W, data.psi_values(th)[:n],
                    np.conj(data.psi_values(thp)[:n]))
    assert np.max(np.abs(evaluate_grid(data, rho, th, thp) - ref)) <= 1e-14


def test_gap_scan_matches_complex_bessel_weights(small_gap_grid, gemm_case):
    """Each D(ell) from one complex-weight sum over every pair with |j| >= ell."""
    dec = gemm_case
    data = from_spectrum(dec)
    ab = dec.potential.reduced_circulation
    ells = (2, 5, 9, 13)
    rep = difference_scan(dec, ells=ells, rho_max=GAP_RHO_MAX)
    _, j_max = kernel.difference_ells(ells, GAP_RHO_MAX)
    pairs = pair_modes(dec, [j for j in range(-j_max, j_max + 1) if abs(j) >= ells[0]])
    k = np.array([pr.k for pr in pairs])
    j = np.array([pr.j for pr in pairs])
    rho = np.linspace(0.0, GAP_RHO_MAX, kernel.DIFFERENCE_N_RHO)
    th = 2.0 * np.pi * np.arange(kernel.DIFFERENCE_N_THETA) / kernel.DIFFERENCE_N_THETA
    chi = np.sqrt(2.0 * np.pi) * data.psi_values(th) * dec.potential.gauge(th)
    orders = np.column_stack([data.beta[k], np.abs(j + ab)]).ravel()
    W = np.array([i_power(b) for b in orders])[:, None] * bessel.j_orders(orders, rho)
    W[1::2] = -W[1::2]
    P = np.stack([chi[k], np.exp(1j * np.outer(j + ab, th))], axis=1).reshape(-1, th.size)
    level = np.repeat(np.abs(j), 2)
    for row in rep.rows:
        keep = level >= row.ell
        ref = np.einsum("kr,kt,ks->rts", W[keep], P[keep], np.conj(P[keep]))
        assert abs(row.max_abs - np.max(np.abs(ref))) <= 1e-14
