"""Gauge covariance: an integer shift of A changes the operator only by the phase
e^{i L theta}, so every gauge-stripped quantity reads the same after it."""

import functools
import json

import numpy as np
import pytest

from emschro import cli, galerkin, kernel, wkb
from emschro.potentials import build_potential, constant_potential

SHIFTS = [1, -1, 2, -2]


@functools.cache
def _quantities(shift):
    """Gap-scan rows, residual rows, sup-scan max and cluster c for
    a = 0.2 cos(theta), A = 0.3 + shift."""
    p = build_potential(a_coeffs=[0.1, 0.0, 0.1], A_coeffs=[0.3 + shift])
    dec = galerkin.compute_spectrum(p, 96)
    gap = [r.max_abs for r in kernel.difference_scan(dec, (4, 8, 16), rho_max=20.0).rows]
    rows = [(r.j, r.mu, r.eig_residual, r.sup_R, r.overlap)
            for r in wkb.asymptotic_residuals(dec, range(8, 25)).rows]
    sup = kernel.sup_scan(kernel.from_spectrum(dec), rho_max=10.0, n_rho=20,
                          n_theta=16).max_abs
    return np.array(gap), np.array(rows), sup, galerkin.cluster_check(dec, 10, 30).smallest_c


@pytest.mark.parametrize("shift", SHIFTS)
def test_gap_scan_does_not_see_an_integer_shift_of_A(shift):
    # the model rows were once taken at the reduced circulation, off by
    # e^{i L theta}: D(4) read 2.5 instead of 0.047 at A = 1.3
    assert np.max(np.abs(_quantities(shift)[0] - _quantities(0)[0])) <= 1e-12


@pytest.mark.parametrize("shift", SHIFTS)
def test_residuals_sup_scan_and_clusters_do_not_see_an_integer_shift_of_A(shift):
    _, rows, sup, c = _quantities(shift)
    _, rows0, sup0, c0 = _quantities(0)
    assert np.array_equal(rows[:, 0], rows0[:, 0])
    # certified eigenvalues are within RESOLVE_RTOL max(1, |mu|) on either side
    eig_tol = 2 * galerkin.RESOLVE_RTOL * np.maximum(1.0, np.abs(rows0[:, 1]))
    assert np.all(np.abs(rows[:, 1:3] - rows0[:, 1:3]) <= eig_tol[:, None])
    assert np.max(np.abs(rows[:, 3:] - rows0[:, 3:])) <= 1e-10
    assert abs(sup - sup0) <= 2 * kernel.DEFAULT_TOL
    assert abs(c - c0) <= 2 * galerkin.RESOLVE_RTOL * 31 ** 2


@pytest.mark.parametrize("alpha", [0.3, 1.3, -0.7, 2.3, -1.7])
def test_closed_form_check_holds_at_every_circulation(tmp_path, alpha):
    # the sidecar once compared against the reduced circulation's closed form,
    # and read 0.276 at A = 1.3
    path = tmp_path / "flux.json"
    path.write_text(json.dumps({
        "potential": {"a_coeffs": [[0.0, 0.0]], "A_coeffs": [[alpha, 0.0]]},
        "output_dir": str(tmp_path / "out"),
        "kernel_scan": {"M": 64, "rho_max": 10.0, "n_rho": 100, "n_theta": 8},
    }))
    assert cli.main(["kernel-scan", str(path)]) == cli.EXIT_PASS
    meta = json.loads((tmp_path / "out" / "kernel_scan.csv.meta.json").read_text())
    assert meta["thresholds"]["closed_form_max_diff"] <= 1e-14


def test_model_modes_are_what_the_gauge_strips_the_flux_line_modes_to():
    # for constant A the eigenfunction of index j is e^{i(j - L) theta} / sqrt(2 pi)
    th = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    for alpha in (0.3, 1.3, -1.7):
        p = constant_potential(alpha)
        js = np.arange(-3, 4)
        psi = np.exp(1j * np.outer(js - p.circulation_floor, th))
        assert np.allclose(p.gauge(th) * psi, p.model_modes(js, th), rtol=0, atol=1e-13)
