"""Numbered end-to-end checks with hard numerical gates.

Each check builds its own configuration, runs the library at desk scale,
and reports one pass/fail line.  Two checks currently report honest
failures and are kept at their stated gates on purpose:

* check 3: the plain eigenfunction remainder decays one power of j slower
  than the gate demands (measured slope near -1, gate -2.5);
* check 7: one named scan configuration has a negative ground eigenvalue,
  so the kernel series is not defined for it, and the measured flux-line
  comparison decays slower than the budget gate.

Supplementary rows that do pass (positive-well variants) are printed and
labelled but never substituted into the gates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import bessel
from .errors import HypothesisViolation
from .galerkin import cluster_check, compute_spectrum, loglog_slope, subspace_angle
from .electric import half_integer_table, splitting_table
from .kernel import ab_eigendata, difference_scan, from_spectrum, sup_scan
from .potentials import build_potential, constant_potential
from .propagator import (
    crank_nicolson_oracle,
    decay_profile,
    evolve,
    free_evolution,
    gaussian_ring,
    relative_l2_difference,
)
from .wkb import asymptotic_residuals, eigenpair_coeff_vector, solve_eigenvalue


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _suite_potentials():
    """The two non-resonant magnetic configurations used across checks."""
    p1 = build_potential(a_coeffs=[0.5, 0.0, 0.5], A_coeffs=[0.3])
    p2 = build_potential(
        a_coeffs=[0.25j, 0.5, 0.0, 0.5, -0.25j],
        A_coeffs=[0.1, 0.3, 0.1],
    )
    return p1, p2


@lru_cache(maxsize=None)
def _suite_spectra(M: int):
    return tuple(compute_spectrum(p, M) for p in _suite_potentials())


@lru_cache(maxsize=None)
def _residual_tables():
    return tuple(asymptotic_residuals(dec, tuple(range(8, 49))) for dec in _suite_spectra(96))


def criterion_1() -> tuple[bool, str]:
    """Flux-line spectra are exactly (k + alpha)^2 with one-hot mode vectors."""
    worst_eig = 0.0
    worst_vec = 0.0
    for alpha in (0.3, -0.25, 0.5):
        dec = compute_spectrum(constant_potential(alpha), 64)
        k = np.arange(-64, 65)
        exact = np.sort((k + alpha) ** 2)
        worst_eig = max(worst_eig, float(np.max(np.abs(np.sort(dec.eigenvalues) - exact))))
        mags = np.abs(dec.coeffs)
        top = np.max(mags, axis=0)
        second = np.partition(mags, -2, axis=0)[-2, :]
        worst_vec = max(worst_vec, float(np.max(np.abs(top - 1.0))), float(np.max(second)))
    ok = worst_eig <= 1e-10 and worst_vec <= 1e-10
    return ok, f"max eig err {worst_eig:.2e}, max coeff dev {worst_vec:.2e} (gates 1e-10)"


def criterion_2() -> tuple[bool, str]:
    """j^2-scaled eigenvalue residuals stay bounded with decaying trend."""
    parts = []
    ok = True
    for label, table in zip(("cos/0.3", "mixed"), _residual_tables()):
        scaled = [r.scaled_eig for r in table.rows]
        ok = ok and table.eig_slope <= -1.8 and all(map(math.isfinite, scaled))
        parts.append(f"{label}: slope {table.eig_slope:.3f}, scaled in "
                     f"[{min(scaled):.3f}, {max(scaled):.3f}]")
    return ok, "; ".join(parts) + " (slope gate -1.8)"


def criterion_3() -> tuple[bool, str]:
    """j^3-scaled eigenfunction remainders: gate demands slope <= -2.5."""
    parts = []
    ok = True
    for label, table in zip(("cos/0.3", "mixed"), _residual_tables()):
        ok = ok and table.fun_slope <= -2.5
        parts.append(f"{label}: remainder slope {table.fun_slope:.3f}")
    return ok, ("; ".join(parts)
                + " (gate -2.5; measured decay is one power slower, j^-1)")


def criterion_4() -> tuple[bool, str]:
    """Branch-equation eigenpairs match Galerkin pairs on both configurations."""
    worst_diff = 0.0
    worst_angle = 0.0
    worst_fp = 0.0
    for p, dec in zip(_suite_potentials(), _suite_spectra(64)):
        for j in range(8, 25):
            for branch in ("plus", "minus"):
                pair = solve_eigenvalue(p, j, branch)
                i = int(np.argmin(np.abs(dec.eigenvalues - pair.lam)))
                worst_diff = max(worst_diff, abs(float(dec.eigenvalues[i]) - pair.lam))
                vec = eigenpair_coeff_vector(pair, dec.M)[:, None]
                worst_angle = max(worst_angle, subspace_angle(vec, dec.coeffs[:, i:i + 1]))
                worst_fp = max(worst_fp, pair.fp_residual / math.sqrt(pair.lam))
    ok = worst_diff <= 1e-6 and worst_angle <= 1e-4 and worst_fp <= 1e-8
    return ok, (f"max |lambda diff| {worst_diff:.2e} (gate 1e-6), "
                f"max angle {worst_angle:.2e} (gate 1e-4), "
                f"max residual/sqrt(lambda) {worst_fp:.2e} (gate 1e-8)")


def criterion_5() -> tuple[bool, str]:
    """Exactly two eigenvalues per perturbation ball, balls disjoint."""
    parts = []
    ok = True
    for label, dec in zip(("cos/0.3", "mixed"), _suite_spectra(96)):
        rep = cluster_check(dec, 10, 40)
        ok = ok and rep.passed and rep.disjoint
        parts.append(f"{label}: two-per-ball {rep.passed}, disjoint {rep.disjoint}, "
                     f"c {rep.smallest_c:.3f}")
    return ok, "; ".join(parts)


def criterion_6() -> tuple[bool, str]:
    """Electric splitting at the first pair plus half-circulation residuals."""
    p_even = build_potential(a_coeffs=[1.0, 0.0, 0.0, 0.0, 1.0], A_coeffs=[0.0])
    dec_even = compute_spectrum(p_even, 96)
    st = splitting_table(dec_even, range(1, 33))
    row1 = next(r for r in st.rows if r.k == 1)
    split_err = abs(row1.splitting - 2.0)
    # branch residual k*|lambda - (k^2 + mean(a) -/+ c_{2k}/2)| over k in [4, 32]
    atil = p_even.a_mean.real
    ks, res = [], []
    for r in st.rows:
        if r.k < 4:
            continue
        half = r.predicted_splitting / 2.0
        ks.append(r.k)
        res.append(max(abs(r.lam_sine - (r.k ** 2 + atil - half)),
                       abs(r.lam_cosine - (r.k ** 2 + atil + half))))
    scaled = [k * e for k, e in zip(ks, res)]
    branch_slope = loglog_slope(np.array(ks), np.array(res))
    ok = (split_err <= 1.0 and branch_slope <= -1.0
          and all(map(math.isfinite, scaled)))
    parts = [f"splitting(k=1) {row1.splitting:.6f} (|err| {split_err:.3f}, window 1.0)",
             f"branch residual slope {branch_slope:.3f} (gate -1.0), "
             f"k-scaled max {max(scaled):.4f}"]
    for label, a_coeffs in (("2cos2t", [1.0, 0.0, 0.0, 0.0, 1.0]),
                            ("cos", [0.5, 0.0, 0.5])):
        dec_half = compute_spectrum(build_potential(a_coeffs=a_coeffs, A_coeffs=[0.5]), 96)
        ht = half_integer_table(dec_half, range(4, 33))
        finite = all(math.isfinite(r.scaled_residual) for r in ht.rows)
        ok = ok and ht.slope <= -1.0 and finite
        parts.append(f"half-circ {label}: slope {ht.slope:.3f}")
    return ok, "; ".join(parts)


def criterion_7() -> tuple[bool, str]:
    """Kernel sup scans are flat at large radius; flux-line gap shrinks in the
    retained band.  The second named row and the gap-decay gate fail honestly."""
    parts = []
    rep_ab = sup_scan(ab_eigendata(0.3, 120), rho_max=50.0, n_rho=200, n_theta=64)
    ab_ok = (math.isfinite(rep_ab.max_abs)
             and rep_ab.top_two_decade_variation <= 0.10)
    parts.append(f"flux 0.3: max {rep_ab.max_abs:.5f}, "
                 f"variation {rep_ab.top_two_decade_variation:.4f}")
    row2_ok = False
    try:
        dec = compute_spectrum(build_potential(a_coeffs=[0.5, 0.0, 0.5],
                                               A_coeffs=[0.3]), 160)
        rep2 = sup_scan(from_spectrum(dec), rho_max=50.0, n_rho=200, n_theta=64)
        row2_ok = (math.isfinite(rep2.max_abs)
                   and rep2.top_two_decade_variation <= 0.10)
        parts.append(f"cos/0.3: max {rep2.max_abs:.5f}")
    except HypothesisViolation as exc:
        parts.append(f"cos/0.3: kernel undefined ({exc})")
    dec_pos = compute_spectrum(build_potential(a_coeffs=[0.5, 1.0, 0.5],
                                               A_coeffs=[0.3]), 160)
    rep_pos = sup_scan(from_spectrum(dec_pos), rho_max=50.0, n_rho=200, n_theta=64)
    parts.append(f"[supplementary, ungated] 1+cos/0.3: max {rep_pos.max_abs:.5f}, "
                 f"variation {rep_pos.top_two_decade_variation:.4f}")
    dec_small = compute_spectrum(build_potential(a_coeffs=[0.1, 0.0, 0.1],
                                                 A_coeffs=[0.3]), 160)
    drep = difference_scan(dec_small, ells=(4, 8, 16), rho_max=50.0)
    diff_ok = drep.decreasing and drep.slope <= -2.0
    ds = ", ".join(f"D({r.ell})={r.max_abs:.4f}" for r in drep.rows)
    parts.append(f"gap on 0.2cos/0.3: {ds}, decreasing {drep.decreasing}, "
                 f"slope {drep.slope:.3f} (gate -2.0)")
    ok = ab_ok and row2_ok and diff_ok
    return ok, "; ".join(parts)


def criterion_8() -> tuple[bool, str]:
    """t * sup / initial-L1 stays bounded over five time decades."""
    data = ab_eigendata(0.3, 8)
    u0 = gaussian_ring(5.0, 1.0, 37000, 12.0, n_theta=64, angular_mode=0)
    ts = np.logspace(-2.0, 3.0, 12)
    rep = decay_profile(data, u0, ts)
    ok = (math.isfinite(rep.empirical_constant)
          and rep.max_over_median <= 3.0
          and rep.l2_max_drift <= 1e-5)
    return ok, (f"empirical constant {rep.empirical_constant:.5f}, "
                f"max/median {rep.max_over_median:.4f} (gate 3), "
                f"L2 drift {rep.l2_max_drift:.2e} (gate 1e-5)")


def criterion_9() -> tuple[bool, str]:
    """Series evolution vs time stepper, plus the unit-well order-shift clause.

    With a = 1, A = 0 the angular eigenpairs are mu_k = k^2 + 1 and
    e^{ik theta}/sqrt(2 pi), so a mode-0 ring evolves with Bessel order 1 and
    factor i^{-1}, exactly as the free flow treats the same radial profile
    times e^{i theta}: U_{a=1}(t)[f] = e^{-i theta} U_free(t)[f e^{i theta}].
    """
    t = 0.5
    u0_m1 = gaussian_ring(5.0, 1.0, 1280, 12.0, n_theta=64, angular_mode=1)
    data_ab = ab_eigendata(0.3, 24)
    orc = crank_nicolson_oracle(data_ab, u0_m1, t)
    ev = evolve(data_ab, u0_m1, t, r_out=orc.r)
    rel_ab = relative_l2_difference(ev, orc)

    u0_m0 = gaussian_ring(5.0, 1.0, 1280, 12.0, n_theta=64, angular_mode=0)
    p_gen = build_potential(a_coeffs=[0.1, 0.0, 0.1], A_coeffs=[0.3])
    data_gen = from_spectrum(compute_spectrum(p_gen, 48))
    orc_g = crank_nicolson_oracle(data_gen, u0_m0, t)
    ev_g = evolve(data_gen, u0_m0, t, r_out=orc_g.r)
    rel_gen = relative_l2_difference(ev_g, orc_g)

    p_one = build_potential(a_coeffs=[1.0], A_coeffs=[0.0])
    data_one = from_spectrum(compute_spectrum(p_one, 48))
    u_one = evolve(data_one, u0_m0, t)
    u_free = free_evolution(u0_m1, t, r_out=u_one.r)
    u_shift = replace(u_free, values=np.exp(-1j * u_free.thetas()) * u_free.values)
    rel_shift = relative_l2_difference(u_one, u_shift)

    ok = rel_ab <= 1e-3 and rel_gen <= 1e-3 and rel_shift <= 1e-4
    return ok, (f"flux 0.3 vs stepper {rel_ab:.2e}, 0.2cos/0.3 vs stepper "
                f"{rel_gen:.2e} (gates 1e-3); unit-well order-shift clause "
                f"{rel_shift:.2e} (gate 1e-4; the well moves mode 0 to Bessel "
                f"order 1, the free flow's order for mode 1)")


def criterion_10() -> tuple[bool, str]:
    """Bessel recurrence, regime overlap, and scan-constant stability."""
    r = np.linspace(0.5, 40.0, 400)
    worst_rec = 0.0
    for nu in (1.3, 2.7, 10.5):
        lhs = bessel.j_grid(nu - 1.0, r) + bessel.j_grid(nu + 1.0, r)
        rhs = (2.0 * nu / r) * bessel.j_grid(nu, r)
        worst_rec = max(worst_rec, float(np.max(np.abs(lhs - rhs))))
    worst_overlap = 0.0
    from scipy.special import jv
    for nu in (0.3, 5.0, 20.0, 60.0):
        cut = bessel.series_switch_radius(nu)
        band = np.linspace(0.6 * cut, cut, 50)
        worst_overlap = max(worst_overlap,
                            float(np.max(np.abs(bessel.j_grid(nu, band) - jv(nu, band)))))
    rep_a = bessel.landau_bound_check(250)
    rep_b = bessel.landau_bound_check(500)
    drift = abs(rep_a.constant - rep_b.constant) / rep_b.constant
    ok = (worst_rec <= 5e-9 and worst_overlap <= 1e-10
          and rep_a.finite and rep_b.finite and drift <= 0.05)
    return ok, (f"recurrence {worst_rec:.2e} (gate 5e-9), overlap "
                f"{worst_overlap:.2e} (gate 1e-10), scan constant "
                f"{rep_b.constant:.5f} with drift {drift:.4f} (gate 0.05)")


CRITERIA = (
    (1, "exact flux-line spectrum", criterion_1),
    (2, "eigenvalue asymptotics", criterion_2),
    (3, "eigenfunction remainder decay", criterion_3),
    (4, "branch equation vs galerkin", criterion_4),
    (5, "pairwise cluster localization", criterion_5),
    (6, "electric splitting and half-circulation", criterion_6),
    (7, "kernel sup scans and flux-line gap", criterion_7),
    (8, "dispersive decay sweep", criterion_8),
    (9, "time-stepper and phase oracles", criterion_9),
    (10, "bessel layer invariants", criterion_10),
)


def run_criterion(number: int) -> CriterionResult:
    num, name, func = next(c for c in CRITERIA if c[0] == number)
    t0 = time.perf_counter()
    try:
        passed, detail = func()
    except Exception as exc:  # a crash is a failure, never a skip
        passed, detail = False, f"error: {type(exc).__name__}: {exc}"
    return CriterionResult(num, name, passed, detail, time.perf_counter() - t0)


def run_all() -> list[CriterionResult]:
    """Run every criterion, printing one line each and a closing tally."""
    results = []
    for num, _name, _ in CRITERIA:
        res = run_criterion(num)
        results.append(res)
        tag = "PASS" if res.passed else "FAIL"
        print(f"criterion {res.number:2d} [{tag}] {res.name}: "
              f"{res.detail} ({res.seconds:.1f} s)")
    print(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return results
