"""Command-line entry point: experiments as subcommands over JSON configs.

Each subcommand loads a config, runs the corresponding experiment, and writes
CSV tables plus a JSON sidecar (config hash, library versions, discovered
thresholds) next to every CSV.  Exit codes: 0 all checks passed, 1 checks ran
but failed, 2 configuration problem, 3 spectral-positivity hypothesis
violation, 4 numerical-resolution failure, 5 internal error (any other
exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback

import numpy as np

from . import __version__, electric, galerkin, kernel, propagator, wkb
from .config import ExperimentConfig, config_hash, load_config
from .errors import (
    ConfigError,
    EmschroError,
    HypothesisViolation,
    InsufficientResolution,
    InvalidInput,
    NoConvergence,
    ResonantParameter,
    SymmetryViolation,
)
from .potentials import ResonanceClass, classify_resonance, require_non_resonant

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_RESOLUTION = 4
EXIT_INTERNAL = 5


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _sidecar(path: str, cfg: ExperimentConfig, thresholds: dict) -> None:
    import scipy

    meta = {
        "config_hash": config_hash(cfg),
        "versions": {"emschro": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "thresholds": thresholds,
    }
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _work_sizes(dec: galerkin.SpectralDecomposition) -> dict:
    """Sizes of the Galerkin solve, its widest eigenvector window and the
    groups that had to widen theirs, and the error budget: largest residual,
    eigenvector angle bound, largest certified enclosure radius over max(1,
    |mu|) (0 when none is certified) and the outer floor's distance above the
    last certified eigenvalue (None when none is certified)."""
    k = dec.resolved_count
    mu = dec.eigenvalues[:k]
    return {"matrix_dim": 2 * dec.M + 1, "eig_window_max": dec.window_max,
            "eig_window_widened": dec.window_widened,
            "eig_residual_max": dec.residual_max, "eig_angle_bound": dec.angle_bound,
            "eig_bound_max": float(np.max(dec.radius[:k] / np.maximum(1.0, np.abs(mu)),
                                          initial=0.0)),
            "outer_floor_gap": dec.outer_floor - float(mu[-1]) if k else None}


def _out(cfg: ExperimentConfig, override: str | None, name: str) -> str:
    base = override or cfg.output_dir
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


# -- spectrum ----------------------------------------------------------------------


def cmd_spectrum(cfg: ExperimentConfig, out_dir: str | None) -> int:
    sec = cfg.section("spectrum")
    p = cfg.potential
    dec = galerkin.compute_spectrum(p, sec["M"])
    path = _out(cfg, out_dir, "eigenvalues.csv")
    _write_csv(path, ["k", "mu"], galerkin.spectrum_rows(dec))

    thresholds: dict = {
        "hermitian_defect": dec.hermitian_defect,
        "resolved_count": dec.resolved_count,
        "reduced_circulation": p.reduced_circulation,
        **_work_sizes(dec),
    }
    passed = dec.resolved_count > 0
    cls = classify_resonance(p)
    thresholds["resonance_class"] = cls.value

    if cls is ResonanceClass.NON_RESONANT:
        j_list = list(range(sec["j_min"], sec["j_max"] + 1))
        table = wkb.asymptotic_residuals(dec, j_list)
        _write_csv(
            _out(cfg, out_dir, "residuals.csv"),
            ["j", "k", "mu", "eig_residual", "scaled_eig", "sup_R", "scaled_sup",
             "overlap", "flagged"],
            [(r.j, r.k, r.mu, r.eig_residual, r.scaled_eig, r.sup_R, r.scaled_sup,
              r.overlap, r.flagged) for r in table.rows],
        )
        cluster = galerkin.cluster_check(dec, sec["cluster_k_min"], sec["cluster_k_max"])
        _write_csv(
            _out(cfg, out_dir, "clusters.csv"),
            ["k", "center", "radius", "count"],
            [(r.k, r.center, r.radius, r.count) for r in cluster.rows],
        )
        thresholds.update(eig_slope=table.eig_slope, fun_slope=table.fun_slope,
                          ell_eff=table.ell_eff, cluster_passed=cluster.passed,
                          cluster_smallest_c=cluster.smallest_c)
        passed = passed and cluster.passed and not any(r.flagged for r in table.rows)
    else:
        try:
            if cls is ResonanceClass.INTEGER:
                k_values = sec["k_values"] or list(range(4, 33))
                table = electric.splitting_table(dec, k_values)
                _write_csv(
                    _out(cfg, out_dir, "splitting.csv"),
                    ["k", "lam_sine", "lam_cosine", "splitting",
                     "predicted_splitting", "scaled_splitting_error", "scaled_match"],
                    [(r.k, r.lam_sine, r.lam_cosine, r.splitting,
                      r.predicted_splitting, r.scaled_splitting_error, r.scaled_match)
                     for r in table.rows],
                )
                thresholds.update(split_error_slope=table.split_error_slope,
                                  match_slope=table.match_slope)
                passed = passed and all(
                    math.isfinite(r.scaled_match) for r in table.rows)
            else:
                j_values = sec["j_values"] or list(range(4, 33))
                table = electric.half_integer_table(dec, j_values)
                _write_csv(
                    _out(cfg, out_dir, "half_integer.csv"),
                    ["j", "predicted", "mu_low", "mu_high", "residual",
                     "scaled_residual"],
                    [(r.j, r.predicted, r.mu_pair[0], r.mu_pair[1], r.residual,
                      r.scaled_residual) for r in table.rows],
                )
                thresholds.update(half_integer_slope=table.slope)
                passed = passed and all(
                    math.isfinite(r.scaled_residual) for r in table.rows)
        except SymmetryViolation as exc:
            thresholds["asymptotics_skipped"] = str(exc)

    _sidecar(path, cfg, thresholds)
    print(f"spectrum: resolved {dec.resolved_count} eigenvalues, "
          f"class {cls.value}, {'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_FAIL


# -- wkb ---------------------------------------------------------------------------


def cmd_wkb(cfg: ExperimentConfig, out_dir: str | None) -> int:
    sec = cfg.section("wkb")
    p = cfg.potential
    require_non_resonant(p)
    dec = galerkin.compute_spectrum(p, sec["M"])
    if dec.resolved_count == 0:
        raise InsufficientResolution(
            f"no eigenvalue certified at M = {sec['M']}: {dec.certificate_limit()}; "
            "increase M")
    mu = dec.eigenvalues[:dec.resolved_count]
    rows = []
    worst = 0.0
    for j in sec["j_list"]:
        branch = "plus" if j > 0 else "minus"
        pair = wkb.solve_eigenvalue(p, j, branch, delta=sec["delta"])
        nearest = float(mu[np.argmin(np.abs(mu - pair.lam))])
        diff = abs(pair.lam - nearest)
        worst = max(worst, diff)
        rows.append((pair.j, pair.branch, pair.lam, pair.s, pair.mean_W.real,
                     pair.fp_residual, nearest, diff))
    path = _out(cfg, out_dir, "wkb.csv")
    _write_csv(path, ["j", "branch", "lambda", "s", "mean_W", "fp_residual",
                      "galerkin_mu", "abs_diff"], rows)
    lam_eff = wkb.discover_lambda_eff(p, delta=sec["delta"])
    _sidecar(path, cfg, {"lambda_eff": lam_eff, "worst_match": worst, **_work_sizes(dec)})
    passed = worst < 1e-6
    print(f"wkb: {len(rows)} eigenvalues, worst Galerkin match {worst:.3e}, "
          f"{'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_FAIL


# -- kernel scan -------------------------------------------------------------------


def _is_pure_ab(p) -> bool:
    return (p.a_bandwidth == 0 and p.A_bandwidth == 0
            and abs(p.a_mean) < 1e-14)


def cmd_kernel_scan(cfg: ExperimentConfig, out_dir: str | None) -> int:
    sec = cfg.section("kernel_scan")
    p = cfg.potential
    if sec["difference"]:
        kernel.difference_ells(sec["ells"], sec["rho_max"])   # refused before any work
    dec = galerkin.compute_spectrum(p, sec["M"])
    data = kernel.from_spectrum(dec, count=sec["count"])
    scan = kernel.sup_scan(data, rho_max=sec["rho_max"], n_rho=sec["n_rho"],
                           n_theta=sec["n_theta"], tol=sec["tol"])

    rho = np.linspace(0.0, sec["rho_max"], sec["n_rho"])
    step = 1 if sec["full_grid"] else max(1, sec["n_rho"] // 40)
    rows = []
    for n in range(0, rho.size, step):
        val = scan.row_values[n]
        cut, tail = kernel.truncation(data, float(rho[n]), sec["tol"])
        rows.append((rho[n], *scan.row_argmax[n], val.real, val.imag, abs(val),
                     cut, tail))
    path = _out(cfg, out_dir, "kernel_scan.csv")
    _write_csv(path, ["rho", "theta", "theta_prime", "re_k", "im_k", "abs_k",
                      "terms_used", "tail_bound"], rows)

    thresholds = {
        "max_abs": scan.max_abs,
        "argmax": list(scan.argmax),
        "top_two_decade_variation": scan.top_two_decade_variation,
        "window_maxima": list(scan.window_maxima),
        **_work_sizes(dec),
    }
    if _is_pure_ab(p):
        ab = kernel.circulation_eigendata(p.circulation, (data.count - 1) // 2)
        diffs = [
            abs(kernel.kernel_value(data, 1.0, 0.4, 0.0).value
                - kernel.kernel_value(ab, 1.0, 0.4, 0.0).value),
            abs(kernel.kernel_value(data, 7.5, 2.0, 0.0).value
                - kernel.kernel_value(ab, 7.5, 2.0, 0.0).value),
        ]
        thresholds["closed_form_max_diff"] = max(diffs)
    if sec["difference"]:
        diff = kernel.difference_scan(dec, ells=sec["ells"], rho_max=sec["rho_max"])
        _write_csv(_out(cfg, out_dir, "kernel_difference.csv"),
                   ["ell", "max_abs", "terms"],
                   [(r.ell, r.max_abs, r.terms) for r in diff.rows])
        thresholds["difference_decreasing"] = diff.decreasing
        thresholds["difference_slope"] = diff.slope

    _sidecar(path, cfg, thresholds)
    passed = math.isfinite(scan.max_abs) and scan.top_two_decade_variation <= 0.10
    print(f"kernel-scan: max |K| = {scan.max_abs:.6f}, window variation "
          f"{100 * scan.top_two_decade_variation:.2f}%, {'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_FAIL


# -- decay -------------------------------------------------------------------------


def cmd_decay(cfg: ExperimentConfig, out_dir: str | None) -> int:
    sec = cfg.section("decay")
    p = cfg.potential
    # the ring refuses r0 >= r_max before any solve
    u0 = propagator.gaussian_ring(sec["r0"], sec["w"], sec["n_r"], sec["r_max"],
                                  sec["n_theta"], sec["angular_mode"])
    dec = galerkin.compute_spectrum(p, sec["M"])
    data = kernel.from_spectrum(dec, count=sec["count"])
    report = propagator.decay_profile(data, u0, sec["t_list"])
    rows = [(row.t, row.sup_norm, row.decay_functional,
             row.l2_norm / report.l2_initial) for row in report.rows]
    path = _out(cfg, out_dir, "decay.csv")
    _write_csv(path, ["t", "sup_norm", "decay_functional", "l2_ratio"], rows)

    thresholds = {
        "empirical_C": report.empirical_constant,
        "max_over_median": report.max_over_median,
        "l2_max_drift": report.l2_max_drift,
        "l1_initial": report.l1_initial,
        "l2_initial": report.l2_initial,
        **_work_sizes(dec),
    }
    if sec["snapshots"]:
        for idx, row in enumerate(report.rows):
            propagator.save_field(_out(cfg, out_dir, f"field_{idx:03d}.bin"), row.field)
    if sec["oracle"]:
        t0 = sec["oracle_t"]
        cn = propagator.crank_nicolson_oracle(data, u0, t0)
        rep = propagator.evolve(data, u0, t0, r_out=cn.r)
        thresholds["oracle_rel_l2"] = propagator.relative_l2_difference(rep, cn)

    _sidecar(path, cfg, thresholds)
    passed = report.l2_max_drift <= 1e-5 and math.isfinite(report.empirical_constant)
    if sec["oracle"]:
        passed = passed and thresholds["oracle_rel_l2"] <= 1e-3
    print(f"decay: empirical C = {report.empirical_constant:.6f}, "
          f"L2 drift {report.l2_max_drift:.2e}, {'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_FAIL


# -- validate ----------------------------------------------------------------------


def cmd_validate() -> int:
    from .acceptance import run_all

    results = run_all()
    return EXIT_PASS if all(r.passed for r in results) else EXIT_FAIL


# -- entry point -------------------------------------------------------------------

_COMMANDS = {
    "spectrum": (cmd_spectrum, True),
    "wkb": (cmd_wkb, True),
    "kernel-scan": (cmd_kernel_scan, True),
    "decay": (cmd_decay, True),
    "validate": (cmd_validate, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emschro",
        description="Spectra, kernels, and dispersive decay for scaling-critical "
                    "electromagnetic Schroedinger operators on the circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, needs_config) in _COMMANDS.items():
        sp = sub.add_parser(name)
        if needs_config:
            sp.add_argument("config", help="path to a JSON experiment config")
            sp.add_argument("--output-dir", default=None,
                            help="override the config's output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fn, needs_config = _COMMANDS[args.command]
    try:
        if needs_config:
            cfg = load_config(args.config)
            return fn(cfg, args.output_dir)
        return fn()
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ConfigError, InvalidInput, ResonantParameter) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InsufficientResolution, NoConvergence) as exc:
        print(f"resolution failure: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION
    except EmschroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
