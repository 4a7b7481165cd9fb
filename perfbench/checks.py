"""Correctness of one CLI task's outputs.

Two layers of checks, both with tolerances taken from what the code states it
guarantees, never fitted to the observed numbers:

* gates that need no reference: the expected exit code, certified kernel tails
  below the scan `tol`, L2 drift within the 1e-5 decay gate, CN oracle gap
  within the 1e-3 gate, WKB-vs-Galerkin match within the 1e-6 wkb gate, and
  flux-line eigenvalues equal to the closed form (k + alpha)^2 to 1e-10;
* when `reference/<workload>.json` has the seed: the same CSV headers and row
  counts, no fewer certified eigenvalues, and values within tolerance of the
  committed results.  Certified eigenvalues agree with their 1.5 M re-solve to
  relative 1e-9, so two correct runs differ by at most 2e-9 relative; kernel
  values are certified to `tol` each, so they differ by at most 2 tol; decay
  sup norms are gated against the Crank-Nicolson oracle at relative 1e-3.
"""

from __future__ import annotations

import csv
import json
import math
import os

EIG_RTOL = 2e-9          # two values each certified to relative 1e-9
FLUX_LINE_RTOL = 1e-10   # exact diagonal spectrum of a constant circulation
WKB_MATCH_GATE = 1e-6    # cmd_wkb pass gate
DRIFT_GATE = 1e-5        # cmd_decay pass gate on the L2 drift
ORACLE_GATE = 1e-3       # cmd_decay pass gate on the CN oracle gap
SERIES_RTOL = 1e-3       # series evolution certified against CN to 1e-3
EIG_KEEP = 64            # leading eigenvalues stored in the reference

# CSV columns compared against the reference, with their tolerance kind.
_COLUMNS = {
    "eigenvalues.csv": {"mu": "eig"},
    "residuals.csv": {"mu": "eig"},
    "splitting.csv": {"lam_sine": "eig", "lam_cosine": "eig"},
    "half_integer.csv": {"mu_low": "eig", "mu_high": "eig"},
    "wkb.csv": {"lambda": "eig", "galerkin_mu": "eig"},
    "kernel_scan.csv": {"rho": "exact", "abs_k": "kernel"},
    "kernel_difference.csv": {"max_abs": "kernel"},
    "decay.csv": {"t": "exact", "sup_norm": "series", "decay_functional": "series"},
}
_THRESHOLDS = {
    "eigenvalues.csv": ("resolved_count",),
    "wkb.csv": ("worst_match",),
    "kernel_scan.csv": ("max_abs",),
    "decay.csv": ("l2_max_drift", "oracle_rel_l2"),
}


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def summarize(out_dir: str, code: int) -> dict:
    """Compact record of a task's outputs: exit code, CSV headers and columns,
    selected sidecar thresholds.  This is what the reference stores."""
    rec = {"exit": code, "files": {}}
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
        if name not in _COLUMNS:
            continue
        path = os.path.join(out_dir, name)
        header, body = _read_csv(path)
        cols = {c: [float(r[header.index(c)]) for r in body]
                for c in (*_COLUMNS[name], "tail_bound") if c in header}
        keep = {c: cols[c] for c in _COLUMNS[name]}
        if name == "eigenvalues.csv":
            keep["mu"] = keep["mu"][:EIG_KEEP]
        thr = {}
        if name in _THRESHOLDS and os.path.isfile(path + ".meta.json"):
            with open(path + ".meta.json") as fh:
                thr = json.load(fh)["thresholds"]
        rec["files"][name] = {
            "header": header, "rows": len(body),
            "columns": keep,
            "thresholds": {k: thr[k] for k in _THRESHOLDS.get(name, ()) if k in thr},
        }
        if name == "kernel_scan.csv":
            rec["files"][name]["tail_bound_max"] = max(cols["tail_bound"])
    return rec


def _close(kind: str, got: float, want: float, tol: float) -> bool:
    if kind == "exact":
        return got == want
    if kind == "eig":
        return abs(got - want) <= EIG_RTOL * max(1.0, abs(want))
    if kind == "kernel":
        return abs(got - want) <= 2.0 * tol
    return abs(got - want) <= SERIES_RTOL * abs(want)


def figures(rec: dict) -> dict:
    """Certified-accuracy figures a task reports (worst values)."""
    if rec["exit"] != 0:
        return {}
    f = rec["files"]
    out = {}
    if "eigenvalues.csv" in f:
        out["resolved_modes"] = f["eigenvalues.csv"]["thresholds"]["resolved_count"]
    if "wkb.csv" in f:
        out["eig_gap"] = f["wkb.csv"]["thresholds"]["worst_match"]
    if "kernel_scan.csv" in f:
        out["tail_bound"] = f["kernel_scan.csv"]["tail_bound_max"]
    if "decay.csv" in f:
        thr = f["decay.csv"]["thresholds"]
        out["l2_drift"] = thr["l2_max_drift"]
        if "oracle_rel_l2" in thr:
            out["oracle_gap"] = thr["oracle_rel_l2"]
    return out


def check(task, rec: dict, ref: dict | None) -> list[str]:
    """Problems with one task's outputs; empty when it is correct."""
    problems = []
    if rec["exit"] != task.expect_exit:
        return [f"exit {rec['exit']}, expected {task.expect_exit}"]
    if task.expect_exit != 0:
        if rec["files"]:
            problems.append("refused task wrote result tables")
        return problems
    problems += _gates(task, rec)
    if ref is not None:
        problems += _against_reference(task, rec, ref)
    return problems


def _gates(task, rec: dict) -> list[str]:
    f = rec["files"]
    cfg = task.config
    problems = []
    expected = {"spectrum": "eigenvalues.csv", "wkb": "wkb.csv",
                "kernel-scan": "kernel_scan.csv", "decay": "decay.csv"}[task.command]
    if expected not in f:
        return [f"{expected} missing"]
    if task.command == "wkb" and f["wkb.csv"]["thresholds"]["worst_match"] >= WKB_MATCH_GATE:
        problems.append("wkb match above the 1e-6 gate")
    if task.command == "kernel-scan":
        tol = cfg["kernel_scan"].get("tol", 1e-9)
        if not f["kernel_scan.csv"]["tail_bound_max"] <= tol:
            problems.append(f"certified tail {f['kernel_scan.csv']['tail_bound_max']:.3e} "
                            f"above tol {tol}")
    if task.command == "decay":
        thr = f["decay.csv"]["thresholds"]
        if not thr["l2_max_drift"] <= DRIFT_GATE:
            problems.append(f"L2 drift {thr['l2_max_drift']:.3e} above the 1e-5 gate")
        if cfg["decay"].get("oracle") and not thr.get("oracle_rel_l2", math.inf) <= ORACLE_GATE:
            problems.append("oracle gap above the 1e-3 gate")
    if task.command == "spectrum" and _is_flux_line(cfg["potential"]):
        problems += _flux_line_exact(cfg, f["eigenvalues.csv"])
    return problems


def _is_flux_line(pot: dict) -> bool:
    return pot["a_coeffs"] == [[0.0, 0.0]] and len(pot["A_coeffs"]) == 1


def _flux_line_exact(cfg: dict, eig: dict) -> list[str]:
    alpha = cfg["potential"]["A_coeffs"][0][0]
    M = cfg["spectrum"]["M"]
    exact = sorted((j + alpha) ** 2 for j in range(-M, M + 1))
    mu = eig["columns"]["mu"]
    bad = [k for k, (m, e) in enumerate(zip(mu, exact))
           if abs(m - e) > FLUX_LINE_RTOL * max(1.0, e)]
    return [f"flux-line eigenvalue {bad[0] + 1} off the closed form"] if bad else []


def _against_reference(task, rec: dict, ref: dict) -> list[str]:
    problems = []
    if rec["exit"] != ref["exit"]:
        return [f"exit {rec['exit']}, reference {ref['exit']}"]
    if sorted(rec["files"]) != sorted(ref["files"]):
        return [f"tables {sorted(rec['files'])}, reference {sorted(ref['files'])}"]
    tol = task.config.get("kernel_scan", {}).get("tol", 1e-9)
    for name, want in ref["files"].items():
        got = rec["files"][name]
        if got["header"] != want["header"] or got["rows"] != want["rows"]:
            problems.append(f"{name}: header or row count differs from the reference")
            continue
        for col, kind in _COLUMNS[name].items():
            g, w = got["columns"][col], want["columns"][col]
            if len(g) != len(w):
                problems.append(f"{name}:{col} length differs from the reference")
                continue
            bad = [i for i, (x, y) in enumerate(zip(g, w)) if not _close(kind, x, y, tol)]
            if bad:
                i = bad[0]
                problems.append(f"{name}:{col}[{i}] = {g[i]!r}, reference {w[i]!r}")
        if name == "eigenvalues.csv":
            n, n_ref = (x["thresholds"]["resolved_count"] for x in (got, want))
            if n < n_ref:
                problems.append(f"resolved {n} eigenvalues, reference {n_ref}")
        if name == "kernel_scan.csv":
            g, w = got["thresholds"]["max_abs"], want["thresholds"]["max_abs"]
            if not _close("kernel", g, w, tol):
                problems.append(f"max |K| {g!r}, reference {w!r}")
    return problems
