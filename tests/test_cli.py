"""Command-line behavior: exit codes, deterministic tables, sidecars."""

import csv
import dataclasses
import json

import numpy as np
import pytest

import emschro
from emschro import acceptance, cli, galerkin, kernel
from emschro.potentials import build_potential


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def ab_config(tmp_path):
    return write_config(tmp_path, "ab.json", {
        "potential": {"a_coeffs": [[0.0, 0.0]], "A_coeffs": [[0.3, 0.0]]},
        "output_dir": str(tmp_path / "out"),
        "spectrum": {"M": 32, "j_max": 12, "cluster_k_min": 10, "cluster_k_max": 16},
        "wkb": {"M": 32, "j_list": [8, -8, 10]},
        "kernel_scan": {"rho_max": 20.0, "n_rho": 60, "n_theta": 16},
        "decay": {"n_r": 256, "t_list": [0.1, 1.0, 10.0, 100.0]},
    })


def test_fmt_is_round_trip_exact():
    assert cli._fmt(0.1) == "0.10000000000000001"
    assert cli._fmt(True) == "true"
    assert cli._fmt(False) == "false"
    assert cli._fmt(7) == "7"
    assert float(cli._fmt(1.0 / 3.0)) == 1.0 / 3.0


def test_spectrum_writes_tables_and_sidecar(ab_config, tmp_path):
    assert cli.main(["spectrum", ab_config]) == 0
    out = tmp_path / "out"
    for name in ("eigenvalues.csv", "residuals.csv", "clusters.csv",
                 "eigenvalues.csv.meta.json"):
        assert (out / name).exists()
    meta = json.loads((out / "eigenvalues.csv.meta.json").read_text())
    assert set(meta) == {"config_hash", "thresholds", "versions"}
    assert meta["thresholds"]["resonance_class"] == "non_resonant"
    header = (out / "eigenvalues.csv").read_text().splitlines()[0]
    assert header == "k,mu"


def test_spectrum_output_is_deterministic(ab_config, tmp_path):
    assert cli.main(["spectrum", ab_config]) == 0
    first = (tmp_path / "out" / "eigenvalues.csv").read_bytes()
    assert cli.main(["spectrum", ab_config]) == 0
    assert (tmp_path / "out" / "eigenvalues.csv").read_bytes() == first


def test_output_dir_override(ab_config, tmp_path):
    other = tmp_path / "elsewhere"
    assert cli.main(["spectrum", ab_config, "--output-dir", str(other)]) == 0
    assert (other / "eigenvalues.csv").exists()


def test_wkb_command(ab_config, tmp_path):
    assert cli.main(["wkb", ab_config]) == 0
    lines = (tmp_path / "out" / "wkb.csv").read_text().splitlines()
    assert lines[0].startswith("j,branch")
    assert len(lines) == 4  # three requested indices


def test_sidecars_record_galerkin_work_sizes(ab_config, tmp_path):
    for command, table in (("spectrum", "eigenvalues.csv"), ("wkb", "wkb.csv")):
        assert cli.main([command, ab_config]) == 0
        meta = json.loads((tmp_path / "out" / f"{table}.meta.json").read_text())
        budget = meta["thresholds"]
        sizes = {k: budget[k] for k in ("matrix_dim", "eig_window_max", "eig_window_widened")}
        assert sizes == {"matrix_dim": 65, "eig_window_max": 0, "eig_window_widened": 0}
        # flux line: mu = (j + 0.3)^2, the top (32.3)^2 certified under the outer
        # floor (-33 + 0.3)^2, both to their rounding allowances
        assert budget["outer_floor_gap"] == pytest.approx(32.7 ** 2 - 32.3 ** 2, rel=1e-9)
        assert 0.0 < budget["eig_bound_max"] < 1e-13
        assert "reference_dim" not in budget and "band_halfwidth" not in budget


def test_sidecars_record_the_eigensolve_error_budget(tmp_path):
    # a = 1 + cos(theta), A = 0.3: a banded, positive-well operator every command accepts
    config = write_config(tmp_path, "well.json", {
        "potential": {"a_coeffs": [[0.5, 0.0], [1.0, 0.0], [0.5, 0.0]],
                      "A_coeffs": [[0.3, 0.0]]},
        "output_dir": str(tmp_path / "out"),
        "spectrum": {"M": 32, "j_max": 12, "cluster_k_min": 4, "cluster_k_max": 8},
        "wkb": {"M": 32, "j_list": [8, -8]},
        "kernel_scan": {"M": 32, "rho_max": 5.0, "n_rho": 8, "n_theta": 8},
        "decay": {"M": 16, "n_r": 640, "t_list": [1.0, 10.0, 100.0, 1000.0]},
    })
    dec = galerkin.compute_spectrum(build_potential(a_coeffs=[0.5, 1.0, 0.5],
                                                    A_coeffs=[0.3]), 32)
    for command, table in (("spectrum", "eigenvalues.csv"), ("wkb", "wkb.csv"),
                           ("kernel-scan", "kernel_scan.csv"), ("decay", "decay.csv")):
        cli.main([command, config])
        meta = json.loads((tmp_path / "out" / f"{table}.meta.json").read_text())
        budget = meta["thresholds"]
        assert 0.0 < budget["eig_residual_max"] < 1e-9
        assert 0.0 < budget["eig_angle_bound"] < 1e-9
        if command in ("spectrum", "wkb", "kernel-scan"):
            assert (budget["eig_residual_max"], budget["eig_angle_bound"]) == (
                dec.residual_max, dec.angle_bound)
            assert (budget["eig_window_max"], budget["eig_window_widened"]) == (
                dec.window_max, dec.window_widened) == (65, 0)


def test_spectrum_certifies_a_large_truncation(tmp_path):
    # a = 0.2 cos(theta), A = 0.3 at M = 448: every eigenvalue certified, the
    # sidecar's budget within the tolerance
    config = write_config(tmp_path, "big.json", {
        "potential": {"a_coeffs": [[0.1, 0.0], [0.0, 0.0], [0.1, 0.0]],
                      "A_coeffs": [[0.3, 0.0]]},
        "output_dir": str(tmp_path / "out"),
        "spectrum": {"M": 448, "j_max": 12, "cluster_k_min": 10, "cluster_k_max": 16},
    })
    assert cli.main(["spectrum", config]) == 0
    budget = json.loads((tmp_path / "out" / "eigenvalues.csv.meta.json").read_text())[
        "thresholds"]
    assert budget["resolved_count"] == budget["matrix_dim"] == 897
    assert 0.0 < budget["eig_bound_max"] <= galerkin.RESOLVE_RTOL
    assert budget["outer_floor_gap"] > 0.0


def test_spectrum_samples_residuals_on_a_grid_that_holds_every_mode(tmp_path):
    # a fixed 2048-point grid once refused M >= 1024 with exit 2
    config = write_config(tmp_path, "wide.json", {
        "potential": {"a_coeffs": [[0.1, 0.0], [0.0, 0.0], [0.1, 0.0]],
                      "A_coeffs": [[0.3, 0.0]]},
        "output_dir": str(tmp_path / "out"),
        "spectrum": {"M": 1030},
    })
    assert cli.main(["spectrum", config]) == cli.EXIT_PASS


def test_refusals_name_the_bound_that_stopped_the_certified_run(tmp_path, capsys):
    # a = cos(theta) + 0.5 sin(2 theta), A = 0.3 + 0.2 cos(theta) at M = 6: the
    # fifth eigenvalue's enclosure is too wide, well below the outer floor
    config = write_config(tmp_path, "small.json", {
        "potential": {"a_coeffs": [[0.0, 0.25], [0.5, 0.0], [0.0, 0.0], [0.5, 0.0],
                                   [0.0, -0.25]],
                      "A_coeffs": [[0.1, 0.0], [0.3, 0.0], [0.1, 0.0]]},
        "output_dir": str(tmp_path / "out"),
        "spectrum": {"M": 6, "j_max": 12, "cluster_k_min": 10, "cluster_k_max": 16},
    })
    assert cli.main(["spectrum", config]) == cli.EXIT_RESOLUTION
    err = capsys.readouterr().err
    assert "eigenvalue 5 (mu = " in err and "enclosure radius" in err
    assert "increase M" in err


def test_kernel_scan_command(ab_config, tmp_path):
    assert cli.main(["kernel-scan", ab_config]) == 0
    assert (tmp_path / "out" / "kernel_scan.csv").exists()


def test_kernel_scan_rows_match_direct_evaluation(ab_config, tmp_path):
    assert cli.main(["kernel-scan", ab_config]) == 0
    with open(tmp_path / "out" / "kernel_scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60           # stride max(1, 60 // 40) = 1
    p = build_potential(a_coeffs=[0.0], A_coeffs=[0.3])
    data = kernel.from_spectrum(galerkin.compute_spectrum(p, 160))
    tol = 1e-9
    theta = 2.0 * np.pi * np.arange(16) / 16
    for row in rows:
        rho = float(row["rho"])
        direct = np.abs(kernel.evaluate_grid(data, np.array([rho]), theta, theta, tol))
        assert abs(float(row["abs_k"]) - float(direct.max())) <= 2 * tol
        assert int(row["terms_used"]) == kernel.cutoff_index(data, rho, tol)


def test_flux_line_with_zero_harmonics_is_checked_against_the_closed_form(tmp_path):
    """A padded spelling of a constant pair is still the pure flux line."""
    scan = {"M": 64, "rho_max": 20.0, "n_rho": 20, "n_theta": 8}
    metas = []
    for name, pot in (("plain", {"a_coeffs": [[0.0, 0.0]], "A_coeffs": [[0.3, 0.0]]}),
                      ("padded", {"a_coeffs": [[0.0, 0.0]] * 3,
                                  "A_coeffs": [[0.0, 0.0], [0.3, 0.0], [0.0, 0.0]]})):
        cfg = write_config(tmp_path, f"{name}.json", {
            "potential": pot, "output_dir": str(tmp_path / "out"), "kernel_scan": scan})
        assert cli.main(["kernel-scan", cfg]) == 0
        metas.append(json.loads((tmp_path / "out" / "kernel_scan.csv.meta.json").read_text()))
    assert metas[1]["thresholds"]["closed_form_max_diff"] < 1e-9
    assert metas[1] == metas[0]


def test_wkb_without_certified_eigenvalues_is_a_resolution_failure(ab_config, monkeypatch):
    real = galerkin.compute_spectrum

    def uncertified(p, M, *args, **kw):
        return dataclasses.replace(real(p, M, *args, **kw), resolved_count=0)

    monkeypatch.setattr(galerkin, "compute_spectrum", uncertified)
    assert cli.main(["wkb", ab_config]) == cli.EXIT_RESOLUTION


def test_wkb_refuses_a_resonant_circulation_before_any_solve(tmp_path, monkeypatch, capsys):
    solved = []
    monkeypatch.setattr(galerkin, "compute_spectrum", lambda *a, **kw: solved.append(a))
    cfg = write_config(tmp_path, "half.json", {
        "potential": {"a_coeffs": [[0.0, 0.0]], "A_coeffs": [[0.5, 0.0]]},
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["wkb", cfg]) == cli.EXIT_CONFIG
    assert solved == []
    assert "resonant set (half_integer_circulation)" in capsys.readouterr().err


def test_decay_refuses_a_ring_past_r_max_before_any_solve(tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kw):
        raise AssertionError("compute_spectrum ran before the ring was checked")

    monkeypatch.setattr(galerkin, "compute_spectrum", no_solve)
    cfg = write_config(tmp_path, "ring.json", {
        "potential": {"a_coeffs": [[0.0, 0.0]], "A_coeffs": [[0.3, 0.0]]},
        "output_dir": str(tmp_path / "out"),
        "decay": {"M": 200, "r0": 20.0},
    })
    assert cli.main(["decay", cfg]) == cli.EXIT_CONFIG
    assert "r_max > r0" in capsys.readouterr().err


def test_decay_refuses_a_ring_that_underflows_to_zero(tmp_path, capsys):
    # w = 1e-6 is far below the radial spacing: every sample of the ring is 0
    cfg = write_config(tmp_path, "zero.json", {
        "potential": {"a_coeffs": [[0.0, 0.0]], "A_coeffs": [[0.3, 0.0]]},
        "output_dir": str(tmp_path / "out"),
        "decay": {"M": 16, "n_r": 2048, "t_list": [1.0, 1000.0], "w": 1e-6},
    })
    assert cli.main(["decay", cfg]) == cli.EXIT_CONFIG
    assert "initial data is zero" in capsys.readouterr().err


@pytest.mark.parametrize("t", [1e-300, 5e-324])
def test_decay_refuses_a_tiny_time_as_a_resolution_failure(tmp_path, capsys, t):
    cfg = write_config(tmp_path, "tiny.json", {
        "potential": {"a_coeffs": [[0.0, 0.0]], "A_coeffs": [[0.3, 0.0]]},
        "output_dir": str(tmp_path / "out"),
        "decay": {"M": 16, "n_r": 2048, "t_list": [t, 1.0]},
    })
    assert cli.main(["decay", cfg]) == cli.EXIT_RESOLUTION
    assert f"too coarse for t = {t}: 2048 points, need at least" in capsys.readouterr().err


def test_decay_snapshots_load_back_as_the_evolved_fields(tmp_path):
    cfg = write_config(tmp_path, "snap.json", {
        "potential": {"a_coeffs": [[0.0, 0.0]], "A_coeffs": [[0.3, 0.0]]},
        "output_dir": str(tmp_path / "out"),
        "decay": {"n_r": 1024, "t_list": [1.0, 10.0, 100.0, 1000.0], "snapshots": True},
    })
    assert cli.main(["decay", cfg]) == cli.EXIT_PASS
    back = emschro.load_field(str(tmp_path / "out" / "field_001.bin"))
    data = kernel.from_spectrum(galerkin.compute_spectrum(
        build_potential(a_coeffs=[0.0], A_coeffs=[0.3]), 48))
    res = emschro.evolve_result(data, emschro.gaussian_ring(5.0, 1.0, 1024, 12.0), 10.0)
    assert back.t == 10.0
    assert np.array_equal(back.r, res.field.r)
    assert np.array_equal(back.values, res.field.values)
    with open(tmp_path / "out" / "decay.csv") as fh:
        row = list(csv.DictReader(fh))[1]
    assert float(row["sup_norm"]) == back.sup_norm()


def test_exit_code_hypothesis_violation(tmp_path):
    cfg = write_config(tmp_path, "neg.json", {
        "potential": {"a_coeffs": [[0.5, 0.0], [0.0, 0.0], [0.5, 0.0]],
                      "A_coeffs": [[0.3, 0.0]]},
        "output_dir": str(tmp_path / "out"),
        "kernel_scan": {"M": 48, "rho_max": 6.0, "n_rho": 10, "n_theta": 8},
    })
    assert cli.main(["kernel-scan", cfg]) == cli.EXIT_HYPOTHESIS


def test_exit_code_config_errors(tmp_path):
    assert cli.main(["spectrum", str(tmp_path / "nope.json")]) == cli.EXIT_CONFIG
    bad = write_config(tmp_path, "bad.json", {
        "potential": {"a_coeffs": [[0.0, 0.0]], "A_coeffs": [[0.3, 0.0]]},
        "spectrum": {"M": 32, "typo": 1},
    })
    assert cli.main(["spectrum", bad]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("section,key,value", [
    ("spectrum", "delta", 0.05), ("spectrum", "grid_n", 2048), ("wkb", "grid_n", 512),
    ("decay", "preset", "gaussian_ring"),
    pytest.param(None, "seed", 11, id="top-level-seed-11"),
])
def test_keys_that_changed_nothing_are_config_errors(tmp_path, section, key, value):
    """Removed keys exit 2; a None section puts the key at the top level."""
    doc = {"potential": {"a_coeffs": [[0.0, 0.0]], "A_coeffs": [[0.3, 0.0]]},
           "output_dir": str(tmp_path / "out")}
    doc.update({key: value} if section is None else {section: {key: value}})
    cfg = write_config(tmp_path, "removed.json", doc)
    assert cli.main([section or "spectrum", cfg]) == cli.EXIT_CONFIG


# before list and flag keys were checked, most of these exited 5 or ran on silently
@pytest.mark.parametrize("section,key,value", [
    ("kernel_scan", "ells", [200]), ("kernel_scan", "ells", []),
    ("kernel_scan", "ells", [0, 4]), ("kernel_scan", "ells", [2.5, 4]),
    ("kernel_scan", "ells", [-3]), ("kernel_scan", "ells", 4),
    ("kernel_scan", "difference", 1), ("kernel_scan", "full_grid", "yes"),
    ("decay", "t_list", ["x", 1.0]), ("decay", "t_list", 5), ("decay", "t_list", []),
    ("decay", "oracle", "true"),
    ("decay", "snapshots", 0), ("decay", "angular_mode", 1.5),
    ("wkb", "j_list", [8.5]), ("wkb", "j_list", []), ("wkb", "j_list", [8, 0]),
    ("spectrum", "M", True), ("spectrum", "k_values", []),
    ("spectrum", "j_values", [4, 4.5]),
], ids=lambda v: json.dumps(v) if isinstance(v, list) else None)
def test_list_and_flag_keys_of_the_wrong_kind_are_config_errors(tmp_path, section, key,
                                                                value):
    # a small difference scan, so ells = [200] meets the j_max rule (j_max = 34 here)
    given = {"M": 32, "rho_max": 4.0, "n_rho": 8, "n_theta": 8, "difference": True}
    cfg = write_config(tmp_path, "typed.json", {
        "potential": {"a_coeffs": [[0.0, 0.0]], "A_coeffs": [[0.3, 0.0]]},
        "output_dir": str(tmp_path / "out"),
        section: {**given, key: value} if section == "kernel_scan" else {key: value},
    })
    assert cli.main([section.replace("_", "-"), cfg]) == cli.EXIT_CONFIG


def test_out_of_range_ells_are_refused_before_any_work(tmp_path, monkeypatch):
    solved = []
    monkeypatch.setattr(galerkin, "compute_spectrum", lambda *args: solved.append(args))
    cfg = write_config(tmp_path, "ells.json", {
        "potential": {"a_coeffs": [[0.0, 0.0]], "A_coeffs": [[0.3, 0.0]]},
        "output_dir": str(tmp_path / "out"),
        "kernel_scan": {"M": 32, "rho_max": 4.0, "n_rho": 8, "n_theta": 8,
                        "difference": True, "ells": [200]},
    })
    assert cli.main(["kernel-scan", cfg]) == cli.EXIT_CONFIG
    assert solved == []


# before these were checked up front, each exited 5 or ran the Galerkin solve first
@pytest.mark.parametrize("command,doc", [
    ("kernel-scan", {"kernel_scan": {"M": 32, "n_theta": 2}}),
    # one rho sample is rho = 0 alone, where K = 0: the sup scan divided by it
    ("kernel-scan", {"kernel_scan": {"M": 40, "rho_max": 5.0, "n_rho": 1, "n_theta": 8}}),
    ("decay", {"decay": {"M": 32, "n_theta": 3}}),
    ("decay", {"decay": {"M": 32, "r0": "x"}}),
    ("spectrum", {"potential": {"a_coeffs": [[float("nan"), 0.0]],
                                "A_coeffs": [[0.3, 0.0]]}}),
    ("spectrum", {"potential": {"a_samples": [0.0, float("nan"), 0.0, 0.0],
                                "n_modes": 1, "A_coeffs": [[0.3, 0.0]]}}),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
def test_bad_values_are_refused_before_any_work(tmp_path, monkeypatch, command, doc):
    solved = []
    monkeypatch.setattr(galerkin, "compute_spectrum", lambda *args: solved.append(args))
    cfg = write_config(tmp_path, "bad.json", {
        "potential": {"a_coeffs": [[0.0, 0.0]], "A_coeffs": [[0.3, 0.0]]},
        "output_dir": str(tmp_path / "out"), **doc,
    })
    assert cli.main([command, cfg]) == cli.EXIT_CONFIG
    assert solved == []


def test_exit_code_resolution_failure(ab_config):
    # 256 radial points cannot satisfy the sampling rule at t = 0.1
    assert cli.main(["decay", ab_config]) == cli.EXIT_RESOLUTION


def test_validate_maps_results_to_exit_code(monkeypatch):
    def fake_all_pass():
        return [acceptance.CriterionResult(1, "x", True, "", 0.0)]

    def fake_one_fail():
        return [acceptance.CriterionResult(1, "x", True, "", 0.0),
                acceptance.CriterionResult(2, "y", False, "", 0.0)]

    monkeypatch.setattr(acceptance, "run_all", fake_all_pass)
    assert cli.main(["validate"]) == cli.EXIT_PASS
    monkeypatch.setattr(acceptance, "run_all", fake_one_fail)
    assert cli.main(["validate"]) == cli.EXIT_FAIL


def test_uncaught_exception_is_an_internal_error(ab_config, monkeypatch, capsys):
    def broken(*args, **kw):
        raise np.linalg.LinAlgError("eigh did not converge")

    monkeypatch.setattr(galerkin, "compute_spectrum", broken)
    assert cli.main(["spectrum", ab_config]) == cli.EXIT_INTERNAL
    assert "LinAlgError: eigh did not converge" in capsys.readouterr().err

    def interrupted(*args, **kw):
        raise KeyboardInterrupt

    monkeypatch.setattr(galerkin, "compute_spectrum", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["spectrum", ab_config])
