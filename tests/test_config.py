"""JSON experiment configs: schema validation and canonical hashing."""

import ast
import inspect
import json

import numpy as np
import pytest

from emschro import cli
from emschro.config import _SECTION_SCHEMAS, config_hash, load_config, parse_config
from emschro.errors import ConfigError

GOOD = {
    "potential": {"a_coeffs": [[0.5, 0.0], [0.0, 0.0], [0.5, 0.0]],
                  "A_coeffs": [[0.3, 0.0]]},
    "output_dir": "out",
    "spectrum": {"M": 32},
}


def test_parse_builds_the_potential():
    cfg = parse_config(GOOD)
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    assert np.allclose(cfg.potential.a_values(th), np.cos(th), atol=1e-13)
    assert cfg.potential.circulation == pytest.approx(0.3)
    assert cfg.output_dir == "out"


def test_section_defaults_are_merged():
    cfg = parse_config(GOOD)
    sec = cfg.section("spectrum")
    assert sec["M"] == 32          # explicit override
    assert sec["j_min"] == 8       # schema default


def test_unknown_keys_rejected_everywhere():
    for doc in [
        {**GOOD, "extra": 1},
        {**GOOD, "potential": {**GOOD["potential"], "mystery": 2}},
        {**GOOD, "spectrum": {"M": 32, "typo_key": 5}},
    ]:
        with pytest.raises(ConfigError):
            parse_config(doc)


def test_potential_section_is_mandatory_and_exclusive():
    with pytest.raises(ConfigError):
        parse_config({"output_dir": "out"})
    bad = dict(GOOD)
    bad["potential"] = {"a_coeffs": [[0.0, 0.0]],
                        "a_samples": [0.0] * 8, "A_coeffs": [[0.0, 0.0]]}
    with pytest.raises(ConfigError):
        parse_config(bad)
    bad["potential"] = {"a_coeffs": [[0.0, 0.0], [0.0, 0.0]],
                        "A_coeffs": [[0.0, 0.0]]}  # even length
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_sampled_potential_requires_mode_count():
    pot = {"a_samples": list(np.cos(np.linspace(0, 2 * np.pi, 16, endpoint=False))),
           "A_coeffs": [[0.3, 0.0]]}
    with pytest.raises(ConfigError):
        parse_config({"potential": pot})
    cfg = parse_config({"potential": {**pot, "n_modes": 1}})
    assert cfg.potential.a_coeffs.size == 3
    with pytest.raises(ConfigError):
        parse_config({"potential": {"a_coeffs": [[0.0, 0.0]],
                                    "A_coeffs": [[0.0, 0.0]], "n_modes": 2}})


def test_value_validation():
    with pytest.raises(ConfigError):
        parse_config({**GOOD, "spectrum": {"M": -4}})
    with pytest.raises(ConfigError):
        parse_config({**GOOD, "kernel_scan": {"tol": 0.0}})
    with pytest.raises(ConfigError):
        parse_config({**GOOD, "output_dir": ""})
    # sections are JSON objects; these exited 5
    for doc in ({**GOOD, "spectrum": 5}, {**GOOD, "spectrum": [["M", 4]]},
                {**GOOD, "potential": 5}):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            parse_config(doc)
    # r0 had no kind: "x" and NaN exited 5 after the Galerkin solve, true read as 1.0
    for r0 in ("x", float("nan"), True, float("inf"), None):
        with pytest.raises(ConfigError, match="decay.r0"):
            parse_config({**GOOD, "decay": {"r0": r0}})
    assert parse_config({**GOOD, "decay": {"r0": -1}}).section("decay")["r0"] == -1
    for section in ("kernel_scan", "decay"):
        with pytest.raises(ConfigError, match=f"{section}.n_theta"):
            parse_config({**GOOD, section: {"n_theta": 3}})
    # the sup scan reads rho = 0 and rho_max
    with pytest.raises(ConfigError, match="kernel_scan.n_rho"):
        parse_config({**GOOD, "kernel_scan": {"n_rho": 1}})
    assert parse_config({**GOOD, "kernel_scan": {"n_rho": 2}}).section("kernel_scan")["n_rho"] == 2
    # null stands for "the command chooses" only where that is the default
    with pytest.raises(ConfigError):
        parse_config({**GOOD, "spectrum": {"M": None}})
    assert parse_config({**GOOD, "decay": {"count": None}}).section("decay")["count"] is None


@pytest.mark.parametrize("potential", [
    {"a_coeffs": [[float("nan"), 0.0]], "A_coeffs": [[0.3, 0.0]]},
    {"a_coeffs": [[float("inf"), 0.0]], "A_coeffs": [[0.3, 0.0]]},
    {"a_coeffs": [["x", 0.0]], "A_coeffs": [[0.3, 0.0]]},
    {"a_coeffs": [[0.0, 0.0]], "A_coeffs": [[0.3, True]]},
    {"a_coeffs": [[0.0, 0.0], [1.0], [0.0, 0.0]], "A_coeffs": [[0.3, 0.0]]},
    {"a_samples": [0.0, float("nan"), 0.0, 0.0], "n_modes": 1, "A_coeffs": [[0.3, 0.0]]},
    {"a_samples": [0.0, "x", 0.0, 0.0], "n_modes": 1, "A_coeffs": [[0.3, 0.0]]},
    {"a_samples": [0.0, 1.0, 0.0, 0.0], "n_modes": True, "A_coeffs": [[0.3, 0.0]]},
], ids=lambda v: json.dumps(v))
def test_potential_entries_must_be_finite_numbers(potential):
    with pytest.raises(ConfigError):
        parse_config({**GOOD, "potential": potential})


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    good = tmp_path / "ok.json"
    good.write_text(json.dumps(GOOD))
    cfg = load_config(good)
    assert cfg.potential.circulation == pytest.approx(0.3)


def test_config_hash_is_order_insensitive_and_content_sensitive(tmp_path):
    cfg1 = parse_config(json.loads(json.dumps(GOOD)))
    reordered = {k: GOOD[k] for k in reversed(list(GOOD))}
    cfg2 = parse_config(json.loads(json.dumps(reordered)))
    assert config_hash(cfg1) == config_hash(cfg2)
    changed = json.loads(json.dumps(GOOD))
    changed["output_dir"] = "elsewhere"
    assert config_hash(parse_config(changed)) != config_hash(cfg1)


def test_config_hash_sees_defaults_not_spelling():
    explicit = {**GOOD, "spectrum": {"M": 32, "j_min": 8}, "decay": {"r0": 5.0}}
    assert config_hash(parse_config(explicit)) == config_hash(parse_config(GOOD))
    changed = {**GOOD, "decay": {"r0": 6.0}}
    assert config_hash(parse_config(changed)) != config_hash(parse_config(GOOD))


def _keys_read(fn) -> set:
    """String keys subscripted on the name `sec` in fn's source."""
    tree = ast.parse(inspect.getsource(fn))
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "sec" and isinstance(node.slice, ast.Constant)}


def test_every_section_key_is_read_by_its_command():
    commands = {"spectrum": cli.cmd_spectrum, "wkb": cli.cmd_wkb,
                "kernel_scan": cli.cmd_kernel_scan, "decay": cli.cmd_decay}
    assert set(commands) == set(_SECTION_SCHEMAS)
    for name, fn in commands.items():
        assert _keys_read(fn) == set(_SECTION_SCHEMAS[name]), name
