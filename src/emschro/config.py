"""Experiment configuration: JSON schema, validation, canonical hashing.

A config file is a single JSON object.  The `potential` section follows the
coefficient/sample convention of `potentials.build_potential`: `a_coeffs` is a
list of [re, im] pairs indexed by mode -M..M (odd length), `a_samples` a list
of real samples on a uniform theta grid (then `n_modes` is required), and the
same for the magnetic field.  Exactly one of coeffs/samples per field.
Command sections (`spectrum`, `wkb`, `kernel_scan`, `decay`) hold only the
keys listed in their schemas; unknown keys are rejected so typos cannot
silently fall back to defaults.  Values are type-checked too: sizes are
positive integers, flags are booleans and list keys are nonempty lists of the
kind their command reads.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError
from .potentials import AngularPotential, build_potential

_POTENTIAL_KEYS = {"a_coeffs", "a_samples", "A_coeffs", "A_samples", "n_modes"}

_SECTION_SCHEMAS = {
    "spectrum": {
        "M": 64, "j_min": 8, "j_max": 24, "grid_n": 2048,
        "cluster_k_min": 10, "cluster_k_max": 40,
        "k_values": None, "j_values": None,
    },
    "wkb": {
        "M": 64, "j_list": [8, 12, 16, 20, 24, -8, -12, -16], "delta": 0.05,
    },
    "kernel_scan": {
        "M": 160, "count": None, "rho_max": 50.0, "n_rho": 200, "n_theta": 64,
        "tol": 1e-9, "difference": False, "ells": [4, 8, 16], "full_grid": False,
    },
    "decay": {
        "M": 48, "count": None,
        "r0": 5.0, "w": 1.0, "r_max": 12.0, "n_r": 4096, "n_theta": 64,
        "angular_mode": 0, "t_list": [0.1, 1.0, 10.0, 100.0],
        "oracle": False, "oracle_t": 0.5, "snapshots": False,
    },
}

_TOLERANCE_KEYS = {"tol", "delta", "w", "rho_max", "r_max", "oracle_t"}
_POSITIVE_INT_KEYS = {"M", "grid_n", "n_rho", "n_theta", "n_r", "count",
                      "cluster_k_min", "cluster_k_max", "j_min", "j_max"}
_BOOL_KEYS = {"difference", "full_grid", "oracle", "snapshots"}
_INT_KEYS = {"angular_mode"}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


# list keys: nonempty lists whose every entry passes the check
_POSITIVE_INTS = (lambda v: _is_int(v) and v > 0, "positive integers")
_LIST_KEYS = {"ells": _POSITIVE_INTS, "k_values": _POSITIVE_INTS, "j_values": _POSITIVE_INTS,
              "j_list": (lambda v: _is_int(v) and v != 0, "nonzero integers"),
              "t_list": (_is_number, "finite numbers")}


@dataclass(frozen=True)
class ExperimentConfig:
    potential: AngularPotential
    output_dir: str
    sections: dict = field(repr=False)

    def section(self, name: str) -> dict:
        return self.sections[name]


def _check_section(name: str, given: dict) -> dict:
    schema = _SECTION_SCHEMAS[name]
    unknown = set(given) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
    merged = dict(schema)
    merged.update(given)
    for key, val in merged.items():
        if val is None:
            continue
        if key in _TOLERANCE_KEYS and not (_is_number(val) and val > 0):
            raise ConfigError(f"{name}.{key} must be a positive number, got {val!r}")
        if key in _POSITIVE_INT_KEYS and not (_is_int(val) and val > 0):
            raise ConfigError(f"{name}.{key} must be a positive integer, got {val!r}")
        if key in _INT_KEYS and not _is_int(val):
            raise ConfigError(f"{name}.{key} must be an integer, got {val!r}")
        if key in _BOOL_KEYS and not isinstance(val, bool):
            raise ConfigError(f"{name}.{key} must be true or false, got {val!r}")
        if key in _LIST_KEYS:
            ok, kind = _LIST_KEYS[key]
            if not (isinstance(val, list) and val and all(map(ok, val))):
                raise ConfigError(f"{name}.{key} must be a nonempty list of {kind}, "
                                  f"got {val!r}")
    return merged


def _coeffs_from_json(pairs, label: str) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] % 2 != 1:
        raise ConfigError(f"{label} must be an odd-length list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _build_from_section(sec: dict) -> AngularPotential:
    unknown = set(sec) - _POTENTIAL_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in potential section: {sorted(unknown)}")
    kwargs = {}
    for fieldname in ("a", "A"):
        has_c = f"{fieldname}_coeffs" in sec
        has_s = f"{fieldname}_samples" in sec
        if has_c == has_s:
            raise ConfigError(
                f"potential needs exactly one of {fieldname}_coeffs / {fieldname}_samples"
            )
        if has_c:
            kwargs[f"{fieldname}_coeffs"] = _coeffs_from_json(
                sec[f"{fieldname}_coeffs"], f"{fieldname}_coeffs")
        else:
            kwargs[f"{fieldname}_samples"] = np.asarray(sec[f"{fieldname}_samples"],
                                                        dtype=float)
    if "a_samples" in kwargs or "A_samples" in kwargs:
        n_modes = sec.get("n_modes")
        if not isinstance(n_modes, int) or n_modes < 0:
            raise ConfigError("potential with samples requires integer n_modes >= 0")
        kwargs["n_modes"] = n_modes
    elif "n_modes" in sec:
        raise ConfigError("n_modes only applies to sampled potentials")
    return build_potential(**kwargs)


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    allowed = {"potential", "output_dir"} | set(_SECTION_SCHEMAS)
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    if "potential" not in doc:
        raise ConfigError("config requires a potential section")
    potential = _build_from_section(doc["potential"])
    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir must be a nonempty string")
    sections = {name: _check_section(name, doc.get(name, {}))
                for name in _SECTION_SCHEMAS}
    return ExperimentConfig(potential=potential, output_dir=output_dir, sections=sections)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return parse_config(doc)


def config_hash(cfg: ExperimentConfig) -> str:
    """SHA-256 of what a run depends on: the merged config and the package version.

    Omitting a key and spelling out its default hash alike; a changed default
    or a new release changes the hash.
    """
    p = cfg.potential
    doc = {
        "version": __version__,
        "potential": {name: np.column_stack([c.real, c.imag]).tolist()
                      for name, c in (("a", p.a_coeffs), ("A", p.A_coeffs))},
        "output_dir": cfg.output_dir,
        "sections": cfg.sections,
    }
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
