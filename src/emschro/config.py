"""Experiment configuration: JSON schema, validation, canonical hashing.

A config file is a single JSON object.  The `potential` section holds the
keyword arguments of `potentials.build_potential`: `a_coeffs` is a list of
[re, im] pairs indexed by mode -M..M (odd length), `a_samples` a list of real
samples on a uniform theta grid, `n_modes` an integer >= 0, and the same for
the magnetic field.  This module checks only each entry's JSON shape; how the
entries combine is `build_potential`'s rule, and its refusal is a ConfigError.
Command sections (`spectrum`, `wkb`, `kernel_scan`, `decay`) hold only the
keys listed in their schemas; unknown keys are rejected so typos cannot
silently fall back to defaults.  Each key is declared once, with its default
and its kind, and every value is checked against its kind before any work:
sizes are positive integers, angular grids have at least 4 points, flags are
booleans, the sup scan's `n_rho` is at least 2, list keys are nonempty lists
of what their command reads.  Potential entries must be finite numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__, kernel, wkb
from .errors import ConfigError, InvalidInput
from .potentials import build_potential


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


# value kinds: (check, what the check asks for)
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive number")
_NUMBER = (_is_number, "a finite number")
_POSITIVE_INT = (lambda v: _is_int(v) and v > 0, "a positive integer")
_INT = (_is_int, "an integer")
_ANGULAR_GRID = (lambda v: _is_int(v) and v >= 4, "an integer >= 4")   # theta_grid's least
_BOOL = (lambda v: isinstance(v, bool), "true or false")


def _list_of(check, kind: str):
    return (lambda v: isinstance(v, list) and bool(v) and all(map(check, v)),
            f"a nonempty list of {kind}")


_POSITIVE_INTS = _list_of(_POSITIVE_INT[0], "positive integers")
_FINITE_NUMBERS = _list_of(_is_number, "finite numbers")

# key: (default, kind); a None default means the command works it out
_SECTION_SCHEMAS = {
    "spectrum": {
        "M": (64, _POSITIVE_INT), "j_min": (8, _POSITIVE_INT),
        "j_max": (24, _POSITIVE_INT),
        "cluster_k_min": (10, _POSITIVE_INT), "cluster_k_max": (40, _POSITIVE_INT),
        "k_values": (None, _POSITIVE_INTS), "j_values": (None, _POSITIVE_INTS),
    },
    "wkb": {
        "M": (64, _POSITIVE_INT),
        "j_list": ([8, 12, 16, 20, 24, -8, -12, -16],
                   _list_of(lambda v: _is_int(v) and v != 0, "nonzero integers")),
        "delta": (wkb.DEFAULT_DELTA, _POSITIVE),
    },
    "kernel_scan": {
        "M": (160, _POSITIVE_INT), "count": (None, _POSITIVE_INT),
        "rho_max": (50.0, _POSITIVE),
        # the scan reads both rho = 0 and rho_max
        "n_rho": (200, (lambda v: _is_int(v) and v >= 2, "an integer >= 2")),
        "n_theta": (64, _ANGULAR_GRID), "tol": (kernel.DEFAULT_TOL, _POSITIVE),
        "difference": (False, _BOOL), "ells": ([4, 8, 16], _POSITIVE_INTS),
        "full_grid": (False, _BOOL),
    },
    "decay": {
        "M": (48, _POSITIVE_INT), "count": (None, _POSITIVE_INT),
        "r0": (5.0, _NUMBER), "w": (1.0, _POSITIVE), "r_max": (12.0, _POSITIVE),
        "n_r": (4096, _POSITIVE_INT), "n_theta": (64, _ANGULAR_GRID),
        "angular_mode": (0, _INT),
        "t_list": ([0.1, 1.0, 10.0, 100.0], _FINITE_NUMBERS),
        "oracle": (False, _BOOL), "oracle_t": (0.5, _POSITIVE),
        "snapshots": (False, _BOOL),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    potential: AngularPotential
    output_dir: str
    sections: dict = field(repr=False)

    def section(self, name: str) -> dict:
        return self.sections[name]


def _check_section(name: str, given: dict) -> dict:
    if not isinstance(given, dict):
        raise ConfigError(f"section {name!r} must be a JSON object")
    schema = _SECTION_SCHEMAS[name]
    unknown = set(given) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
    merged = {key: default for key, (default, _kind) in schema.items()}
    merged.update(given)
    for key, val in merged.items():
        default, (ok, kind) = schema[key]
        if (val is not None or default is not None) and not ok(val):
            raise ConfigError(f"{name}.{key} must be {kind}, got {val!r}")
    return merged


_PAIRS = (lambda v: isinstance(v, list) and len(v) % 2 == 1
          and all(_FINITE_NUMBERS[0](c) and len(c) == 2 for c in v),
          "an odd-length list of [re, im] pairs of finite numbers")
# potential key: its JSON shape; how the keys combine is build_potential's rule
_POTENTIAL_KEYS = {"a_coeffs": _PAIRS, "A_coeffs": _PAIRS, "a_samples": _FINITE_NUMBERS,
                   "A_samples": _FINITE_NUMBERS,
                   "n_modes": (lambda v: _is_int(v) and v >= 0, "an integer >= 0")}


def _coeffs_from_json(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]


def _potential_kwargs(sec: dict) -> dict:
    """build_potential's arguments from the potential section, each of its JSON shape."""
    if not isinstance(sec, dict):
        raise ConfigError("section 'potential' must be a JSON object")
    unknown = set(sec) - set(_POTENTIAL_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys in potential section: {sorted(unknown)}")
    for key, val in sec.items():
        ok, kind = _POTENTIAL_KEYS[key]
        if not ok(val):
            raise ConfigError(f"potential.{key} must be {kind}")
    return {key: _coeffs_from_json(val) if key.endswith("_coeffs") else val
            for key, val in sec.items()}


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    allowed = {"potential", "output_dir"} | set(_SECTION_SCHEMAS)
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    if "potential" not in doc:
        raise ConfigError("config requires a potential section")
    try:
        potential = build_potential(**_potential_kwargs(doc["potential"]))
    except InvalidInput as exc:
        raise ConfigError(str(exc)) from exc
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


def config_hash(cfg: ExperimentConfig, section: str) -> str:
    """SHA-256 of what a run of the command reading `section` depends on: the
    package version, the potential, `output_dir` and that merged section alone.

    Omitting a key and spelling out its default hash alike; a changed default
    or a new release changes the hash.
    """
    p = cfg.potential
    doc = {
        "version": __version__,
        "potential": {name: np.column_stack([c.real, c.imag]).tolist()
                      for name, c in (("a", p.a_coeffs), ("A", p.A_coeffs))},
        "output_dir": cfg.output_dir,
        "sections": {section: cfg.sections[section]},
    }
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
