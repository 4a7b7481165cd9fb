"""Spans and exact counters around calls into emschro's modules.

The tracer replaces module-level callables with timing wrappers for the
duration of a traced pass and restores them afterwards; nothing under `src/`
is edited.  A wrapper records a span (name, start, end, parent) and, once the
span has ended, a hook adds exact counters taken from the call's arguments and
result, so counting costs never land inside a span.  Names imported into other
emschro modules (`from .galerkin import compute_spectrum`) are patched too.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
import sys
import time

import numpy as np

HANKEL = "propagator._hankel_integrals"


def _spectrum(tr, args, kw, res):
    tr.counts["galerkin.spectrum_calls"] += 1
    tr.counts["galerkin.matrix_dim_sum"] += 2 * res.M + 1
    tr.counts["galerkin.resolved_modes"] += res.resolved_count


def _fixed_point(tr, args, kw, res):
    tr.counts["wkb.fixed_point_calls"] += 1
    tr.counts["wkb.fixed_point_iters"] += res.iterations


def _solve_pair(tr, args, kw, res):
    tr.counts["electric.solve_pair_calls"] += 1


def _j_grid(tr, args, kw, res):
    from emschro import bessel
    nu, r = args[0], np.asarray(args[1], dtype=float)
    tr.counts["bessel.j_grid_calls"] += 1
    tr.counts["bessel.j_values"] += r.size
    tr.counts["bessel.j_series_values"] += int(
        np.count_nonzero(r <= bessel.series_switch_radius(float(nu))))
    if tr.inside(HANKEL):
        tr.counts["propagator.hankel_j_values"] += r.size


def _evaluate_grid(tr, args, kw, res):
    tr.counts["kernel.evaluate_grid_calls"] += 1


def _cutoff(tr, args, kw, res):
    tr.counts["kernel.cutoff_calls"] += 1
    tr.counts["kernel.terms_used"] += res


def _hankel(tr, args, kw, res):
    from emschro import propagator
    betas, _a, r_src, t, s = args[:5]
    need = propagator.required_source_points(float(r_src[-1]), float(np.max(s)), t)
    tr.counts["propagator.modes_kept"] += betas.size
    tr.counts["propagator.src_points_used"] += betas.size * r_src.size
    tr.counts["propagator.src_points_required"] += betas.size * need


def _solve_banded(tr, args, kw, res):
    tr.counts["propagator.cn_banded_solves"] += 1


def _csv_written(tr, args, kw, res):
    tr.counts["cli.bytes_written"] += os.path.getsize(args[0])


def _sidecar_written(tr, args, kw, res):
    tr.counts["cli.bytes_written"] += os.path.getsize(args[0] + ".meta.json")


# (module, attribute, hook, timed).  Untimed probes only count: a span around
# each of the thousands of banded CN solves would cost more than the solve.
PROBES = (
    ("cli", "load_config", None, True),
    ("cli", "_write_csv", _csv_written, True),
    ("cli", "_sidecar", _sidecar_written, True),
    ("galerkin", "compute_spectrum", _spectrum, True),
    ("galerkin", "assemble_matrix", None, True),
    ("galerkin", "eigensolve", None, True),
    ("wkb", "fixed_point", _fixed_point, True),
    ("wkb", "solve_eigenvalue", None, True),
    ("wkb", "asymptotic_residuals", None, True),
    ("wkb", "discover_lambda_eff", None, True),
    ("electric", "solve_pair", _solve_pair, True),
    ("electric", "splitting_table", None, True),
    ("electric", "half_integer_table", None, True),
    ("bessel", "j_grid", _j_grid, True),
    ("kernel", "from_spectrum", None, True),
    ("kernel", "sup_scan", None, True),
    ("kernel", "evaluate_grid", _evaluate_grid, True),
    ("kernel", "cutoff_index", _cutoff, True),
    ("kernel", "tail_bound_beyond", None, True),
    ("kernel", "difference_scan", None, True),
    ("propagator", "decay_profile", None, True),
    ("propagator", "_evolve_core", None, True),
    ("propagator", "_hankel_integrals", _hankel, True),
    ("propagator", "crank_nicolson_oracle", None, True),
    ("propagator", "_flip_eigendata", None, True),
    ("propagator", "solve_banded", _solve_banded, False),
)

COUNTERS = (
    "galerkin.spectrum_calls", "galerkin.matrix_dim_sum", "galerkin.resolved_modes",
    "wkb.fixed_point_calls", "wkb.fixed_point_iters", "electric.solve_pair_calls",
    "bessel.j_grid_calls", "bessel.j_values", "bessel.j_series_values",
    "kernel.evaluate_grid_calls", "kernel.cutoff_calls", "kernel.terms_used",
    "propagator.modes_kept", "propagator.src_points_used",
    "propagator.src_points_required", "propagator.hankel_j_values",
    "propagator.cn_banded_solves", "cli.bytes_written",
)


class Tracer:
    """Records spans and counters while installed; restores the modules on exit."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self):
        mods = {name: sys.modules[f"emschro.{name}"]
                for name in {p[0] for p in PROBES}}
        for mod_name, attr, hook, timed in PROBES:
            original = getattr(mods[mod_name], attr)
            name = f"{mod_name}.{attr}"
            wrapper = (self._timed if timed else self._counted)(original, name, hook)
            for mod in [m for k, m in sys.modules.items()
                        if k == "emschro" or k.startswith("emschro.")]:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        return False

    def _timed(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                res = fn(*args, **kw)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if hook is not None:
                hook(self, args, kw, res)
            return res
        return wrapper

    def _counted(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            res = fn(*args, **kw)
            hook(self, args, kw, res)
            return res
        return wrapper

    @contextlib.contextmanager
    def task(self, name: str):
        """Root span around one CLI task."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)


class SpanTable:
    """Derived times over one pass's spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children = collections.defaultdict(list)
        for i, s in enumerate(spans):
            self.children[s[3]].append(i)

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def _under(self, i: int, pred) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if pred(self.spans[p][0]):
                return True
            p = self.spans[p][3]
        return False

    def inclusive(self, pred) -> float:
        """Wall time covered by spans matching `pred` (outermost ones only)."""
        return float(sum(self.dur(i) for i, s in enumerate(self.spans)
                         if pred(s[0]) and not self._under(i, pred)))

    def total(self, *names: str) -> float:
        return self.inclusive(lambda n: n in names)

    def self_time(self, name: str) -> float:
        return float(sum(self.dur(i) - sum(self.dur(c) for c in self.children[i])
                         for i, s in enumerate(self.spans) if s[0] == name))

    def first_child(self, parent: str, child: str) -> float:
        out = 0.0
        for i, s in enumerate(self.spans):
            if s[0] == parent:
                kids = [c for c in self.children[i] if self.spans[c][0] == child]
                out += self.dur(kids[0]) if kids else 0.0
        return out

    def roots(self) -> float:
        return sum(self.dur(i) for i in self.children[-1])


def layer_times(st: SpanTable) -> dict:
    """Per-layer seconds of one traced pass."""
    spectrum = st.total("galerkin.compute_spectrum")
    assemble = st.first_child("galerkin.compute_spectrum", "galerkin.assemble_matrix")
    eigh = st.total("galerkin.eigensolve")
    return {
        "galerkin.spectrum_s": spectrum,
        "galerkin.assemble_s": assemble,
        "galerkin.eigh_s": eigh,
        "galerkin.certificate_s": spectrum - assemble - eigh,
        "wkb.fixed_point_s": st.total("wkb.fixed_point"),
        "wkb.residuals_s": st.total("wkb.asymptotic_residuals"),
        "electric.tables_s": st.total("electric.splitting_table",
                                      "electric.half_integer_table"),
        "bessel.j_grid_s": st.total("bessel.j_grid"),
        "kernel.sup_scan_s": st.total("kernel.sup_scan"),
        "kernel.evaluate_grid_s": st.total("kernel.evaluate_grid"),
        "kernel.cutoff_s": st.total("kernel.cutoff_index"),
        "kernel.tail_beyond_s": st.total("kernel.tail_bound_beyond"),
        "kernel.difference_scan_s": st.total("kernel.difference_scan"),
        "propagator.evolve_s": st.total("propagator._evolve_core"),
        "propagator.hankel_s": st.total(HANKEL),
        "propagator.hankel_self_s": st.self_time(HANKEL),
        "propagator.cn_s": st.total("propagator.crank_nicolson_oracle"),
        "propagator.flip_s": st.total("propagator._flip_eigendata"),
        "cli.write_s": st.total("cli._write_csv", "cli._sidecar"),
        "config.load_s": st.total("cli.load_config"),
    }


def derived(times: dict, counts: dict) -> dict:
    """Ratios, with 0 where the layer did no work."""
    def ratio(a, b):
        return a / b if b else 0.0
    counts = collections.Counter(counts)
    return {
        "galerkin.resolved_ratio": ratio(counts["galerkin.resolved_modes"],
                                         counts["galerkin.matrix_dim_sum"]),
        "bessel.ns_per_value": 1e9 * ratio(times["bessel.j_grid_s"],
                                           counts["bessel.j_values"]),
        "propagator.src_useful_ratio": ratio(counts["propagator.src_points_required"],
                                             counts["propagator.src_points_used"]),
    }


# Rows of the layer-share table: label and span-name predicate.
SHARE_ROWS = (
    ("galerkin", lambda n: n.startswith("galerkin.")),
    ("wkb", lambda n: n.startswith("wkb.")),
    ("electric", lambda n: n.startswith("electric.")),
    ("galerkin+wkb+electric", lambda n: n.split(".")[0] in ("galerkin", "wkb", "electric")),
    ("kernel", lambda n: n.startswith("kernel.")),
    ("bessel", lambda n: n.startswith("bessel.")),
    ("propagator", lambda n: n.startswith("propagator.")),
    ("  _hankel_integrals", lambda n: n == HANKEL),
    ("  crank_nicolson_oracle", lambda n: n == "propagator.crank_nicolson_oracle"),
    ("cli+config I/O", lambda n: n in ("cli.load_config", "cli._write_csv", "cli._sidecar")),
)


def share_table(st: SpanTable) -> list[tuple[str, float, float]]:
    """(label, inclusive seconds, share of the traced pass) per layer."""
    wall = st.roots()
    return [(label, t, t / wall if wall else 0.0)
            for label, pred in SHARE_ROWS for t in [st.inclusive(pred)]]
