"""The benchmark tracer's probes still name real emschro callables.

`perfbench/tracer.py` wraps module attributes by name; a refactor that renames
or re-signs one of them should fail here rather than inside a traced run.
The tracer is loaded by path and only read.
"""

import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_probe_resolves():
    tracer = _load_tracer()
    missing = [f"{mod}.{attr}" for mod, attr, _hook, _timed in tracer.PROBES
               if not callable(getattr(importlib.import_module(f"emschro.{mod}"), attr, None))]
    assert not missing


def test_probed_argument_positions():
    from emschro import bessel, propagator

    hankel = list(inspect.signature(propagator._hankel_integrals).parameters)
    assert hankel[:5] == ["betas", "a", "r_src", "t", "s"]
    assert list(inspect.signature(bessel.j_grid).parameters)[:2] == ["nu", "r"]


def test_probed_return_values():
    from emschro import galerkin, kernel
    from emschro.potentials import constant_potential

    dec = galerkin.compute_spectrum(constant_potential(0.3), 8)
    assert isinstance(dec.M, int) and isinstance(dec.resolved_count, int)
    assert isinstance(kernel.cutoff_index(kernel.ab_eigendata(0.3, 24), 1.0, 1e-9), int)


def test_series_counter_matches_the_series_route(monkeypatch):
    # the tracer counts r <= series_switch_radius(nu) as series values; count
    # what j_grid really hands the series, in a table call and a scipy call
    from emschro import bessel

    tracer = _load_tracer()
    real = bessel._series_vec
    handed = []

    def recording(nu, r):
        handed.append(r.size)
        return real(nu, r)

    monkeypatch.setattr(bessel, "_series_vec", recording)
    for nu, r in ((1.7, np.linspace(0.0, 41.3, 701)), (20.3, np.linspace(0.0, 41.3, 701))):
        assert not np.any(r == bessel.series_switch_radius(nu))
        handed.clear()
        stub = SimpleNamespace(counts=Counter(), inside=lambda name: False)
        tracer._j_grid(stub, (nu, r), {}, bessel.j_grid(nu, r))
        assert stub.counts["bessel.j_series_values"] == sum(handed)


def test_one_sup_scan_is_one_grid_and_one_cutoff_per_rho():
    # the tracer's exact kernel counters measure a scan's work only while the
    # scan makes one evaluate_grid call and that call one cutoff_index per rho
    from emschro import cli, kernel  # noqa: F401  (the tracer patches every probed module)

    tracer = _load_tracer()
    data = kernel.ab_eigendata(0.3, 60)
    rho = np.linspace(0.0, 10.0, 25)
    with tracer.Tracer() as tr:
        kernel.sup_scan(data, rho_max=10.0, n_rho=rho.size, n_theta=8)
    assert tr.counts["kernel.evaluate_grid_calls"] == 1
    assert tr.counts["kernel.cutoff_calls"] == rho.size
    cuts = [kernel.truncation(data, float(r), kernel.DEFAULT_TOL)[0] for r in rho]
    assert tr.counts["kernel.terms_used"] == sum(cuts)


def test_hankel_counter_is_the_lattice_and_the_holdout_pairs(monkeypatch):
    # the near field takes one J value per lattice point, not one per pair:
    # a traced run measures that work only while the counter sees K + 1
    # values for the lattice call and one per pair for the far-field holdout
    from emschro import propagator

    tracer = _load_tracer()
    u0 = propagator.gaussian_ring(5.0, 1.0, 3886, 12.0, n_theta=4)
    t = 0.1
    s = propagator._evaluation_grid(u0, t, propagator.radial_bandwidth(u0))
    a = u0.values[:, :1].T
    (_, rs, _), = propagator._mode_weights(a, u0.r, t)
    seen = []
    real = propagator._near_sum
    monkeypatch.setattr(propagator, "_near_sum",
                        lambda *args: seen.append(args[-1]) or real(*args))
    with tracer.Tracer() as tr:
        propagator._hankel_integrals(np.array([0.3]), a, u0.r, t, s)
    blocks, = seen
    # s = ds n and rs = dr (lo + 1 + j): block (n0, n1, k) reaches (n1 - 1)(lo + k)
    lo = round(rs[0] / (u0.r[1] - u0.r[0])) - 1
    top = max((n1 - 1) * (lo + k) for _, n1, k in blocks)
    holdout = propagator.FAR_HOLDOUT_POINTS * rs.size
    assert tr.counts["bessel.j_grid_calls"] == 2
    assert tr.counts["propagator.hankel_j_values"] == top + 1 + holdout
    assert top + 1 < sum((n1 - n0) * k for n0, n1, k in blocks) / 2
