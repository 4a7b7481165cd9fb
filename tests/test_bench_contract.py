"""The benchmark tracer's probes still name real emschro callables.

`perfbench/tracer.py` wraps module attributes by name; a refactor that renames
or re-signs one of them should fail here rather than inside a traced run.
The tracer is loaded by path and only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

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
