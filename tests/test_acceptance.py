"""Top-level acceptance: ten numbered end-to-end checks at their stated gates.

Each test prints one `criterion NN [PASS/FAIL]` line and asserts the gate.
Two gates are known not to hold and the corresponding tests fail on
purpose rather than being weakened; see the package README for the
mathematical reasons (remainder decay rate, and a negative ground
eigenvalue in one named configuration).
"""

import pytest

from emschro import acceptance

pytestmark = pytest.mark.acceptance


def _run(number: int) -> None:
    res = acceptance.run_criterion(number)
    tag = "PASS" if res.passed else "FAIL"
    print(f"criterion {res.number:2d} [{tag}] {res.name}: {res.detail} "
          f"({res.seconds:.1f} s)")
    assert res.passed, f"criterion {res.number} ({res.name}): {res.detail}"


def test_criterion_01_flux_line_exactness():
    _run(1)


def test_criterion_02_eigenvalue_asymptotics():
    _run(2)


def test_criterion_03_eigenfunction_remainder_decay():
    _run(3)


def test_criterion_04_branch_equation_vs_galerkin():
    _run(4)


def test_criterion_05_cluster_localization():
    _run(5)


def test_criterion_06_electric_splitting_and_half_circulation():
    _run(6)


@pytest.mark.slow
def test_criterion_07_kernel_sup_scans_and_gap():
    _run(7)


@pytest.mark.slow
def test_criterion_08_dispersive_decay_sweep():
    _run(8)


@pytest.mark.slow
def test_criterion_09_time_stepper_and_phase_oracles():
    _run(9)


def test_criterion_10_bessel_layer_invariants():
    _run(10)
