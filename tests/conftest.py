"""Shared fixtures: suite potentials and cached spectral decompositions."""

import numpy as np
import pytest

from emschro.galerkin import compute_spectrum
from emschro.potentials import build_potential, constant_potential


@pytest.fixture(scope="session")
def p_cos():
    """a = cos(theta), A = 0.3."""
    return build_potential(a_coeffs=[0.5, 0.0, 0.5], A_coeffs=[0.3])


@pytest.fixture(scope="session")
def p_mixed():
    """a = cos(theta) + 0.5 sin(2 theta), A = 0.3 + 0.2 cos(theta)."""
    return build_potential(
        a_coeffs=[0.25j, 0.5, 0.0, 0.5, -0.25j],
        A_coeffs=[0.1, 0.3, 0.1],
    )


@pytest.fixture(scope="session")
def p_even_electric():
    """a = 2 cos(2 theta), no magnetic part."""
    return build_potential(a_coeffs=[1.0, 0.0, 0.0, 0.0, 1.0], A_coeffs=[0.0])


@pytest.fixture(scope="session")
def p_ab():
    return constant_potential(0.3)


@pytest.fixture(scope="session")
def dec_cos64(p_cos):
    return compute_spectrum(p_cos, 64)


@pytest.fixture(scope="session")
def dec_mixed64(p_mixed):
    return compute_spectrum(p_mixed, 64)


@pytest.fixture(scope="session")
def dec_ab64(p_ab):
    return compute_spectrum(p_ab, 64)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260814)
