"""Bessel evaluation: frozen references, closed forms, bounds, recurrence."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emschro import bessel
from emschro.errors import InvalidInput, NoConvergence, UnsupportedOrder

# frozen 25-digit references (50-digit working precision, rounded)
FROZEN = [
    (0.3, 1.0, 0.7402224792810204505291),
    (10.0, 5.0, 0.001467802647310474131108),
    (0.5, 3.0, 0.065008182877375778114),
    (2.7, 7.25, -0.2785783774653988902449),
    (35.5, 20.0, 2.958340875286361453977e-7),
    (120.0, 300.0, -0.04809117309217800243606),
]


@pytest.mark.parametrize("nu,r,ref", FROZEN)
def test_frozen_point_values(nu, r, ref):
    assert float(bessel.j_grid(nu, r)) == pytest.approx(ref, rel=2e-12, abs=1e-15)


def test_half_order_closed_form():
    r = np.linspace(0.2, 40.0, 300)
    exact = np.sqrt(2.0 / (np.pi * r)) * np.sin(r)
    assert np.allclose(bessel.j_grid(0.5, r), exact, atol=5e-13)


def test_grid_matches_scalar_route():
    r = np.linspace(0.0, 30.0, 97)
    with mpmath.workdps(30):
        for nu in (0.0, 0.3, 4.5, 17.0):
            grid = bessel.j_grid(nu, r)
            ref = np.array([float(mpmath.besselj(nu, x)) for x in r])
            assert np.allclose(grid, ref, atol=2e-12, rtol=0.0)


@settings(max_examples=200, deadline=None)
@given(nu=st.floats(0.0, 300.0), frac=st.floats(0.0, 1.5))
def test_grid_matches_mpmath_across_the_switch(nu, frac):
    # r = frac * switch radius: the series regime below 1, scipy's above
    r = frac * bessel.series_switch_radius(nu)
    with mpmath.workdps(30):
        ref = float(mpmath.besselj(nu, r))
    assert abs(float(bessel.j_grid(nu, r)) - ref) <= 2e-12


def test_regime_switch_is_seamless():
    cases = [(nu, bessel.series_switch_radius(nu)) for nu in (0.3, 6.0, 28.0)]
    cases.append((1.3, bessel.asymptotic_switch_radius(1.3)))   # scipy -> Hankel
    for nu, cut in cases:
        r = np.linspace(cut - 0.5, cut + 0.5, 101)
        vals = bessel.j_grid(nu, r)
        jumps = np.abs(np.diff(vals))
        assert np.max(jumps) < 0.1  # no discontinuity at the route boundary
        from scipy.special import jv
        assert np.allclose(vals, jv(nu, r), atol=1e-11)


HALF_INTEGERS = [k + 0.5 for k in range(16)]


@settings(max_examples=200, deadline=None)
@given(nu=st.one_of(st.floats(0.0, 16.0), st.sampled_from(HALF_INTEGERS)),
       u=st.floats(0.0, 1.0), far=st.booleans())
@example(nu=15.5, u=0.0, far=False)   # largest terms of P and Q at the floor
def test_hankel_regime_matches_mpmath(nu, u, far):
    # x from the switch to twice the switch, or log-uniform out to 1e4
    cut = bessel.asymptotic_switch_radius(nu)
    x = cut * (1e4 / cut) ** u if far else cut * (1.0 + u)
    with mpmath.workdps(30):
        ref = float(mpmath.besselj(nu, x))
    assert abs(float(bessel.j_grid(nu, x)) - ref) <= 2e-12


def test_asymptotic_switch_is_certified():
    K = bessel.ASYMPTOTIC_PAIRS
    for nu in [*np.linspace(0.0, 20.0, 401), *HALF_INTEGERS, 2 * K + 0.5,
               math.nextafter(2 * K + 0.5, 0.0)]:
        cut = bessel.asymptotic_switch_radius(nu)
        # Watson's bound holds only where 2K > nu - 1/2
        assert math.isinf(cut) == (2 * K <= nu - 0.5)
        if math.isinf(cut):
            continue
        assert cut >= max(bessel.series_switch_radius(nu), bessel.ASYMPTOTIC_SWITCH_FLOOR)
        a = 1.0   # a_k(nu) = prod_{i<=k} (4 nu^2 - (2i-1)^2) / (k! 8^k)
        for k in range(1, 2 * K + 2):
            a *= (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k)
            if k >= 2 * K:
                assert abs(a) / cut ** k <= 2.0 ** -53


def test_blocked_hankel_regime_matches_elementwise():
    nu = 1.3
    n = 2 * (bessel.ASYMPTOTIC_BLOCK // 2 + 501)   # one block and a part
    x = np.linspace(bessel.asymptotic_switch_radius(nu), 900.0, n)
    x = np.random.default_rng(5).permutation(x).reshape(2, -1)
    grid = bessel.j_grid(nu, x)
    assert grid.shape == x.shape
    single = np.array([float(bessel.j_grid(nu, v)) for v in x.ravel()]).reshape(x.shape)
    assert np.array_equal(grid, single)


def test_order_and_argument_validation():
    with pytest.raises(UnsupportedOrder):
        bessel.j_grid(-0.5, 1.0)
    with pytest.raises(UnsupportedOrder):
        bessel.j_grid(float("nan"), 1.0)
    with pytest.raises(InvalidInput):
        bessel.j_grid(0.5, -1.0)
    with pytest.raises(UnsupportedOrder):
        bessel.j_grid(1 + 1j, 1.0)
    assert bessel.j_grid(complex(1, 0), 1.0) == bessel.j_grid(1.0, 1.0)
    x = np.linspace(0.0, 40.0, 2 * bessel.TABLE_MIN_VALUES)
    x[[3, 5000]] = np.nan
    for call in (x, x[:100]):   # a table call and a small call
        assert np.all(np.isnan(bessel.j_grid(0.3, call)) == np.isnan(call))


def test_series_refuses_to_stop_short():
    # r = 2000 needs far more than the 500-term cap; j_grid routes it to scipy
    with pytest.raises(NoConvergence):
        bessel._series_vec(0.0, np.array([2000.0]))


def test_tail_bound_frozen_values():
    assert bessel.term_tail_bound(5.0, 2.0) == pytest.approx(1.0 / 120.0, rel=1e-12)
    assert bessel.term_tail_bound(10.5, 3.0) == pytest.approx(
        5.9351583981898346827e-6, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(0.0, 40.0), r=st.floats(0.0, 60.0))
def test_majorant_dominates(nu, r):
    val = float(bessel.j_grid(nu, r))
    log_bound = nu * math.log(r / 2.0) - math.lgamma(nu + 1.0) if r / 2.0 > 0 else (
        0.0 if nu == 0.0 else -math.inf)
    bound = math.exp(log_bound) if log_bound > -700 else 0.0
    assert abs(val) <= bound + 1e-12


@settings(max_examples=30, deadline=None)
@given(nu=st.floats(1.0, 30.0), r=st.floats(0.5, 50.0))
def test_three_term_recurrence(nu, r):
    lhs = float(bessel.j_grid(nu - 1.0, r) + bessel.j_grid(nu + 1.0, r))
    rhs = (2.0 * nu / r) * float(bessel.j_grid(nu, r))
    assert lhs == pytest.approx(rhs, abs=5e-9)


def test_uniform_order_bound_scan():
    rep = bessel.landau_bound_check(nu_max=80)
    assert rep.finite
    # the scaled sup nu^{1/3} max_r |J_nu(r)| has a universal ceiling
    assert 0.60 < rep.constant < 0.72


# -- the table regime on [TABLE_X_LO, asymptotic_switch_radius) ---------------------

TABLE_ORDERS = (0.3, 1.7, 2.7, 8.66, 15.5)


def _table_call(nu, x):
    """j_grid at x inside a call with TABLE_MIN_VALUES radii in the table range."""
    pad = np.linspace(bessel.TABLE_X_LO, bessel.asymptotic_switch_radius(nu),
                      bessel.TABLE_MIN_VALUES, endpoint=False)
    return bessel.j_grid(nu, np.concatenate([x, pad]))[:x.size]


@pytest.fixture()
def fresh_tables():
    bessel._table.cache_clear()
    yield
    bessel._table.cache_clear()


# 16.4 reaches x = 116, where the theta integral needs three panels
@pytest.mark.parametrize("nu", (*TABLE_ORDERS, 16.4))
def test_table_regime_matches_mpmath_across_both_switches(nu):
    lo, cut = bessel.TABLE_X_LO, bessel.asymptotic_switch_radius(nu)
    assert bessel._table(nu) is not None
    x = np.concatenate([np.linspace(lo - 0.5, lo + 0.5, 41), np.linspace(lo, cut, 60),
                        np.linspace(cut - 0.5, cut + 0.5, 41),
                        [math.nextafter(lo, 0.0), math.nextafter(cut, 0.0)]])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besselj(nu, v)) for v in x])
    assert np.max(np.abs(_table_call(nu, x) - ref)) <= 1e-14


@pytest.mark.parametrize("nu", TABLE_ORDERS)
def test_table_and_direct_routes_agree(nu):
    x = np.linspace(bessel.TABLE_X_LO, bessel.asymptotic_switch_radius(nu), 1000,
                    endpoint=False)
    assert x.size < bessel.TABLE_MIN_VALUES
    assert np.max(np.abs(_table_call(nu, x) - bessel.j_grid(nu, x))) <= 2e-14


@pytest.mark.parametrize("call", (bessel.j_grid, _table_call), ids=("small", "table"))
@pytest.mark.parametrize("nu", (0.3, 1.7, 2.7, 8.66))
def test_decay_sized_calls_escape_the_series_cancellation(nu, call):
    # the power series would cancel terms of up to ~4e3 here; neither call sums it
    x = np.linspace(bessel.TABLE_X_LO, 12.0, 201)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besselj(nu, v)) for v in x])
    assert np.max(np.abs(call(nu, x) - ref)) <= 2e-14


def test_table_build_check_falls_back_to_the_direct_route(monkeypatch, fresh_tables):
    nu = 1.7
    real = bessel._bessel_integral

    def one_bad_node(order, x):
        out = real(order, x)
        out[7 * (bessel.TABLE_DEGREE + 1) + 3] += 1e-11   # a node of piece 7
        return out

    monkeypatch.setattr(bessel, "_bessel_integral", one_bad_node)
    assert bessel._table(nu) is None
    x = np.linspace(0.0, 40.0, 3 * bessel.TABLE_MIN_VALUES)
    direct = np.concatenate([bessel.j_grid(nu, part) for part in np.array_split(x, 6)])
    assert np.array_equal(bessel.j_grid(nu, x), direct)


def test_table_is_only_built_below_the_watson_limit():
    assert bessel._table(2 * bessel.ASYMPTOTIC_PAIRS + 0.5) is None
    table = bessel._table(0.3)
    assert table.shape[0] == bessel.TABLE_DEGREE + 1
    assert not table.flags.writeable
