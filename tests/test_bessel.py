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
    # r = frac * switch radius: the series regime below 1, the middle range's above
    r = frac * bessel.series_switch_radius(nu)
    with mpmath.workdps(30):
        ref = float(mpmath.besselj(nu, r))
    assert abs(float(bessel.j_grid(nu, r)) - ref) <= 2e-12


def test_regime_switch_is_seamless():
    cases = [(nu, bessel.series_switch_radius(nu)) for nu in (0.3, 6.0, 28.0)]
    cases.append((1.3, bessel.asymptotic_switch_radius(1.3)))   # table -> Hankel
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
    x = np.linspace(0.0, 40.0, 401)
    x[[3, 200]] = np.nan
    for nu in (0.3, 20.3):   # an order with a table and one without
        assert np.all(np.isnan(bessel.j_grid(nu, x)) == np.isnan(x))


def test_series_refuses_to_stop_short():
    # r = 2000 needs far more than the 500-term cap; j_grid hands it to
    # Hankel's expansion, since it lies past asymptotic_switch_radius(0)
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
    assert np.max(np.abs(bessel.j_grid(nu, x) - ref)) <= 1e-14


def _padded_call(nu, x):
    """j_grid at x inside a call padded with 9000 more radii in the table range."""
    pad = np.linspace(bessel.TABLE_X_LO, bessel.asymptotic_switch_radius(nu), 9000,
                      endpoint=False)
    return bessel.j_grid(nu, np.concatenate([x, pad]))[:x.size]


@pytest.mark.parametrize("call", (bessel.j_grid, _padded_call), ids=("small", "table"))
@pytest.mark.parametrize("nu", (0.3, 1.7, 2.7, 8.66))
def test_decay_sized_calls_escape_the_series_cancellation(nu, call):
    # the power series would cancel terms of up to ~4e3 here; j_grid does not sum it,
    # whether the radii come alone or inside a large call
    x = np.linspace(bessel.TABLE_X_LO, 12.0, 201)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besselj(nu, v)) for v in x])
    assert np.max(np.abs(call(nu, x) - ref)) <= 2e-14


@pytest.mark.parametrize("warm", (False, True), ids=("cold", "warm"))
@pytest.mark.parametrize("nu", (0.3, 1.7, 8.66, 15.5, 20.3))
def test_a_value_does_not_depend_on_how_the_call_is_split(nu, warm, fresh_tables):
    lo, cut = bessel.series_switch_radius(nu), bessel.asymptotic_switch_radius(nu)
    top = cut if math.isfinite(cut) else lo + 60.0
    x = np.concatenate([np.linspace(0.0, lo, 50, endpoint=False),
                        np.linspace(lo, top, 9000, endpoint=False),
                        np.linspace(top, top + 200.0, 51)])
    x = np.random.default_rng(11).permutation(x)
    built = bessel._table.cache_info().currsize
    bessel.j_grid(nu, x[(x < lo) | (x >= cut)])
    assert bessel._table.cache_info().currsize == built   # no middle radius, no table
    if warm:
        bessel.j_grid(nu, x)
    parts = [bessel.j_grid(nu, part) for part in np.split(x, [1, 101])]
    assert [part.size for part in parts] == [1, 100, 9000]
    assert np.array_equal(np.concatenate(parts), bessel.j_grid(nu, x))


def test_table_build_check_falls_back_to_the_direct_route(monkeypatch, fresh_tables):
    nu = 1.7
    real = bessel._bessel_integral

    def one_bad_node(order, x):
        out = real(order, x)
        out[7 * (bessel.TABLE_DEGREE + 1) + 3] += 1e-11   # a node of piece 7
        return out

    monkeypatch.setattr(bessel, "_bessel_integral", one_bad_node)
    assert bessel._table(nu) is None
    x = np.linspace(0.0, 40.0, 3000)
    direct = np.concatenate([bessel.j_grid(nu, part) for part in np.array_split(x, 6)])
    assert np.array_equal(bessel.j_grid(nu, x), direct)


def test_table_is_only_built_below_the_watson_limit():
    assert bessel._table(2 * bessel.ASYMPTOTIC_PAIRS + 0.5) is None
    table = bessel._table(0.3)
    assert table.shape[0] == bessel.TABLE_DEGREE + 1
    assert not table.flags.writeable


# -- j_orders: many orders on one radius grid ----------------------------------------


def _regimes(orders, x):
    """Masks (series, integral, expansion) of j_orders' map, one row per order."""
    lo = np.array([bessel.series_switch_radius(nu) for nu in orders])[:, None]
    cut = np.array([bessel.asymptotic_switch_radius(nu) for nu in orders])[:, None]
    return x < lo, (x >= lo) & (x < cut), x >= cut


KERNEL_ORDERS = np.sort(np.abs(np.arange(-83, 84) + 0.3))   # the criterion 7 flux line
LANDAU_ORDERS = np.arange(1.0, 501.0, 19.0)


@pytest.mark.parametrize("orders,x", [
    (KERNEL_ORDERS, np.linspace(0.0, 50.0, 200)),
    (LANDAU_ORDERS, np.linspace(0.0, 520.0, bessel.LANDAU_N_R)),
], ids=("kernel", "landau"))
def test_j_orders_matches_j_grid(orders, x):
    block = bessel.j_orders(orders, x)
    assert block.shape == (orders.size, x.size)
    diff = np.abs(block - np.array([bessel.j_grid(nu, x) for nu in orders]))
    series, middle, expansion = _regimes(orders, x)
    assert np.all(middle.any(axis=1))   # every order reaches the integral
    assert np.max(diff[middle]) <= 3e-14
    assert np.max(diff[series | expansion]) <= 1e-15


@pytest.mark.parametrize("nu", (0.3, 8.66, 15.5, 16.4, 17.0, 40.5, 83.3))
def test_j_orders_matches_mpmath_across_its_switches(nu):
    edges = [2.0, nu / 2.0, bessel.asymptotic_switch_radius(nu)]
    x = np.concatenate([e + np.array([-0.5, -1e-9, 0.0, 1e-9, 0.5])
                        for e in edges if math.isfinite(e) and e > 0.5])
    x = np.concatenate([x, [bessel.TABLE_X_LO, math.nextafter(bessel.TABLE_X_LO, 0.0)]])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besselj(nu, v)) for v in x])
    got = bessel.j_orders([nu], x)[0]
    assert np.max(np.abs(got - ref)) <= 3e-14
    # tiny J below nu/2 keep relative accuracy; the series' first term is
    # formed in logs, so the rounding of lgamma(nu + 1) sets the floor
    small = x < nu / 2.0
    assert np.all(np.abs(got - ref)[small] <= 1e-12 * np.abs(ref[small]))


def test_j_orders_holdout_falls_back_to_scipy(monkeypatch):
    from scipy.special import jv

    orders = np.array([0.3, 4.7, 12.5, 20.0, 33.3])
    x = np.linspace(0.0, 60.0, 241)
    good = bessel.j_orders(orders, x)
    _, middle, _ = _regimes(orders, x)
    exact = jv(orders[:, None], x)
    assert not np.array_equal(good[middle], exact[middle])   # the integral served
    real = bessel._bessel_integral

    def wrong_phase(nu, xs):
        # e^{i nu theta} in E with nu off by 1e-6, as a wrong phase would give
        return real(np.asarray(nu) + 1e-6, xs)

    monkeypatch.setattr(bessel, "_bessel_integral", wrong_phase)
    bad = bessel.j_orders(orders, x)
    assert np.array_equal(bad[middle], exact[middle])
    assert np.array_equal(bad[~middle], good[~middle])


def test_integer_orders_skip_the_t_integral(monkeypatch):
    seen = []
    real = bessel._t_integral

    def spy(nus, x, reach):
        seen.append(nus.copy())
        return real(nus, x, reach)

    monkeypatch.setattr(bessel, "_t_integral", spy)
    x = np.linspace(2.0, 30.0, 50)
    for nu in (1.0, 3.0, 7.0, 16.0):
        assert np.max(np.abs(bessel._bessel_integral(nu, x) - bessel.j_grid(nu, x))) <= 2e-14
    assert not seen
    bessel._bessel_integral(np.array([1.0, 2.5, 3.0]), x)
    assert [s.tolist() for s in seen] == [[2.5]]


def test_j_orders_validation_matches_j_grid():
    for bad in ([-0.5], [float("nan")], [float("inf")], [1.0, 1 + 1j]):
        with pytest.raises(UnsupportedOrder):
            bessel.j_orders(bad, [1.0])
    with pytest.raises(InvalidInput):
        bessel.j_orders([0.5], [1.0, -1.0])
    x = np.array([0.0, 1.0, np.nan, 5.0, 30.0, np.nan, 300.0])
    orders = [0.0, 2.5, 20.0]
    block = bessel.j_orders(orders, x)
    assert np.array_equal(np.isnan(block), np.broadcast_to(np.isnan(x), block.shape))
    assert np.array_equal(bessel.j_orders([complex(1, 0)], x), bessel.j_orders([1.0], x),
                          equal_nan=True)
    assert bessel.j_orders([], x).shape == (0, x.size)
    assert bessel.j_orders(orders, []).shape == (3, 0)


def test_j_orders_sends_the_far_range_to_scipy():
    # past QUADRATURE_MAX_PANELS panels the quadrature would outgrow its bound
    from scipy.special import jv

    reach = 2.0 * bessel.QUADRATURE_MAX_PANELS * bessel.QUADRATURE_PANEL_PHASE
    x = np.array([reach - 40.0, reach, reach + 100.0])
    got = bessel.j_orders([20.0], x)[0]
    assert np.array_equal(got[1:], jv(20.0, x[1:]))
    assert abs(got[0] - jv(20.0, x[0])) <= 3e-14
