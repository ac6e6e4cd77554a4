"""Kernel checks against independent oracles.

Frozen reference values come from 50-digit mpmath arithmetic, direct
quadrature of the beta integrand, and a pure bisection solve; scipy is
used as a second independent cross-check where available.
"""

import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mcgompertz.specfun import (
    _U_DEEP,
    beta_fn,
    digamma,
    expint_e1,
    inc_beta_inv_log,
    inc_beta_reg,
    inc_beta_reg_logx,
    inc_gamma_upper_reg,
    kolmogorov_sf,
    log1mexp,
    log_beta,
    log_gamma,
    trigamma,
)

EULER_GAMMA = 0.5772156649015328606


def test_log_gamma_factorial():
    # Gamma(10) = 9!
    assert_allclose(log_gamma(10.0), math.log(362880.0), rtol=1e-13)


def test_log_gamma_half():
    assert_allclose(log_gamma(0.5), 0.5 * math.log(math.pi), rtol=1e-14)


def test_log_gamma_wide_range_vs_mpmath():
    import mpmath as mp

    mp.mp.dps = 40
    for x in [1e-6, 1e-3, 0.1, 1.0, 3.7, 25.0, 1e3, 1e6]:
        ref = float(mp.log(mp.gamma(x)))
        got = log_gamma(x)
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)


def test_digamma_known_values():
    assert_allclose(digamma(1.0), -EULER_GAMMA, atol=1e-13)
    # psi(1/2) = -EulerGamma - 2 ln 2
    assert_allclose(digamma(0.5), -1.9635100260214234794, atol=1e-13)
    assert_allclose(digamma(3.7), 1.1671535393615113859, atol=1e-13)


def test_trigamma_known_values():
    assert_allclose(trigamma(1.0), math.pi**2 / 6.0, atol=1e-13)
    assert_allclose(trigamma(2.5), 0.49035775610023486497, atol=1e-13)


def test_polygamma_grid_vs_mpmath():
    import mpmath as mp

    mp.mp.dps = 40
    xs = np.geomspace(1e-3, 50.0, 40)
    for x in xs:
        assert abs(digamma(x) - float(mp.digamma(x))) <= 1e-12
        assert abs(trigamma(x) - float(mp.polygamma(1, x))) <= 1e-12 * max(
            1.0, float(mp.polygamma(1, x))
        )


def test_digamma_recurrence():
    xs = np.linspace(0.05, 20.0, 57)
    assert_allclose(digamma(xs + 1.0), digamma(xs) + 1.0 / xs, atol=1e-12)
    assert_allclose(trigamma(xs + 1.0), trigamma(xs) - 1.0 / xs**2, atol=1e-11)


def test_beta_fn_value():
    assert_allclose(beta_fn(2.5, 1.7), 0.15572238134219417336, rtol=1e-13)
    assert_allclose(beta_fn(1.0, 1.0), 1.0, rtol=1e-15)
    # B(a,b) = B(b,a)
    assert_allclose(beta_fn(0.3, 4.2), beta_fn(4.2, 0.3), rtol=1e-14)
    # an array call gives the float calls elementwise
    got = beta_fn(np.array([2.5, 0.3, 1.0]), np.array([1.7, 4.2, 1.0]))
    assert_allclose(got, [beta_fn(2.5, 1.7), beta_fn(0.3, 4.2), 1.0], rtol=1e-15)


def test_inc_beta_endpoints():
    assert inc_beta_reg(0.0, 2.5, 1.7) == 0.0
    assert inc_beta_reg(1.0, 2.5, 1.7) == 1.0


def test_inc_beta_quadrature_oracle():
    # direct quadrature of w^1.5 (1-w)^0.7 / B(2.5,1.7) over [0, 0.3]
    assert_allclose(
        inc_beta_reg(0.3, 2.5, 1.7), 0.10688143238579235953, atol=1e-12
    )


def test_inc_beta_complement_identity():
    ys = np.linspace(0.05, 0.95, 19)
    for a, b in [(0.3, 0.7), (2.5, 1.7), (5.0, 0.5), (0.07, 0.075), (8.0, 12.0)]:
        lhs = np.asarray(inc_beta_reg(ys, a, b))
        rhs = 1.0 - np.asarray(inc_beta_reg(1.0 - ys, b, a))
        assert_allclose(lhs, rhs, atol=1e-12)


def test_inc_beta_vs_scipy():
    rng = np.random.default_rng(7)
    for _ in range(30):
        a = float(rng.uniform(0.05, 20.0))
        b = float(rng.uniform(0.05, 20.0))
        y = float(rng.uniform(0.0, 1.0))
        assert_allclose(
            inc_beta_reg(y, a, b), sps.betainc(a, b, y), atol=2e-13
        )


def test_inc_beta_array_matches_scalar():
    ys = np.array([0.0, 0.12, 0.5, 0.77, 1.0])
    got = inc_beta_reg(ys, 1.3, 0.6)
    want = np.array([inc_beta_reg(float(y), 1.3, 0.6) for y in ys])
    # vector path may run extra fraction steps for the slowest lane
    assert_allclose(got, want, rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.05, 20.0),
    b=st.floats(0.05, 20.0),
    y1=st.floats(0.0, 1.0),
    y2=st.floats(0.0, 1.0),
)
def test_inc_beta_monotone(a, b, y1, y2):
    lo, hi = min(y1, y2), max(y1, y2)
    assert inc_beta_reg(lo, a, b) <= inc_beta_reg(hi, a, b) + 1e-13


def test_inc_beta_rejects_bad_args():
    with pytest.raises(ValueError):
        inc_beta_reg(0.5, -1.0, 2.0)
    with pytest.raises(ValueError):
        inc_beta_reg(1.5, 1.0, 2.0)
    # NaN is not in (0, 1): the inverse must not hand it to its log solve
    for p in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError):
            inc_beta_inv_log(p, 1.0, 2.0)


def test_inc_beta_inv_bisection_oracle():
    # frozen from a 200-step bisection on I_y(3,2) = 0.9
    assert_allclose(np.exp(inc_beta_inv_log(0.9, 3.0, 2.0)[0]), 0.85744068328996928087, atol=1e-10)


def test_inc_beta_inv_round_trip():
    ps = np.linspace(0.001, 0.999, 41)
    for a, b in [(0.3, 0.7), (2.5, 1.7), (5.0, 0.5)]:
        y = np.exp(inc_beta_inv_log(ps, a, b)[0])
        back = np.asarray(inc_beta_reg(y, a, b))
        assert_allclose(back, ps, atol=1e-10)
    # with both shapes tiny the extreme-p preimages sit within a few
    # hundred ulps of 0 or 1, so a double-valued result cannot round-trip
    # there; probe only the region where it is representable (the log
    # variant covers the tails)
    ps_mid = np.linspace(0.05, 0.85, 17)
    y = np.exp(inc_beta_inv_log(ps_mid, 0.07, 0.075)[0])
    back = np.asarray(inc_beta_reg(y, 0.07, 0.075))
    assert_allclose(back, ps_mid, atol=1e-10)


def test_inc_beta_inv_log_matches_plain():
    ps = np.linspace(0.05, 0.95, 19)
    for a, b in [(2.5, 1.7), (0.6, 0.9)]:
        lny = np.asarray(inc_beta_inv_log(ps, a, b)[0])
        assert_allclose(np.exp(lny), sps.betaincinv(a, b, ps), rtol=1e-9, atol=1e-12)


def test_inc_beta_inv_log_deep_round_trip():
    # tiny first shape: the inverse underflows any float, the log
    # variant must still round-trip through inc_beta_reg_logx
    a, b = 0.004131, 0.1248
    ps = np.array([1e-6, 1e-4, 0.01, 0.1, 0.3, 0.6, 0.9, 0.999])
    lny = np.asarray(inc_beta_inv_log(ps, a, b)[0])
    assert np.all(lny < 0)
    back = np.asarray(inc_beta_reg_logx(lny, a, b))
    assert_allclose(back, ps, atol=1e-9)


# shape pairs whose inverses reach the deep lower tail (tiny a), the
# deep upper tail (tiny b), both halves and lopsided shapes
COLUMN_SHAPES = [
    (1e-3, 0.5), (0.5, 1e-3), (2e-3, 0.04), (0.04, 2e-3), (3.0, 2.0),
    (1e-4, 1e-4), (50.0, 0.01), (0.01, 50.0), (0.07, 0.075),
]


def test_inc_beta_inv_log_columns_equal_scalar_calls():
    ps = np.concatenate([np.geomspace(1e-300, 0.5, 25), 1.0 - np.geomspace(1e-16, 0.5, 25)])
    a = np.array([s[0] for s in COLUMN_SHAPES])[:, None]
    b = np.array([s[1] for s in COLUMN_SHAPES])[:, None]
    got = inc_beta_inv_log(ps, a, b)[0]
    assert got.shape == (len(COLUMN_SHAPES), ps.size)
    grid = np.broadcast_to(ps, got.shape).ravel()
    per_point = inc_beta_inv_log(grid, np.broadcast_to(a, got.shape).ravel(),
                                 np.broadcast_to(b, got.shape).ravel())[0]
    assert per_point.tobytes() == got.tobytes()
    deep = {"low": 0, "high": 0}
    for row, (ai, bi) in zip(got, COLUMN_SHAPES):
        want = np.asarray(inc_beta_inv_log(ps, ai, bi)[0])
        assert row.tobytes() == want.tobytes()
        assert [inc_beta_inv_log(p, ai, bi)[0] for p in ps[::7]] == want[::7].tolist()
        # the return rule, for both logs: a 0-d point gives floats, a
        # 1-element point arrays, with the values of the array call
        for k in range(0, ps.size, 7):
            point = inc_beta_inv_log(np.array(ps[k]), ai, bi)
            vector = inc_beta_inv_log(ps[k:k + 1], ai, bi)
            assert [type(v) for v in point] == [float, float]
            assert [type(v) for v in vector] == [np.ndarray, np.ndarray]
            assert point[0] == want[k] and vector[0].tobytes() == want[k:k + 1].tobytes()
            assert [np.array([v]).tobytes() for v in point] == [v.tobytes() for v in vector]
        # the leading-order starts route a point to the deep solve
        lbeta = log_beta(ai, bi)
        u_low = (np.log(ps) + math.log(ai) + lbeta) / ai
        u_high = (np.log1p(-ps) + math.log(bi) + lbeta) / bi
        deep["low"] += np.count_nonzero(u_low < _U_DEEP)
        deep["high"] += np.count_nonzero((u_high < _U_DEEP) & (u_low >= _U_DEEP))
    assert deep["low"] > 0 and deep["high"] > 0


def test_inc_beta_reg_logx_columns_equal_scalar_calls():
    log_ys = np.array([-5000.0, -691.0, -689.0, -100.0, -1.0, -0.6, -1e-3, -1e-20, 0.0])
    a = np.array([s[0] for s in COLUMN_SHAPES])[:, None]
    b = np.array([s[1] for s in COLUMN_SHAPES])[:, None]
    got = inc_beta_reg_logx(log_ys, a, b)
    for row, (ai, bi) in zip(got, COLUMN_SHAPES):
        assert row.tobytes() == np.asarray(inc_beta_reg_logx(log_ys, ai, bi)).tobytes()
        # the return rule: a 0-d point gives a float, a 1-element point an
        # array, with the values of the array call
        for k in range(log_ys.size):
            point = inc_beta_reg_logx(np.array(log_ys[k]), ai, bi)
            vector = inc_beta_reg_logx(log_ys[k:k + 1], ai, bi)
            assert type(point) is float and type(vector) is np.ndarray
            assert point == row[k] and vector.tobytes() == row[k:k + 1].tobytes()
    # log1mexp keeps the same rule
    us = -log_ys[:-1]
    want = log1mexp(us)
    for k in range(us.size):
        point, vector = log1mexp(np.array(us[k])), log1mexp(us[k:k + 1])
        assert type(point) is float and type(vector) is np.ndarray
        assert point == want[k] and vector.tobytes() == want[k:k + 1].tobytes()


def test_inc_beta_reg_logx_matches_plain():
    xs = np.array([1e-3, 0.02, 0.4, 0.9])
    got = np.asarray(inc_beta_reg_logx(np.log(xs), 1.4, 2.2))
    want = np.asarray(inc_beta_reg(xs, 1.4, 2.2))
    assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_inc_beta_reg_logx_deep_vs_mpmath():
    import mpmath as mp

    mp.mp.dps = 60
    a, b = 0.004131, 0.1248
    for log_y in [-800.0, -1665.0, -5000.0]:
        y = mp.e**log_y
        ref = float(mp.betainc(a, b, 0, y, regularized=True))
        got = inc_beta_reg_logx(log_y, a, b)
        assert_allclose(got, ref, rtol=1e-10)


def test_inc_gamma_upper_known():
    # chi-square survival values: sf(x, df) = Q(df/2, x/2)
    assert_allclose(
        inc_gamma_upper_reg(0.5, 3.841459 / 2.0), 0.049999994653195765, atol=1e-12
    )
    assert_allclose(
        inc_gamma_upper_reg(0.5, 5.9249 / 2.0), 0.014928385503739887, atol=1e-12
    )
    assert inc_gamma_upper_reg(0.5, 0.0) == 1.0


def test_inc_gamma_upper_vs_scipy():
    rng = np.random.default_rng(11)
    for _ in range(40):
        s = float(rng.uniform(0.1, 30.0))
        x = float(rng.uniform(0.0, 60.0))
        assert_allclose(
            inc_gamma_upper_reg(s, x), sps.gammaincc(s, x), atol=1e-12
        )
    s, x = rng.uniform(0.1, 30.0, (5, 1)), rng.uniform(0.0, 60.0, 4)
    assert np.array_equal(inc_gamma_upper_reg(s, x), sps.gammaincc(s, x))
    with pytest.raises(ValueError):
        inc_gamma_upper_reg(s, np.array([1.0, -1.0]))


def test_expint_e1_values():
    assert_allclose(expint_e1(1.0), 0.21938393439552027368, rtol=1e-13)
    assert_allclose(expint_e1(0.3), 0.90567665167584671243, rtol=1e-13)
    assert_allclose(expint_e1(50.0), 3.7832640295504590187e-24, rtol=1e-12)
    assert_allclose(math.e * expint_e1(1.0), 0.59634736232319407434, rtol=1e-13)


def test_expint_e1_vs_scipy():
    xs = np.geomspace(1e-4, 600.0, 50)
    for x in xs:
        assert_allclose(expint_e1(float(x)), sps.exp1(x), rtol=1e-12)
    assert np.array_equal(expint_e1(xs), [expint_e1(float(x)) for x in xs])
    with pytest.raises(ValueError):
        expint_e1(np.array([1.0, 0.0]))


def test_log1mexp():
    us = np.array([1e-12, 1e-6, 0.1, 0.7, 5.0, 40.0])
    want = [math.log1p(-math.exp(-u)) if u > 0.7 else math.log(-math.expm1(-u)) for u in us]
    assert_allclose(log1mexp(us), want, rtol=1e-14)
    assert_allclose(np.exp(log1mexp(1e-14)), 1e-14, rtol=1e-9)


def test_kolmogorov_values():
    # 2 sum (-1)^{k-1} exp(-2 k^2 n d^2); frozen 50-digit sums
    assert_allclose(kolmogorov_sf(0.1216, 50), 0.4504916514, atol=1e-9)
    assert_allclose(kolmogorov_sf(0.1916, 50), 0.05089832301, atol=1e-9)
    assert_allclose(kolmogorov_sf(0.1159, 63), 0.3658104729, atol=1e-9)
    assert kolmogorov_sf(0.0, 50) == 1.0
    assert kolmogorov_sf(5.0, 50) == 0.0


def test_kolmogorov_monotone_in_d():
    ds = np.linspace(0.01, 0.5, 50)
    vals = [kolmogorov_sf(float(d), 63) for d in ds]
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.array_equal(kolmogorov_sf(ds, 63), vals)
    assert kolmogorov_sf(-0.1, 63) == 1.0


def test_log_beta_consistency():
    assert_allclose(math.exp(log_beta(2.5, 1.7)), beta_fn(2.5, 1.7), rtol=1e-14)
