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

from mcgompertz import specfun
from mcgompertz.specfun import (
    _U_DEEP,
    inc_beta_inv_log,
    inc_beta_reg,
    inc_beta_reg_logx,
    inc_gamma_upper_reg,
    kolmogorov_sf,
    log1mexp,
    log_beta,
)

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


@pytest.mark.parametrize("fn, args, message", [
    (inc_beta_reg_logx, (0.1, 1.0, 2.0), "inc_beta_reg_logx requires log_y <= 0"),
    (inc_beta_inv_log, (0.5, 0.0, 1.0), "inc_beta_inv_log requires a, b > 0"),
    (inc_gamma_upper_reg, (0.0, 1.0), "inc_gamma_upper_reg requires s > 0"),
    (kolmogorov_sf, (0.1, 0), "kolmogorov_sf requires n >= 1"),
], ids=["logx-positive", "inverse-zero-shape", "gamma-zero-s", "kolmogorov-n-zero"])
def test_rejects_out_of_range_arguments(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


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


# a seeded battery of shape pairs, moderate and extreme, with the shapes of
# two recorded hard cases: betainc(236, 25.9, x) loses I near the bottom of
# the double range, and inc_beta_inv_log(1e-12, 1e13, 1e-3) stops unrefined
_rng = np.random.default_rng(32)
BATTERY_SHAPES = np.concatenate([
    np.exp(_rng.uniform(-9.0, 9.0, (100, 2))),
    np.exp(_rng.uniform(-30.0, 30.0, (100, 2))),
    [[236.0, 25.9], [1e13, 1e-3]],
])
BATTERY_PS = np.concatenate([np.geomspace(1e-300, 0.1, 20), np.linspace(0.2, 0.8, 4),
                             1.0 - np.geomspace(1e-2, 1e-15, 6), [1e-12]])


def _battery(monkeypatch):
    """inc_beta_inv_log over BATTERY_PS at every pair of BATTERY_SHAPES, and
    the number of points that reached the deep Newton solve."""
    reached = []
    solve = specfun._beta_inv_log_deep

    def counted(p, *rest):
        reached.append(p.size)
        return solve(p, *rest)

    monkeypatch.setattr(specfun, "_beta_inv_log_deep", counted)
    out = np.array([inc_beta_inv_log(BATTERY_PS, a, b) for a, b in BATTERY_SHAPES])
    return out, sum(reached)


def test_exact_start_gives_the_newton_solve_bit_for_bit(monkeypatch):
    # where DLMF 8.17.7 bounds the error of the deep start below 1e-14
    # relative, the inverse takes it as it stands: the solve's first test
    # accepts such a start, so with the bound switched off every point,
    # each now solved from the same start, must give the same bits
    with monkeypatch.context() as m:
        fast, solved = _battery(m)
    with monkeypatch.context() as m:
        m.setattr(specfun, "_start_is_exact", lambda u0, a, b: np.zeros(np.shape(u0), bool))
        slow, solved_all = _battery(m)
    assert fast.tobytes() == slow.tobytes()
    # both paths ran: some deep starts were taken as they stand, others solved
    assert 0 < solved < solved_all


def test_exact_starts_vs_mpmath():
    # at the lower-side deep points whose start the bound covers, the
    # inverse's ln y = u0 leaves 2F1 of DLMF 8.17.7 within 1e-14 of 1, and
    # I(e^{ln y}) = p to that 1e-14 plus the error of u0 = (ln p + ln a +
    # ln B)/a: ~eps in each term, and the error of ln B itself
    import mpmath as mp

    mp.mp.dps = 40
    checked = 0
    for a, b in BATTERY_SHAPES[::10]:
        lbeta = log_beta(a, b)
        beta_err = abs(lbeta - float(mp.log(mp.beta(a, b))))
        low = BATTERY_PS < sps.betainc(a, b, 0.5)
        u0 = (np.log(BATTERY_PS) + math.log(a) + lbeta) / a
        taken = low & (u0 < _U_DEEP) & specfun._start_is_exact(u0, a, b)
        ln_y = inc_beta_inv_log(BATTERY_PS[taken], a, b)[0]
        for p, u in zip(BATTERY_PS[taken], ln_y):
            got = mp.betainc(a, b, 0, mp.exp(u), regularized=True)
            lead = mp.exp(a * mp.mpf(u)) / (a * mp.beta(a, b))
            assert abs(got / lead - 1) <= 1e-14, (a, b, p)
            tol = 1e-14 + 8e-16 * (abs(math.log(p)) + abs(math.log(a)) + abs(lbeta)) + beta_err
            assert abs(got / p - 1) <= tol, (a, b, p)
            checked += 1
    assert checked >= 20


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
    # B(2.5, 1.7), a frozen 20-digit value
    assert_allclose(math.exp(log_beta(2.5, 1.7)), 0.15572238134219417336, rtol=1e-14)
