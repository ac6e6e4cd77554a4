"""Oracle checks for the hand-written log-domain code that scipy does not
cover: log1mexp, the incomplete beta below ln y = -690, the inverse solved
in u = ln y, ln B(a, b) with one argument dwarfing the other, digamma and
trigamma differences at large arguments, and the deep
upper tail they give the distribution functions when 1 - G^c underflows
(tiny b, w > 700), hazard included, also where the survival underflows
for large b, and the small lower tail of the cdf where G^c > 1/2.
References are mpmath values.
"""

import dataclasses
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mcgompertz.cli import EXIT_OK, main
from mcgompertz.core import (
    McEParams,
    McGParams,
    cdf,
    cdf_survival,
    hazard,
    pdf,
    quantile,
    reversed_hazard,
    survival,
)
from mcgompertz.specfun import (
    _psi_sum_differences,
    digamma_diff,
    inc_beta_inv_log,
    inc_beta_reg,
    inc_beta_reg_logx,
    log1mexp,
    log_beta,
    trigamma_diff,
)

# aarset mcg optimum: b = 0.008, so the upper quantiles sit past w = 700
AARSET_MCG = McGParams(
    0.48602506867701145,
    0.008027407931889215,
    39.077927764506605,
    0.029940972501835417,
    0.07574424808702038,
)


@mp.workdps(50)
def _mp_survival(p, y):
    a, b, c, th, ga = (mp.mpf(v) for v in (p.a, p.b, p.c, p.theta, p.gamma))
    w = th / ga * mp.expm1(ga * mp.mpf(y))
    z = -mp.expm1(c * mp.log1p(-mp.exp(-w)))  # 1 - G^c
    return mp.betainc(b, a / c, 0, z, regularized=True)


@mp.workdps(50)
def _mp_upper_quantile(p, t):
    # solve I_z(b, a/c) = 1 - t for ln z, z = 1 - V, then invert the base
    a, b, c, th, ga = (mp.mpf(v) for v in (p.a, p.b, p.c, p.theta, p.gamma))
    alpha = a / c
    target = 1 - mp.mpf(t)
    ln_z0 = (mp.log(target) + mp.log(b) + mp.log(mp.beta(b, alpha))) / b
    ln_z = mp.findroot(
        lambda u: mp.log(mp.betainc(b, alpha, 0, mp.exp(u), regularized=True))
        - mp.log(target),
        ln_z0,
    )
    one_minus_g = -mp.expm1(mp.log1p(-mp.exp(ln_z)) / c)
    w = -mp.log(one_minus_g)
    return mp.log1p(ga / th * w) / ga


@settings(max_examples=40, deadline=None)
@given(
    ln_a=st.floats(-7.0, 3.0),
    ln_b=st.floats(-5.0, 3.0),
    log_y=st.floats(-3000.0, -600.0),
)
def test_inc_beta_reg_logx_deep_branch_vs_mpmath(ln_a, ln_b, log_y):
    # both sides of the ln y = -690 switch to the leading series term
    a, b = math.exp(ln_a), math.exp(ln_b)
    with mp.workdps(50):
        ref = mp.betainc(a, b, 0, mp.exp(log_y), regularized=True)
    got = inc_beta_reg_logx(log_y, a, b)
    if ref < mp.mpf("1e-300"):
        assert got <= 1e-290
    else:
        assert abs(got - float(ref)) <= 1e-12 * float(ref)


@settings(max_examples=40, deadline=None)
@given(
    ln_a=st.floats(-9.0, -4.6),
    ln_b=st.floats(-3.0, 1.6),
    ln_p=st.floats(-27.0, -0.7),
)
def test_inc_beta_inv_log_deep_round_trip_vs_mpmath(ln_a, ln_b, ln_p):
    # a <= 0.01 and p <= 1/2 put the preimage below e^{-30}, where the
    # inverse is the Newton solve in u = ln y
    a, b, p = math.exp(ln_a), math.exp(ln_b), math.exp(ln_p)
    ln_y = inc_beta_inv_log(p, a, b)[0]
    assert ln_y < -30.0
    with mp.workdps(50):
        back = mp.betainc(a, b, 0, mp.exp(ln_y), regularized=True)
    assert abs(float(back) - p) <= 1e-9 * p


def _mp_ln_1my(p, a, b, v0):
    """ln(1 - y) with I_y(a, b) = p, by mpmath: I_{1-y}(b, a) = 1 - p
    solved for v = ln(1 - y) from a start v0 near the root, at enough
    digits to keep p in 1 - p."""
    with mp.workdps(30 + max(0, int(-math.log10(p)))):
        a, b = mp.mpf(a), mp.mpf(b)
        ln_q = mp.log(1 - mp.mpf(p))
        v = mp.findroot(
            lambda v: mp.log(mp.betainc(b, a, 0, mp.exp(v), regularized=True)) - ln_q,
            (mp.mpf(v0), mp.mpf(v0) * (1 + mp.mpf("1e-9"))),
        )
    return v


def _from_the_split(a, b):
    # the split p = I_{1/2}(a, b) itself and points just above it
    half = inc_beta_reg(0.5, a, b)
    return [half, float(np.nextafter(half, 1.0)), half + 1e-9, half + 0.05]


@pytest.mark.parametrize(
    "a, b, ps",
    [
        # deep upper tail: 1 - y underflows, ln(1 - y) from -6.9e3 to -2.3e5
        (0.5, 1e-4, [0.5, 0.9, 1 - 1e-6, 1 - 1e-10]),
        (2.5, 1.7, _from_the_split(2.5, 1.7)),
        (0.6, 0.9, _from_the_split(0.6, 0.9)),
        # p < 1/2 above a split of 1.7e-17: inverting 1 - p, which keeps p
        # only to 2^-54, gave ln y = -0.62783 at the first p
        (38.3503269438837, 1.168388207760766e-4, [2.739e-16, 1e-12, 1e-6, 0.3]),
    ],
)
def test_inc_beta_inv_log_upper_side_vs_mpmath(a, b, ps):
    for p in ps:
        ln_y, ln_1my = inc_beta_inv_log(p, a, b)
        assert p >= inc_beta_reg(0.5, a, b)
        ref = _mp_ln_1my(p, a, b, ln_1my)
        assert abs(ln_1my - float(ref)) <= 1e-13 * abs(float(ref))
        with mp.workdps(30):
            ref_y = mp.log1p(-mp.exp(ref))
        assert abs(ln_y - float(ref_y)) <= 1e-13 * abs(float(ref_y))


# shapes whose split I_{1/2}(a/c, b) is below 2^-53: every t < 2^-53 lies
# above it, yet 1 - t rounds to 1 (the first is an McE fit corner; the
# second, a/c = 1.4e7 over c = 1/2, puts V within 5e-5 of 1)
SPLIT_UNDERFLOW = McEParams(
    2.5890202316736546, 141.5650479633736, 0.00033606535807500907, 2.2767216229660674
)
SPLIT_UNDERFLOW_NEAR_ONE = McEParams(2 * 14080607.45395181, 0.0002087354286991577, 0.5, 1.0)


@pytest.mark.parametrize(
    "p, t",
    [
        (SPLIT_UNDERFLOW, 1e-17),
        (SPLIT_UNDERFLOW, 1e-30),
        (SPLIT_UNDERFLOW, 1e-100),
        (SPLIT_UNDERFLOW_NEAR_ONE, 1e-21),
        (SPLIT_UNDERFLOW_NEAR_ONE, 1e-300),
    ],
)
def test_quantile_above_an_underflowing_split_vs_mpmath(p, t):
    alpha = p.a / p.c
    assert inc_beta_reg(0.5, alpha, p.b) < 2.0**-53
    ln_v, ln_1mv = inc_beta_inv_log(t, alpha, p.b)
    ref = _mp_ln_1my(t, alpha, p.b, ln_1mv)
    assert abs(ln_1mv - float(ref)) <= 1e-12 * abs(float(ref))
    with mp.workdps(30):
        ref_v = mp.log1p(-mp.exp(ref))
        ref_y = -mp.log1p(-mp.exp(ref_v / p.c)) / p.theta
    assert abs(ln_v - float(ref_v)) <= 1e-12 * abs(float(ref_v))
    assert quantile(p, t) == pytest.approx(float(ref_y), rel=1e-12)


def _mp_ln_y(p, a, b, u0):
    """ln y with I_y(a, b) = p, by mpmath, from a start u0 near the root."""
    with mp.workdps(40):
        a, b, ln_p = mp.mpf(a), mp.mpf(b), mp.log(mp.mpf(p))
        return mp.findroot(
            lambda u: mp.log(mp.betainc(a, b, 0, mp.exp(u), regularized=True)) - ln_p,
            (mp.mpf(u0), mp.mpf(u0) * (1 + mp.mpf("1e-9"))),
        )


def test_inc_beta_inv_log_where_scipy_inverse_fails_vs_mpmath():
    # betaincinv(1.0138, 1.86e-4, 2^-54) is NaN, with the preimage just
    # above the threshold of the solve in u = ln y (u0 ~ -28.4 > -30)
    a, b, p = 1.0137903909207018, 0.000186117287211366, 2.0**-54
    ln_y, ln_1my = inc_beta_inv_log(p, a, b)
    assert math.isfinite(ln_y) and math.isfinite(ln_1my)
    ref = _mp_ln_y(p, a, b, ln_y)
    assert abs(ln_y - float(ref)) <= 1e-12 * abs(float(ref))
    params = McGParams(2 * a, b, 2.0, 1.0, 1.0)
    with mp.workdps(40):
        w = -mp.log1p(-mp.exp(ref / 2))
        ref_q = mp.log1p(w)
    assert quantile(params, p) == pytest.approx(float(ref_q), rel=1e-12)


def test_inc_beta_inv_log_split_rounding_in_the_deep_region():
    # I_{1/2}(a, b) = 0 and p < 2^-53, so 1 - p rounds to 1 above the
    # split, while the start for 1 - y lies below e^{-30}: a solve in logs
    # of 1 - p would land far from 1 - y (ln(1 - y) -29.44 for -28.95)
    a, b, p = 1e14, 1e-4, 1e-17
    ln_y, ln_1my = inc_beta_inv_log(p, a, b)
    ref = _mp_ln_1my(p, a, b, ln_1my)
    assert abs(ln_1my - float(ref)) <= 1e-12 * abs(float(ref))
    with mp.workdps(30):
        ref_y = mp.log1p(-mp.exp(ref))
    assert abs(ln_y - float(ref_y)) <= 1e-12 * abs(float(ref_y))


def test_log1mexp_vs_mpmath():
    # dense in log u, so both sides of the switch at u = ln 2 are covered
    us = np.geomspace(1e-18, 700.0, 400)
    with mp.workdps(50):
        ref = [float(mp.log1p(-mp.exp(-mp.mpf(u)))) for u in us]
    assert_allclose(log1mexp(us), ref, rtol=1e-14)


def test_log1mexp_bitwise_matches_two_branch_formula():
    # the masked two-branch evaluation log1mexp used to do, point by point
    ln2 = math.log(2.0)
    grid = np.array([0.0, 1e-300, 1e-20, 0.3, np.nextafter(ln2, 0.0), ln2,
                     np.nextafter(ln2, 1.0), 1.0, 40.0, 700.0, 1e300, math.inf])

    def two_branch(x):
        out = np.empty_like(x)
        small = x < ln2
        with np.errstate(divide="ignore"):
            out[small] = np.log(-np.expm1(-x[small]))
            out[~small] = np.log1p(-np.exp(-x[~small]))
        return out

    assert log1mexp(grid).tobytes() == two_branch(grid).tobytes()
    for x in grid:
        got = log1mexp(float(x))
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == two_branch(np.array(x)).tobytes()


def test_deep_upper_tail_quantile_and_survival_vs_mpmath():
    # 1 - V underflows at these t; before the log-domain upper branch the
    # quantile was inf and the survival 0
    for t in (0.999, 1.0 - 1e-6, 1.0 - 1e-10):
        y_ref = _mp_upper_quantile(AARSET_MCG, t)
        y = quantile(AARSET_MCG, t)
        assert_allclose(y, float(y_ref), rtol=1e-12)
        s_ref = float(_mp_survival(AARSET_MCG, y_ref))
        assert_allclose(survival(AARSET_MCG, float(y_ref)), s_ref, rtol=1e-12)
        assert_allclose(cdf(AARSET_MCG, float(y_ref)), 1.0 - s_ref, rtol=1e-15)
    assert_allclose(
        survival(AARSET_MCG, 100.548), float(_mp_survival(AARSET_MCG, 100.548)), rtol=1e-13
    )


def test_deep_upper_tail_draws_are_finite():
    draws = np.sort(quantile(AARSET_MCG, 1.0 - np.geomspace(1e-3, 1e-15, 60)))
    assert np.all(np.isfinite(draws)) and np.all(np.diff(draws) > 0)


def test_eval_hazard_finite_past_survival_underflow(tmp_path):
    # G at y = 8: w = e^8 - 1 > 700, survival underflows, hazard e^8
    out = tmp_path / "g.csv"
    argv = ["eval", "--model", "g", "--params", "theta=1,gamma=1",
            "--grid-min", "0.1", "--grid-max", "8", "--grid-points", "3"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    for y, _, _, h in rows:
        assert_allclose(float(h), math.exp(float(y)), rtol=1e-12)
    # the exponential base with gamma = 0: hazard b*theta past w = 700
    out = tmp_path / "mce.csv"
    argv = ["eval", "--model", "mce", "--params", "a=1,b=0.5,c=1,theta=2",
            "--grid-min", "100", "--grid-max", "500", "--grid-points", "3"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert_allclose([float(r[3]) for r in rows], 1.0, rtol=1e-12)


def test_eval_hazard_finite_where_survival_underflows_early(tmp_path):
    # b = 5: the survival underflows at w ~ 150, long before w = 700; the
    # hazard is b*w'(y), 5e^{5.3} for G and 5 for E
    p = McGParams(1.0, 5.0, 1.0, 1.0, 1.0)
    assert_allclose(hazard(p, 5.3), 5.0 * math.exp(5.3), rtol=1e-14)
    assert_allclose(hazard(McEParams(1.0, 5.0, 1.0, 1.0), [150.0, 200.0]), 5.0, rtol=1e-15)
    out = tmp_path / "mcg.csv"
    argv = ["eval", "--model", "mcg", "--params", "a=1,b=5,c=1,theta=1,gamma=1",
            "--grid-min", "5", "--grid-max", "5.3", "--grid-points", "2"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert_allclose(float(rows[1][3]), 5.0 * math.exp(5.3), rtol=1e-14)
    out = tmp_path / "mce.csv"
    argv = ["eval", "--model", "mce", "--params", "a=1,b=5,c=1,theta=1",
            "--grid-min", "100", "--grid-max", "200", "--grid-points", "3"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert_allclose([float(r[3]) for r in rows], 5.0, rtol=1e-15)


@mp.workdps(60)
def _mp_hazards(p, y):
    # (f/S, f/F)
    a, b, c, th = (mp.mpf(v) for v in (p.a, p.b, p.c, p.theta))
    y = mp.mpf(y)
    if isinstance(p, McGParams):
        ga = mp.mpf(p.gamma)
        w, dw = th / ga * mp.expm1(ga * y), th * mp.exp(ga * y)
    else:
        w, dw = th * y, th
    ln_g = mp.log1p(-mp.exp(-w))
    z = -mp.expm1(c * ln_g)  # 1 - G^c
    f = c * dw * mp.exp(-w + (a - 1) * ln_g) * z ** (b - 1) / mp.beta(a / c, b)
    F = mp.betainc(a / c, b, 0, mp.exp(c * ln_g), regularized=True)
    return f / mp.betainc(b, a / c, 0, z, regularized=True), f / F


def test_hazard_vs_mpmath_both_bases():
    # w from below to far above the switch to b*w'(y) at (a + c)e^{-w} = 1e-16
    rng = np.random.default_rng(11)
    for k in range(24):
        a, b, c = 10.0 ** rng.uniform(-2, 2, 3)
        th, ga = 10.0 ** rng.uniform(-1, 0.5, 2)
        w = math.log(a + c) + 36.84 + rng.uniform(-10.0, 800.0)
        if k % 2:
            p, y = McEParams(a, b, c, th), w / th
        else:
            p, y = McGParams(a, b, c, th, ga), math.log1p(ga / th * w) / ga
        assert_allclose(hazard(p, y), float(_mp_hazards(p, y)[0]), rtol=1e-12)


def test_hazard_where_survival_underflows_for_large_b(tmp_path):
    # S underflows to 0 while (a + c)e^{-w} is still far above 1e-16, so
    # neither f/S nor the asymptote b*w'(y) applies; ln S comes from the
    # power series of I_x(b, a/c)
    cases = [
        (McEParams(1.0, 50.0, 1.0, 1.0), 20.0),
        (McGParams(1.0, 50.0, 1.0, 1.0, 1.0), 3.0),
        (McEParams(2.0, 80.0, 0.5, 1.0), 15.0),
    ]
    for p, y in cases:
        assert survival(p, y) == 0.0
        assert_allclose(hazard(p, y), float(_mp_hazards(p, y)[0]), rtol=1e-12)
    assert_allclose(hazard(*cases[0]), 50.0, rtol=1e-12)
    assert_allclose(hazard(*cases[1]), 1004.277, rtol=1e-6)
    out = tmp_path / "mce.csv"
    argv = ["eval", "--model", "mce", "--params", "a=1,b=50,c=1,theta=1",
            "--grid-min", "10", "--grid-max", "20", "--grid-points", "2"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert_allclose([float(r[3]) for r in rows], 50.0, rtol=1e-12)


@pytest.mark.parametrize("p, ys", [
    # f/F = 1000 e^{-y}/(1 - e^{-y}) while F = (1 - e^{-y})^1000 underflows
    (McEParams(1000.0, 1.0, 1.0, 1.0), [0.1, 0.3, 0.5]),
    # a/c = 236 against b = 25.9 over the Gompertz base
    (McGParams(236.0, 25.9, 1.0, 1.0, 1.0), [0.01, 0.02]),
])
def test_reversed_hazard_where_cdf_underflows(p, ys):
    # ln F is summed as the series of I(G^c; a/c, b), the mirror of the
    # hazard's survival series
    ys = np.array(ys)
    assert np.all(np.asarray(cdf(p, ys)) == 0.0)
    rh = np.asarray(reversed_hazard(p, ys))
    assert_allclose(rh, [float(_mp_hazards(p, y)[1]) for y in ys], rtol=1e-11)
    # (m, 1) columns give each row the bits of its floats, also beside a
    # row whose cdf does not underflow
    rows = [p, dataclasses.replace(p, a=p.a / 200.0)]
    fields = p.__dataclass_fields__
    cols = type(p)(*(np.array([getattr(r, f) for r in rows])[:, None] for f in fields))
    got = np.asarray(reversed_hazard(cols, ys))
    for i, r in enumerate(rows):
        assert got[i].tobytes() == np.asarray(reversed_hazard(r, ys)).tobytes()
    assert got[0].tobytes() == rh.tobytes()


def test_hazard_where_survival_underflows_above_half():
    # b = 2000, a = c = 1: S = e^{-2000 w} underflows from y ~ 0.31 on,
    # where 1 - G^c = e^{-w} > 1/2; the hazard is 2000 e^y
    p = McGParams(1.0, 2000.0, 1.0, 1.0, 1.0)
    ys = np.array([0.05, 0.2, 0.4, 0.45])
    assert survival(p, 0.4) == 0.0
    assert_allclose(hazard(p, ys), 2000.0 * np.exp(ys), rtol=1e-12)


@mp.workdps(40)
def _mp_cdf(p, y):
    a, b, c, th = (mp.mpf(v) for v in (p.a, p.b, p.c, p.theta))
    y = mp.mpf(y)
    if isinstance(p, McGParams):
        ga = mp.mpf(p.gamma)
        w = th / ga * mp.expm1(ga * y)
    else:
        w = th * y
    v = mp.exp(c * mp.log(-mp.expm1(-w)))  # G^c
    return mp.betainc(a / c, b, 0, v, regularized=True)


def _lopsided_columns(rng, n):
    """n random parameter sets of each base as (n, 1) columns: a, b, c in
    e^[-6, 6] and the rates in e^[-2, 2]."""
    for cls in (McGParams, McEParams):
        fields = cls.__dataclass_fields__
        shapes = np.exp(rng.uniform(-6.0, 6.0, (3, n)))
        rates = np.exp(rng.uniform(-2.0, 2.0, (len(fields) - 3, n)))
        yield cls(*(v[:, None] for v in (*shapes, *rates)))


@pytest.mark.parametrize("t", [
    1e-6, 1e-10, 1e-17, 1e-30, 1e-100,
    pytest.param(1e-300, marks=pytest.mark.xfail(strict=True, reason=(
        "two defects near the bottom of the double range: the deep inverse "
        "stops on |I - p| <= 1e-12 absolute, so Q(1e-300) can be far off, "
        "and for some shapes scipy's betainc gives 0 where I ~ 1e-293, so "
        "F fails where it is a normal double (reversed_hazard stays finite "
        "there, through its series)"))),
])
def test_cdf_at_small_tail_quantiles_vs_mpmath(t):
    # lopsided shapes put G^c above 1/2 where F is still tiny: there F
    # must be read from its own argument, since the survival rounds to 1
    rng = np.random.default_rng(5)
    for p in _lopsided_columns(rng, 1500):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = np.asarray(quantile(p, [t]))[:, 0]
            normal = y >= sys.float_info.min
            y = y[normal]
            rows = type(p)(*(v[normal] for v in (getattr(p, f) for f in p.__dataclass_fields__)))
            F = np.asarray(cdf(rows, y[:, None]))[:, 0]
            rh = np.asarray(reversed_hazard(rows, y[:, None]))
        assert np.count_nonzero(normal) > 500
        assert np.all(np.isfinite(rh))
        assert_allclose(F, t, rtol=1e-10)
        for i in rng.choice(len(y), 12, replace=False):
            values = (float(getattr(rows, f)[i, 0]) for f in p.__dataclass_fields__)
            assert_allclose(F[i], float(_mp_cdf(type(p)(*values), y[i])), rtol=1e-10)


def test_cdf_small_tail_at_a_lopsided_point():
    # a/c = 7.7e3 against b = 142: G^c > 1/2 at y = Q(1e-17)
    p = McEParams(
        2.5890202316736546, 141.5650479633736, 0.00033606535807500907, 2.2767216229660674
    )
    y = quantile(p, 1e-17)
    assert_allclose(cdf(p, y), 1e-17, rtol=1e-12)
    assert math.isfinite(reversed_hazard(p, y))


@mp.workdps(60)
def _mp_halves(p, y):
    # (F, S), each read where its own argument is at most 1/2
    a, b, c, th, ga = (mp.mpf(v) for v in (p.a, p.b, p.c, p.theta, p.gamma))
    w = th / ga * mp.expm1(ga * mp.mpf(y))
    ln_v = c * (mp.log(-mp.expm1(-w)) if w < 1 else mp.log1p(-mp.exp(-w)))
    if ln_v <= -mp.log(2):
        F = mp.betainc(a / c, b, 0, mp.exp(ln_v), regularized=True)
        return F, 1 - F
    S = mp.betainc(b, a / c, 0, -mp.expm1(ln_v), regularized=True)
    return 1 - S, S


@pytest.mark.parametrize("p, ys", [
    # tiny b, G^c > 1/2: F ~ b w; 1 - G^c is normal at w = 100 and 704,
    # subnormal at 720 and 0 in doubles at 800
    (McGParams(1.0, 1e-7, 1.0, 1.0, 1.0), np.log1p([100.0, 704.0, 720.0, 800.0])),
    # tiny a/c, G^c <= 1/2: S ~ (a/c) ln(1/G^c); G^c is normal at
    # ln G^c = -460, subnormal near -725 and 0 in doubles near -806
    (McGParams(1e-6, 1.0, 10.0, 1.0, 1.0), [1e-20, np.exp(-72.5), 1e-35]),
    (McGParams(1e-8, 1.0, 1.0, 1.0, 1.0), [0.357, 1e-200]),
])
def test_small_derived_half_vs_mpmath(p, ys):
    # the half taken as one minus the other is below 1e-4 at every y, and
    # where its own argument rounds to 1 it must still keep its digits
    F, S = (np.asarray(h) for h in cdf_survival(p, np.asarray(ys, dtype=float)))
    ref = np.array([[float(h) for h in _mp_halves(p, y)] for y in ys])
    assert np.all(ref.min(axis=1) < 1e-4)
    assert_allclose(F, ref[:, 0], rtol=1e-13)
    assert_allclose(S, ref[:, 1], rtol=1e-13)
    assert_allclose(hazard(p, ys), np.asarray(pdf(p, ys)) / ref[:, 1], rtol=1e-13)


def test_quantile_rejects_nan():
    for p in (McGParams(0.5, 0.8, 2.0, 0.1, 0.5), McEParams(0.5, 2.0, 3.0, 0.8)):
        for t in (math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError):
                quantile(p, t)


def test_log_beta_lopsided_vs_mpmath():
    # min(a, b) <= 1 and max(a, b) > 1e4: betaln is off by up to 1e-9 there
    with mp.workdps(40):
        for lo in np.geomspace(1e-8, 1.0, 9):
            for hi in np.geomspace(1.0001e4, 1e15, 12):
                ref = float(mp.log(mp.beta(mp.mpf(lo), mp.mpf(hi))))
                tol = 2e-15 * max(1.0, abs(ref))
                assert abs(log_beta(lo, hi) - ref) <= tol, (lo, hi)
                assert abs(log_beta(hi, lo) - ref) <= tol, (hi, lo)
    # 10 <= max(a, b) <= 1e4, where betaln is off by up to ~2e-11
    with mp.workdps(40):
        for lo in np.geomspace(1e-4, 1.0, 9):
            for hi in np.geomspace(10.0, 1e4, 13):
                ref = float(mp.log(mp.beta(mp.mpf(lo), mp.mpf(hi))))
                assert abs(log_beta(lo, hi) - ref) <= 1e-13, (lo, hi)
                assert abs(log_beta(hi, lo) - ref) <= 1e-13, (hi, lo)


def test_psi_differences_vs_mpmath():
    # x >= 100: the asymptotic series differenced term by term, where the
    # direct psi(x + h) - psi(x) keeps only ~1e-16 |psi(x)| absolute
    with mp.workdps(40):
        for x in np.geomspace(1e2, 1e16, 15):
            for h in np.geomspace(1e-3, 50.0, 10):
                X, H = mp.mpf(x), mp.mpf(h)
                d1 = float(mp.digamma(X + H) - mp.digamma(X))
                d2 = float(mp.polygamma(1, X + H) - mp.polygamma(1, X))
                assert abs(digamma_diff(x, h) - d1) <= 1e-12 * abs(d1), (x, h)
                assert abs(trigamma_diff(x, h) - d2) <= 1e-12 * abs(d2), (x, h)
        # below 100 the direct difference, exact to the scale of its terms
        for x in np.geomspace(1e-3, 99.0, 12):
            for h in np.geomspace(1e-3, 1e6, 10):
                X, H = mp.mpf(x), mp.mpf(h)
                d1 = float(mp.digamma(X + H) - mp.digamma(X))
                d2 = float(mp.polygamma(1, X + H) - mp.polygamma(1, X))
                scale = max(1.0, abs(float(mp.digamma(X))), abs(float(mp.digamma(X + H))))
                assert abs(digamma_diff(x, h) - d1) <= 2e-15 * scale, (x, h)
                assert abs(trigamma_diff(x, h) - d2) <= 2e-15 * float(mp.polygamma(1, X))


@pytest.mark.parametrize("fn", [digamma_diff, trigamma_diff, log_beta, _psi_sum_differences])
@pytest.mark.parametrize("x, h", [
    (0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, -1.0), (math.inf, 1.0), (1.0, math.nan),
    # one bad element in an array raises too, wherever it sits
    pytest.param(np.array([[1.0], [0.0], [2.0]]), np.array([[1.0], [3.0], [2.0]]), id="column-zero"),
    pytest.param(np.array([1.0, 150.0, 2.0]), np.array([1.0, 2.0, math.nan]), id="vector-nan"),
    pytest.param(np.array([[1.0], [2.0]]), -1.0, id="column-negative-float"),
    pytest.param(5.0, np.array([1.0, math.inf]), id="float-vector-inf"),
])
def test_psi_differences_reject_bad_arguments(fn, x, h):
    # log_beta shares the finite-and-positive check of the psi differences
    with pytest.raises(ValueError):
        fn(x, h)


@pytest.mark.parametrize("x, h", [
    (2.5, 1.7), (150.0, 0.01), (0.3, 250.0), (1e4, 2e4), (1e-3, 1e6),
    # (S, 1) columns, as a lockstep pass gives them: elements on both sides
    # of x = 100 on either side, and one lopsided pair
    (np.array([[0.3], [150.0], [99.0], [100.0], [3e6], [4.8], [1e-4]]),
     np.array([[40.0], [0.01], [120.0], [1e-3], [0.5], [1.1e13], [2e5]])),
    # a float against a column, as the gg and ge fits give them (b = 1)
    (np.array([[0.3], [150.0], [1e-4]]), 1.0),
    (1.0, np.array([[0.3], [150.0], [1e-4]])),
])
def test_psi_sum_differences_match_the_single_calls(x, h):
    # one check and psi, psi' at x + h taken once must give ln B and the
    # five psi values of the single calls bit for bit, floats as floats
    got = _psi_sum_differences(x, h)
    psi1 = sps.zeta(2, x + h)
    ref = (log_beta(x, h), digamma_diff(x, h), digamma_diff(h, x), trigamma_diff(x, h),
           trigamma_diff(h, x), float(psi1) if np.ndim(psi1) == 0 else psi1)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert type(g) is type(r)
        assert np.shape(g) == np.shape(r)
        assert np.asarray(g).tobytes() == np.asarray(r).tobytes()


def test_special_function_columns_match_float_calls():
    # (S, 1) parameter columns, as a batched fit passes them, whose rows
    # take every branch: ln B lopsided (min <= 1, max >= 10) or not, and
    # the psi differences at x >= 100 (asymptotic series) or below; and a
    # column against a row, which broadcast to a grid
    x = np.array([[0.3], [2.5], [150.0], [1e4], [0.7], [99.0], [100.0], [3e6], [12.0]])
    h = np.array([[40.0], [1.7], [0.01], [2.0], [0.2], [5.0], [1e-3], [0.5], [0.9]])
    grid = (np.array([[0.5], [150.0]]), np.array([[1.0, 30.0, 500.0]]))
    for fn in (log_beta, digamma_diff, trigamma_diff):
        for u, v in ((x, h), (h, x), (x, 0.5), (0.5, x), (x.ravel(), 7.0), grid):
            out = fn(u, v)
            ref = np.array([fn(float(ui), float(vi)) for ui, vi in
                            zip(*(np.broadcast_to(w, out.shape).ravel() for w in (u, v)))])
            assert out.shape == np.broadcast(u, v).shape
            assert out.ravel().tobytes() == ref.tobytes(), (fn.__name__, u, v)
        assert type(fn(2.5, 150.0)) is float
