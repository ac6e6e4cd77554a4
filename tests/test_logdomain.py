"""Oracle checks for the hand-written log-domain code that scipy does not
cover: log1mexp, the incomplete beta below ln y = -690, the inverse solved
in u = ln y, ln B(a, b) with one argument dwarfing the other, and the deep
upper tail they give the distribution functions when 1 - G^c underflows
(tiny b, w > 700), hazard included, also where the survival underflows
for large b.  References are mpmath values.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mcgompertz.cli import EXIT_OK, main
from mcgompertz.core import McEParams, McGParams, cdf, hazard, quantile, survival
from mcgompertz.specfun import inc_beta_inv_log, inc_beta_reg_logx, log1mexp, log_beta

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
    ln_y = inc_beta_inv_log(p, a, b)
    assert ln_y < -30.0
    with mp.workdps(50):
        back = mp.betainc(a, b, 0, mp.exp(ln_y), regularized=True)
    assert abs(float(back) - p) <= 1e-9 * p


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


@mp.workdps(50)
def _mp_hazard(p, y):
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
    return f / mp.betainc(b, a / c, 0, z, regularized=True)


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
        try:
            h = hazard(p, y)
        except ValueError:  # survival underflows before the asymptote holds
            assert survival(p, y) == 0.0
            continue
        assert_allclose(h, float(_mp_hazard(p, y)), rtol=1e-12)


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
        assert_allclose(hazard(p, y), float(_mp_hazard(p, y)), rtol=1e-12)
    assert_allclose(hazard(*cases[0]), 50.0, rtol=1e-12)
    assert_allclose(hazard(*cases[1]), 1004.277, rtol=1e-6)
    out = tmp_path / "mce.csv"
    argv = ["eval", "--model", "mce", "--params", "a=1,b=50,c=1,theta=1",
            "--grid-min", "10", "--grid-max", "20", "--grid-points", "2"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert_allclose([float(r[3]) for r in rows], 50.0, rtol=1e-12)


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
