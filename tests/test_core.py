"""Distribution-function tests: frozen high-precision oracle values,
finite-difference and quadrature cross-checks, and shape properties."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from mcgompertz import core
from mcgompertz.core import (
    GompertzBase,
    McEParams,
    McGParams,
    base_cdf,
    base_pdf,
    cdf,
    cdf_survival,
    density_limit_at_zero,
    hazard,
    log_pdf,
    pdf,
    quantile,
    reversed_hazard,
    sample,
    survival,
)
from mcgompertz.specfun import kolmogorov_sf

# fitted five-parameter sets used repeatedly: device lifetimes and
# glass-fiber strengths (extreme c, tiny a/c exercises the log paths)
DEVICE_PARAMS = McGParams(0.2619, 0.0752, 3.7652, 0.0012, 0.0875)
FIBER_PARAMS = McGParams(0.7940, 0.1248, 192.1704, 0.0009, 5.2013)


def test_params_validation():
    with pytest.raises(ValueError):
        McGParams(0.0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        McGParams(1, -2, 1, 1, 1)
    with pytest.raises(ValueError):
        McGParams(1, 1, 1, 1, math.nan)
    with pytest.raises(ValueError):
        GompertzBase(1.0, 0.0)
    with pytest.raises(ValueError):
        base_cdf(GompertzBase(1, 1), -0.5)


def test_base_cdf_values():
    base = GompertzBase(1.0, 1.0)
    assert base_cdf(base, 0.0) == 0.0
    assert_allclose(base_cdf(base, math.log(2)), 1 - math.exp(-1), rtol=1e-13)
    # frozen 50-digit evaluation of G(45) at theta=0.0012, gamma=0.0875
    assert_allclose(
        base_cdf(GompertzBase(0.0012, 0.0875), 45.0),
        0.49827061678012386,
        rtol=1e-12,
    )


def test_base_pdf_values():
    assert base_pdf(GompertzBase(0.5, 1.0), 0.0) == 0.5
    assert_allclose(
        base_pdf(GompertzBase(1.0, 1.0), math.log(2)),
        2 * math.exp(-1),
        rtol=1e-13,
    )


def test_base_pdf_is_derivative_of_base_cdf():
    h = 1e-6
    for theta, gamma, y in [(1, 1, 0.7), (0.5, 2.0, 1.3), (0.0012, 0.0875, 45.0)]:
        base = GompertzBase(theta, gamma)
        fd = (base_cdf(base, y + h) - base_cdf(base, y - h)) / (2 * h)
        assert_allclose(base_pdf(base, y), fd, rtol=1e-6)


def test_base_cdf_overflow_guard():
    base = GompertzBase(1.0, 1.0)
    assert base_cdf(base, 800.0) == 1.0
    assert base_pdf(base, 800.0) == 0.0


def test_pdf_gompertz_reduction():
    assert_allclose(pdf(McGParams(1, 1, 1, 0.5, 1.0), 0.0), 0.5, rtol=1e-13)


def test_pdf_limit_formula_at_zero():
    # a=1, b=2, c=1: f(0+) = theta*c/B(1/c, b) = 1/B(1,2) = 2
    assert_allclose(pdf(McGParams(1, 2, 1, 1, 1), 0.0), 2.0, rtol=1e-12)


def test_pdf_matches_cdf_derivative():
    h = 1e-6
    y = 10.0
    fd = (cdf(DEVICE_PARAMS, y + h) - cdf(DEVICE_PARAMS, y - h)) / (2 * h)
    assert_allclose(pdf(DEVICE_PARAMS, y), fd, atol=1e-7)
    # frozen 50-digit value of the same density
    assert_allclose(pdf(DEVICE_PARAMS, y), 0.0072172640925119803, rtol=1e-12)


def test_log_pdf_gompertz_value():
    got = log_pdf(McGParams(1, 1, 1, 1, 1), math.log(2))
    assert_allclose(got, math.log(2) - 1.0, rtol=1e-13)


def test_log_pdf_consistent_with_pdf():
    params = McGParams(0.7, 1.9, 1.3, 0.4, 0.6)
    ys = np.linspace(0.01, 6.0, 200)
    lp = np.asarray(log_pdf(params, ys))
    assert_allclose(np.exp(lp), np.asarray(pdf(params, ys)), rtol=1e-12)


def test_log_pdf_survives_large_exponent():
    # gamma*y = 7 pushes e^{gamma y} to ~1075; frozen 50-digit value
    assert_allclose(
        log_pdf(DEVICE_PARAMS, 80.0), -4.0683941791295175, rtol=1e-12
    )


def test_cdf_values():
    assert cdf(DEVICE_PARAMS, 0.0) == 0.0
    assert_allclose(
        cdf(McGParams(1, 1, 1, 1, 1), math.log(2)),
        1 - math.exp(-1),
        rtol=1e-13,
    )
    # frozen: high-precision incomplete-beta evaluation, cross-checked
    # against 50-digit quadrature of the density over [0, 1.2]
    assert_allclose(
        cdf(McGParams(2, 3, 1.5, 0.5, 0.8), 1.2),
        0.82163010827194499,
        rtol=1e-10,
    )


def test_cdf_deep_underflow_regime():
    # fiber parameters at y=0.55: G^c ~ e^{-1126} underflows any double,
    # yet the cdf is ~0.0092; value frozen from the log-domain route and
    # consistent with the fitted model's leftmost observation
    got = cdf(FIBER_PARAMS, 0.55)
    assert 0.005 < got < 0.02
    assert_allclose(
        survival(FIBER_PARAMS, 0.55) + got, 1.0, rtol=1e-12
    )


def test_cdf_monotone():
    ys = np.linspace(0.0, 90.0, 400)
    vals = np.asarray(cdf(DEVICE_PARAMS, ys))
    assert np.all(np.diff(vals) >= 0)


def test_survival_complement():
    ys = np.linspace(0.05, 6.0, 50)
    params = McGParams(0.8, 1.4, 2.1, 0.3, 0.7)
    s = np.asarray(survival(params, ys))
    F = np.asarray(cdf(params, ys))
    assert_allclose(s + F, 1.0, rtol=1e-12)


def test_hazard_gompertz_closed_form():
    # a=b=c=1 reduces to the Gompertz hazard theta*e^{gamma y}
    assert_allclose(hazard(McGParams(1, 1, 1, 1, 0.5), 2.0), math.e, rtol=1e-12)
    # past w = 700 the survival underflows but the hazard is finite; there
    # it is b*theta*e^{gamma y} to O(e^{-w})
    assert_allclose(hazard(McGParams(1, 1, 1, 1, 1), 8.0), math.exp(8.0), rtol=1e-12)
    ys = np.array([20.0, 30.0])
    assert_allclose(
        hazard(McGParams(0.5, 0.8, 2.0, 0.1, 0.5), ys),
        0.8 * 0.1 * np.exp(0.5 * ys),
        rtol=1e-12,
    )


def test_hazard_identities():
    ys = np.linspace(0.2, 60.0, 40)
    h = np.asarray(hazard(DEVICE_PARAMS, ys))
    rh = np.asarray(reversed_hazard(DEVICE_PARAMS, ys))
    s = np.asarray(survival(DEVICE_PARAMS, ys))
    F = np.asarray(cdf(DEVICE_PARAMS, ys))
    f = np.asarray(pdf(DEVICE_PARAMS, ys))
    assert_allclose(h * s, f, rtol=1e-10)
    assert_allclose(rh * F, f, rtol=1e-10)


def test_reversed_hazard_domain_error_at_zero():
    with pytest.raises(ValueError):
        reversed_hazard(DEVICE_PARAMS, 0.0)


def test_hazard_bathtub_shape():
    # the fitted device-lifetime hazard falls then rises: exactly one
    # sign change of the finite differences over (0, 90)
    ys = np.linspace(0.5, 89.5, 300)
    h = np.asarray(pdf(DEVICE_PARAMS, ys)) / np.asarray(
        survival(DEVICE_PARAMS, ys)
    )
    signs = np.sign(np.diff(h))
    changes = np.flatnonzero(np.diff(signs))
    assert signs[0] < 0 and signs[-1] > 0
    assert len(changes) == 1


def test_quantile_closed_form():
    got = quantile(McGParams(1, 1, 1, 1, 1), 1 - math.exp(-1))
    assert_allclose(got, math.log(2), rtol=1e-12)


def test_quantile_cdf_round_trip():
    params = McGParams(1, 1, 1, 0.1, 0.5)
    ys = np.arange(0.1, 5.05, 0.35)
    assert_allclose(
        np.asarray(quantile(params, cdf(params, ys))), ys, rtol=1e-10
    )
    for p in [DEVICE_PARAMS, FIBER_PARAMS, McGParams(0.3, 0.4, 0.5, 0.2, 1.2)]:
        ts = np.array([1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 1 - 1e-6])
        back = np.asarray(cdf(p, quantile(p, ts)))
        assert np.max(np.abs(back - ts)) <= 1e-8


def test_quantile_matches_bisection():
    lo, hi = 1.0, 90.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cdf(DEVICE_PARAMS, mid) < 0.5:
            lo = mid
        else:
            hi = mid
    assert abs(quantile(DEVICE_PARAMS, 0.5) - 0.5 * (lo + hi)) < 1e-7


def test_quantile_monotone_and_domain():
    ts = np.linspace(0.01, 0.99, 25)
    qs = np.asarray(quantile(DEVICE_PARAMS, ts))
    assert np.all(np.diff(qs) > 0)
    with pytest.raises(ValueError):
        quantile(DEVICE_PARAMS, 0.0)
    with pytest.raises(ValueError):
        quantile(DEVICE_PARAMS, 1.0)


# the benchmark's quadrature panel points: README, aarset McG (b ~ 8e-3)
# and glass McG (a/c ~ 2e-3, c ~ 219)
PANEL = [
    (0.5, 0.8, 2.0, 0.1, 0.5),
    (0.48602506867701145, 0.008027407931889215, 39.077927764506605,
     0.029940972501835417, 0.07574424808702038),
    (0.4500793196655103, 0.042314322674387124, 219.49017482882707,
     7.149867624426224e-06, 8.090210587209212),
]


def _seeded_shape_sets(n, seed=15):
    """PANEL, then n seeded sets with a/c down to 1e-3, b down to 1e-3 and
    c up to 219."""
    rng = np.random.default_rng(seed)
    sets = list(PANEL)
    for _ in range(n):
        c = math.exp(rng.uniform(math.log(0.05), math.log(219.0)))
        alpha = math.exp(rng.uniform(math.log(1e-3), math.log(20.0)))
        b = math.exp(rng.uniform(math.log(1e-3), math.log(50.0)))
        sets.append((alpha * c, b, c, math.exp(rng.uniform(-8, 1)), math.exp(rng.uniform(-3, 2))))
    return sets


QUANTILE_TS = np.concatenate([
    [1e-9, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1 - 1e-10],
    np.random.default_rng(16).uniform(0.0, 1.0, 20),
])


def test_quantile_columns_equal_scalar_rows():
    # (m, 1) parameter columns invert the whole grid in one call, each row
    # bit for bit as a call with that row's floats
    sets = _seeded_shape_sets(40)
    cols = McGParams(*(np.array(field)[:, None] for field in zip(*sets)))
    got = quantile(cols, QUANTILE_TS)
    assert got.shape == (len(sets), QUANTILE_TS.size)
    for row, values in zip(got, sets):
        want = quantile(McGParams(*values), QUANTILE_TS)
        assert row.tobytes() == want.tobytes()
    # a column in c alone, as a shape curve builds it
    for a, b, _, theta, gamma in sets[:10]:
        cs = np.array([1e-3, 0.02, 0.5, 1.0, 2.5, 5.0, 219.0])
        got = quantile(McGParams(a, b, cs[:, None], theta, gamma), QUANTILE_TS)
        for row, c in zip(got, cs):
            want = quantile(McGParams(a, b, float(c), theta, gamma), QUANTILE_TS)
            assert row.tobytes() == want.tobytes()


def test_log_pdf_columns_at_scalar_y_equal_scalar_rows():
    # (m, 1) parameter columns at one y give an (m, 1) array whose row i
    # equals bit for bit the value at the floats of row i: y = 0 is the
    # boundary (a below, at and above 1) and y = 30 puts rows past w = 700
    sets = [
        (0.5, 0.8, 2.0, 0.1, 0.5), (1.0, 2.0, 1.0, 1.0, 1.0), (2.0, 2.0, 2.0, 0.1, 0.5),
        (0.2619, 0.0752, 3.7652, 0.0012, 0.0875), (0.7940, 0.1248, 192.1704, 0.0009, 5.2013),
    ]
    cols = McGParams(*(np.array(field)[:, None] for field in zip(*sets)))
    assert np.count_nonzero(cols.base.w(30.0) > 700.0) > 0
    for y in (0.0, 0.7, 30.0):
        for fn in (log_pdf, pdf):
            got = fn(cols, y)
            assert got.shape == (len(sets), 1)
            for row, values in zip(got, sets):
                assert row.tobytes() == np.float64(fn(McGParams(*values), y)).tobytes()


# rows across the regimes of cdf_survival and hazard: G^c above and below
# 1/2, w > 700, the survival underflowing with the hazard on its asymptote
# (w > 700) and off it (b = 50 at y = 3, where ln S is a series), and the
# tiny-b aarset optimum
DISTRIBUTION_SETS = [
    (0.5, 0.8, 2.0, 0.1, 0.5), (1.0, 2.0, 1.0, 1.0, 1.0), (2.0, 2.0, 2.0, 0.1, 0.5),
    (0.2619, 0.0752, 3.7652, 0.0012, 0.0875), (0.7940, 0.1248, 192.1704, 0.0009, 5.2013),
    (1.0, 50.0, 1.0, 1.0, 1.0),
    (0.48602506867701145, 0.008027407931889215, 39.077927764506605,
     0.029940972501835417, 0.07574424808702038),
]
DISTRIBUTION_YS = np.array([0.0, 0.05, 0.7, 3.0, 6.5, 30.0, 90.0])


def test_distribution_columns_equal_scalar_rows():
    # (m, 1) parameter columns give rows equal bit for bit to the calls
    # with each row's floats, at an array y and at a scalar y
    sets = DISTRIBUTION_SETS
    cols = McGParams(*(np.array(field)[:, None] for field in zip(*sets)))
    assert np.count_nonzero(np.asarray(survival(cols, DISTRIBUTION_YS)) == 0.0) > 0

    def pair(p, y):
        return np.stack(cdf_survival(p, y))

    for fn in (cdf, survival, hazard, reversed_hazard, pair):
        for y in (DISTRIBUTION_YS[1:], 3.0):
            got = np.asarray(fn(cols, y))
            assert got.shape[-2:] == (len(sets), np.size(y))
            for i, values in enumerate(sets):
                want = np.asarray(fn(McGParams(*values), y))
                assert got[..., i, :].tobytes() == want.reshape(got[..., i, :].shape).tobytes()
    # a column in one shape alone (a, then c) over the exponential base
    column = np.array([0.5, 1.0, 2.0, 219.0])
    for field in (0, 2):
        fields = [0.5, 0.8, 2.0, 0.1]
        fields[field] = column[:, None]
        got = cdf_survival(McEParams(*fields), DISTRIBUTION_YS)
        for i, v in enumerate(column.tolist()):
            fields[field] = v
            want = cdf_survival(McEParams(*fields), DISTRIBUTION_YS)
            assert got[0][i].tobytes() == want[0].tobytes()
            assert got[1][i].tobytes() == want[1].tobytes()


def test_cdf_survival_is_cdf_and_survival():
    for values in DISTRIBUTION_SETS:
        p = McGParams(*values)
        F, S = cdf_survival(p, DISTRIBUTION_YS)
        assert F.tobytes() == np.asarray(cdf(p, DISTRIBUTION_YS)).tobytes()
        assert S.tobytes() == np.asarray(survival(p, DISTRIBUTION_YS)).tobytes()


def test_scalar_calls_return_python_floats():
    # every public function of core returns a float at a scalar point
    p = McGParams(0.5, 0.8, 2.0, 0.1, 0.5)
    calls = {
        "base_cdf": lambda: base_cdf(p.base, 0.7),
        "base_pdf": lambda: base_pdf(p.base, 0.7),
        "pdf": lambda: pdf(p, 0.7),
        "log_pdf": lambda: log_pdf(p, 0.7),
        "cdf": lambda: cdf(p, 0.7),
        "survival": lambda: survival(p, 0.7),
        "cdf_survival": lambda: cdf_survival(p, 0.7),
        "hazard": lambda: hazard(p, 0.7),
        "reversed_hazard": lambda: reversed_hazard(p, 0.7),
        "quantile": lambda: quantile(p, 0.3),
        "density_limit_at_zero": lambda: density_limit_at_zero(p),
    }
    functions = {name for name in core.__all__ if not isinstance(getattr(core, name), type)}
    assert functions - {"sample"} == set(calls)
    for name, call in calls.items():
        out = call()
        for value in out if name == "cdf_survival" else (out,):
            assert type(value) is float, name
    assert type(sample(p, 3, seed=1)) is np.ndarray


def test_sample_deterministic():
    s1 = sample(DEVICE_PARAMS, 20, seed=123)
    s2 = sample(DEVICE_PARAMS, 20, seed=123)
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, sample(DEVICE_PARAMS, 20, seed=124))
    assert sample(DEVICE_PARAMS, 0, seed=1).shape == (0,)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        sample(DEVICE_PARAMS, -1, 0)


def test_sample_ks_agreement():
    params = McGParams(2, 2, 2, 0.1, 0.5)
    x = np.sort(sample(params, 100_000, seed=7))
    F = np.asarray(cdf(params, x))
    n = x.size
    i = np.arange(1, n + 1)
    d = max(np.max(i / n - F), np.max(F - (i - 1) / n))
    assert kolmogorov_sf(d, n) > 0.01


def test_density_limit_at_zero():
    assert_allclose(density_limit_at_zero(McGParams(1, 2, 1, 1, 1)), 2.0)
    assert density_limit_at_zero(McGParams(1.5, 2, 1, 1, 1)) == 0.0
    assert density_limit_at_zero(McGParams(0.5, 2, 1, 1, 1)) == math.inf
    assert pdf(McGParams(0.5, 2, 1, 1, 1), 1e-8) > 1e3


def _integrate_density(params):
    # integrate in u = ln y: the boundary spike y^{a-1} becomes a smooth
    # exponential, which adaptive quadrature resolves honestly (in the
    # linear variable QAGS extrapolation can return a confidently wrong
    # value on these panels).  The omitted caps carry 1e-9 + 1e-10 mass.
    cuts = [
        quantile(params, t)
        for t in (1e-9, 0.001, 0.1, 0.5, 0.9, 0.999, 1 - 1e-10)
    ]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, _ = integrate.quad(
            lambda u: math.exp(u) * pdf(params, math.exp(u)),
            math.log(lo),
            math.log(hi),
            limit=200,
        )
        total += val
    return total


def test_normalization_grid():
    for a in (0.3, 1.0, 3.0):
        for b in (0.3, 1.0, 3.0):
            for c in (0.3, 1.0, 3.0):
                params = McGParams(a, b, c, 0.1, 0.5)
                assert_allclose(_integrate_density(params), 1.0, atol=1e-6)


def test_far_tail_vanishes():
    for params in [DEVICE_PARAMS, McGParams(0.3, 1, 3, 0.1, 0.5)]:
        y_far = quantile(params, 1 - 1e-9) + 10.0 / params.gamma
        assert pdf(params, y_far) < 1e-12


def test_vector_scalar_consistency():
    ys = np.array([0.0, 0.4, 2.0, 31.0])
    vec = np.asarray(cdf(DEVICE_PARAMS, ys))
    for i, y in enumerate(ys):
        assert vec[i] == cdf(DEVICE_PARAMS, float(y))
    lp_vec = np.asarray(log_pdf(DEVICE_PARAMS, ys))
    for i, y in enumerate(ys):
        assert lp_vec[i] == log_pdf(DEVICE_PARAMS, float(y))
