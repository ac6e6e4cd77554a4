"""The library's own optimizer pieces: the lockstep trust-region driver
`_optimize.minimize` and its step, and the Gompertz profile seed of
`inference._gompertz_seed`, checked against the profile score (in mpmath)
and against scipy's bounded search of the profile likelihood."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from mcgompertz import _optimize, inference

FOUR_POINTS = np.array([10000.0, 20000.0, 30000.0, 50000.0])

# the seed's bisection bracket in ln(gamma * mean(y))
BRACKET = (-12.0, 6.0)


def _profile_score(y, gamma):
    """d ln L_p / d ln gamma of the Gompertz profile likelihood at gamma:
    n + gamma sum(y) - n gamma sum(y e^{gamma y}) / sum(expm1(gamma y)),
    in 40-digit arithmetic."""
    with mp.workdps(40):
        g = mp.mpf(float(gamma))
        ys = [mp.mpf(float(v)) for v in y]
        n = len(ys)
        num = mp.fsum(v * mp.exp(g * v) for v in ys)
        den = mp.fsum(mp.expm1(g * v) for v in ys)
        return float(n + g * mp.fsum(ys) - n * g * num / den)


def _neg_profile(y):
    """The negated Gompertz profile log-likelihood, over ln gamma; inf
    where the sum of expm1(gamma y) overflows."""
    n, sy = y.size, float(y.sum())

    def f(lg):
        g = math.exp(lg)
        with np.errstate(over="ignore"):
            t = float(np.expm1(g * y).sum())
        if not math.isfinite(t):
            return math.inf
        return -(n * math.log(n * g / t) + g * sy - n)

    return f


def _samples(count, seed):
    """Seeded random samples, their units spread over ten decades."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 60))
        scale = 10.0 ** rng.uniform(-4.0, 6.0)
        yield rng.gamma(rng.uniform(0.3, 5.0), scale, size=n)


def test_gompertz_seed_is_the_profile_optimum(aarset, glass):
    # the profile score changes sign across the seed's gamma, and theta is
    # the profile's closed form at that gamma
    for y in (aarset, glass, FOUR_POINTS):
        theta, gamma = inference._gompertz_seed(y)
        assert _profile_score(y, gamma * math.exp(-1e-9)) > 0.0
        assert _profile_score(y, gamma * math.exp(1e-9)) < 0.0
        assert theta == pytest.approx(y.size * gamma / float(np.expm1(gamma * y).sum()), rel=1e-12)


@pytest.mark.parametrize("name", ["aarset", "glass"])
def test_gompertz_seed_matches_scipy_bounded_search(name, request):
    # the profile is flat at its optimum, so Brent's method on its values
    # places the optimum to ~1e-8 only; the sign test above is the finer
    y = request.getfixturevalue(name)
    res = minimize_scalar(_neg_profile(y), bounds=(-12.0, 3.0), method="bounded",
                          options={"xatol": 1e-8})
    gamma = math.exp(float(res.x))
    theta = y.size * gamma / float(np.expm1(gamma * y).sum())
    assert inference._gompertz_seed(y) == pytest.approx((theta, gamma), rel=1e-7)


def test_gompertz_seed_is_scale_equivariant(aarset, glass):
    # theta and gamma are rates: scaling the data by k divides both by k
    for y in (aarset, glass, FOUR_POINTS):
        theta, gamma = inference._gompertz_seed(y)
        for k in 10.0 ** np.arange(-3, 7):
            assert inference._gompertz_seed(k * y) == pytest.approx(
                (theta / k, gamma / k), rel=1e-9), k


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gompertz_seed_on_random_samples(seed):
    # every seed is finite and positive, at any units, and is a root of
    # the profile score or the end of the bracket its sign points past
    large_units = 0
    for y in _samples(100, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, gamma = inference._gompertz_seed(y)
        assert math.isfinite(theta) and theta > 0.0
        assert math.isfinite(gamma) and gamma > 0.0
        below = _profile_score(y, gamma * math.exp(-1e-9))
        above = _profile_score(y, gamma * math.exp(1e-9))
        lg = math.log(gamma * float(y.mean()))
        assert below > 0.0 or lg == pytest.approx(BRACKET[0], abs=1e-9)
        assert above < 0.0 or lg == pytest.approx(BRACKET[1], abs=1e-9)
        large_units += float(y.mean()) > 1e3
    # a third of the samples are in units above 1e3, where a bracket fixed
    # in raw units, such as ln gamma <= 3, overflows e^{gamma y}
    assert large_units >= 20


def test_minimize_runs_a_block_of_starts():
    # a separable convex quadratic, +inf past x_0 = 100; fun also returns
    # its points, which evals must hold at x
    curv, centre = np.array([1.0, 4.0]), np.array([0.5, -2.0])
    calls = []

    def fun(x):
        calls.append(len(x))
        d = x - centre
        f = np.where(x[:, 0] > 100.0, math.inf, 0.5 * (curv * d * d).sum(axis=-1))
        B = np.broadcast_to(np.diag(curv), (len(x), 2, 2)).copy()
        return f, curv * d, B, x.copy()

    starts = np.array([[0.0, 0.0], [3.0, 3.0], [-5.0, 1.0], [1000.0, 0.0]])
    res = _optimize.minimize(fun, starts, max_iter=50, jac=None)
    np.testing.assert_allclose(res.x[:3], np.broadcast_to(centre, (3, 2)), atol=1e-9)
    np.testing.assert_array_equal(res.x[3], starts[3])
    np.testing.assert_array_equal(res.status, [0, 0, 0, 3])
    np.testing.assert_array_equal(res.nit_per_start[3], 0)
    np.testing.assert_array_equal(res.nfev_per_start, res.nit_per_start + 1)
    assert res.nfev == int(res.nfev_per_start.sum()) and res.nit == int(res.nit_per_start.sum())
    assert res.npass == len(calls) == 1 + int(res.nit_per_start.max())
    for kept, at_x in zip(res.evals, fun(res.x)):
        np.testing.assert_array_equal(kept, at_x)
    assert inference.minimize is _optimize.minimize


def test_trust_region_step_is_silent():
    # the first two rows get an inf or nan step, and the third overflows
    # the secular update; none may warn
    rows = [
        ([1e-160, 1e-160], [-1.0, 2.0]),
        ([0.0, 1e-200], [0.0, -1.0]),
        ([1e-160, 0.0], [1e-300, 2.0]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g, curv in rows:
            _optimize._trust_region_step(np.array([g]), np.diag(curv)[None], np.array([1.0]))
