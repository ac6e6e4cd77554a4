"""The library's own minimizers: `_optimize.minimize` and the bounded Brent
search, checked against the scipy routines they stand in for."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from mcgompertz import _optimize, inference
from mcgompertz._optimize import minimize_scalar_bounded

BOUNDS = (-12.0, 3.0)


def _scipy_x(func, lo, hi, xatol=1e-8):
    with np.errstate(all="ignore"):
        res = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                              options={"xatol": xatol})
    return float(res.x)


def _neg_profile(y):
    """The Gompertz profile of `inference._gompertz_seed`, over ln gamma."""
    n, sy = y.size, float(y.sum())

    def f(lg):
        g = math.exp(lg)
        with np.errstate(over="ignore"):
            t = float(np.expm1(g * y).sum())
        if not math.isfinite(t) or t <= 0.0:
            return math.inf
        return -(n * math.log(n * g / t) + g * sy - n)

    return f


def _profiles(count, seed):
    """Gompertz profiles of seeded random samples, their units spread over
    ten decades so that many overflow (inf) over part of the bracket."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 60))
        scale = 10.0 ** rng.uniform(-4.0, 6.0)
        yield _neg_profile(rng.gamma(rng.uniform(0.3, 5.0), scale, size=n))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_port_matches_scipy_on_random_profiles(seed):
    overflowing = 0
    for f in _profiles(100, seed):
        overflowing += f(BOUNDS[1]) == math.inf
        assert minimize_scalar_bounded(f, *BOUNDS, 1e-8) == _scipy_x(f, *BOUNDS)
    assert overflowing >= 20


@pytest.mark.parametrize(
    "func",
    [
        lambda x: x,
        lambda x: -x,
        lambda x: (x - 7.0) ** 2,
        lambda x: -((x + 20.0) ** 2),
        lambda x: math.inf if x > -5.0 else (x + 4.0) ** 2,
        lambda x: math.inf if x < 0.5 else x * x,
        lambda x: abs(math.sin(3.0 * x)) + 0.01 * x,
        lambda x: 1.0,
        lambda x: float(abs(math.floor(x - 1.3))),
        lambda x: min(abs(x + 6.7), 1.0),
    ],
    ids=["lower", "upper", "past-upper", "past-lower", "inf-above", "inf-below",
         "multimodal", "flat", "staircase", "plateau"],
)
def test_port_matches_scipy_at_bounds_and_infinities(func):
    x = minimize_scalar_bounded(func, *BOUNDS, 1e-8)
    assert x == _scipy_x(func, *BOUNDS)
    assert BOUNDS[0] <= x <= BOUNDS[1]


def test_port_matches_scipy_at_another_tolerance():
    f = _neg_profile(np.array([0.1, 7.0, 13.0, 21.0, 36.0]))
    assert minimize_scalar_bounded(f, -3.0, 1.0, 1e-5) == _scipy_x(f, -3.0, 1.0, 1e-5)


def test_gompertz_seed_is_the_profile_optimum():
    y = np.array([10000.0, 20000.0, 30000.0, 50000.0])
    theta, gamma = inference._gompertz_seed(y)
    assert (theta, gamma) == (1.2243014963808785e-05, 4.8492973380158664e-05)
    assert gamma == math.exp(_scipy_x(_neg_profile(y), *BOUNDS))


def test_minimize_takes_scipy_keywords():
    seen = {}

    def method(fun, x0, **kwargs):
        seen.update(kwargs)
        return fun(x0)

    out = inference.minimize(lambda x: 2.0 * x, 3.0, jac=None, hess=None,
                             method=method, options={"max_iter": 4})
    assert out == 6.0
    assert seen == {"args": (), "jac": None, "hess": None, "max_iter": 4}
    assert inference.minimize is _optimize.minimize
    with pytest.raises(TypeError):
        inference.minimize(lambda x: x, 0.0, method="trust-exact")
