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


def _step_rows(k, rng):
    """A shuffled batch of (g, B, radius, case) rows in dimension k, each
    built in its eigenbasis: B = Q diag(lam) Q^T and g = Q gt, with Q a
    random rotation, or the identity where lam must stay exact."""
    rows = []

    def add(case, lam, gt, radius, rotate=True):
        Q = np.linalg.qr(rng.normal(size=(k, k)))[0] if rotate else np.eye(k)
        rows.append((Q @ gt, (Q * lam) @ Q.T, radius, case))

    for _ in range(3):
        lam = np.sort(rng.uniform(0.5, 5.0, k))
        gt = rng.normal(size=k)
        newton = float(np.linalg.norm(gt / lam))
        add("newton", lam, gt, newton * rng.uniform(1.5, 3.0))
        add("boundary", lam, gt, newton * rng.uniform(0.05, 0.7))
        lam = np.sort(np.r_[-rng.uniform(0.1, 3.0), rng.normal(0.0, 3.0, k - 1)])
        add("indefinite", lam, rng.normal(size=k), rng.uniform(0.1, 3.0))
        # lam_1 = 0 exactly, on a diagonal B: with g along the null
        # direction, and orthogonal to it with room for the hard case
        lam = np.r_[0.0, np.sort(rng.uniform(0.5, 5.0, k - 1))]
        add("zero", lam, rng.normal(size=k), rng.uniform(0.1, 3.0), rotate=False)
        gt = np.r_[0.0, rng.normal(size=k - 1)]
        inside = float(np.linalg.norm(gt[1:] / lam[1:]))
        add("zero", lam, gt, inside * rng.uniform(1.2, 3.0), rotate=False)
        # with the shifted step outside, the secular iteration starts
        # from its upper bound, right of the root
        add("upper", lam, gt, inside * rng.uniform(0.3, 0.8), rotate=False)
        # the hard case: lam_1 < 0, g orthogonal to its eigenspace (of
        # dimension 1, or 2 where k >= 3) and the shifted step inside
        for dim in (1, 2) if k >= 3 else (1,):
            low = -rng.uniform(0.5, 2.0)
            lam = np.r_[np.full(dim, low), low + np.sort(rng.uniform(0.5, 4.0, k - dim))]
            gt = np.r_[np.zeros(dim), rng.normal(size=k - dim)]
            inside = float(np.linalg.norm(gt[dim:] / (lam[dim:] - low)))
            add("hard", lam, gt, inside * rng.uniform(1.2, 3.0))
            # just short of that step, where the first Newton step from
            # the upper bound overshoots the bracket and is bisected
            add("upper", lam, gt, inside * (1.0 - 10.0 ** rng.uniform(-4.0, -2.0)))
    # near-hard: as the hard case of dimension 1, but with |gt_1|/|gt| =
    # 10^U(-12, -8), so that sigma* lies within ~1e-8 of -lam_1, closer
    # than a secular iteration in sigma can resolve
    for _ in range(6):
        low = -rng.uniform(0.5, 2.0)
        lam = np.r_[low, low + np.sort(rng.uniform(0.5, 4.0, k - 1))]
        gt = np.r_[0.0, rng.normal(size=k - 1)]
        inside = float(np.linalg.norm(gt[1:] / (lam[1:] - low)))
        gt[0] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -8.0) * np.linalg.norm(gt)
        add("near-hard", lam, gt, inside * rng.uniform(1.2, 3.0))
    if k == 3:
        # a near-hard row on which a secular iteration in sigma misses the
        # radius: |s| = 1.000828 radius at radius 100, 0.999776 radius at 30
        for radius in (100.0, 30.0):
            add("near-hard", np.array([-1.0, 0.5, 2.0]), np.array([1e-11, 1.0, 1.0]), radius,
                rotate=False)
        # the first Newton step from the upper bound (sigma 3.75) lands at
        # -1.59, past the pole at -lam_2 = -0.1; unbisected, the iteration
        # ends at sigma = -3.23, on the radius but with B + sigma I
        # indefinite, where the root in the bracket is sigma = 0.516
        add("upper", np.array([-0.2, 0.1, 6.8]), np.array([0.0, 0.4, 2.6]), 0.74, rotate=False)
    order = rng.permutation(len(rows))
    g, B, radius, case = zip(*(rows[i] for i in order))
    return np.array(g), np.array(B), np.array(radius), case


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_trust_region_step_meets_the_more_sorensen_conditions(k):
    # every row of a mixed batch is a Moré-Sorensen step: |s| <= radius,
    # (B + sigma I)s = -g with sigma >= max(0, -lam_1) and sigma(radius -
    # |s|) = 0, and a nonnegative predicted decrease; sigma is read off
    # the step itself, as the least-squares shift of (B s + g) against s
    g, B, radius, case = _step_rows(k, np.random.default_rng(40 + k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, predicted = _optimize._trust_region_step(g, B, radius)
    snorm = np.linalg.norm(s, axis=-1)
    lam_1 = np.linalg.eigvalsh(B)[:, 0]
    Bs = np.einsum("mij,mj->mi", B, s)
    sigma = -np.einsum("mi,mi->m", s, Bs + g) / (snorm * snorm)
    scale = np.abs(lam_1) + np.linalg.norm(B, 2, axis=(-2, -1))
    assert (snorm <= radius * (1.0 + 1e-8)).all()
    residual = np.linalg.norm(Bs + sigma[:, None] * s + g, axis=-1)
    assert (residual <= 1e-10 * (scale * snorm + np.linalg.norm(g, axis=-1))).all()
    assert (sigma >= np.maximum(0.0, -lam_1) - 1e-10 * scale).all()
    assert (np.abs(sigma * (radius - snorm)) <= 1e-7 * np.maximum(scale, sigma) * radius).all()
    assert (predicted >= 0.0).all()
    np.testing.assert_allclose(
        predicted, -(np.einsum("mi,mi->m", g, s) + 0.5 * np.einsum("mi,mi->m", s, Bs)),
        rtol=1e-9, atol=1e-12)
    # each case took the branch it was built for
    for i, name in enumerate(case):
        if name == "newton":
            assert snorm[i] < radius[i] and abs(sigma[i]) <= 1e-10 * scale[i]
        elif name != "zero":
            assert snorm[i] == pytest.approx(radius[i], rel=1e-8)
        if name == "hard":
            assert sigma[i] == pytest.approx(-lam_1[i], rel=1e-8)
    # and each row is its one-row call, bit for bit
    for i in range(len(g)):
        alone = _optimize._trust_region_step(g[i:i + 1], B[i:i + 1], radius[i:i + 1])
        np.testing.assert_array_equal(alone[0][0], s[i])
        np.testing.assert_array_equal(alone[1][0], predicted[i])



def _falling_ridge(x):
    """ln(1 + t^2) - t/2 in t = x_0, plus (x_1 - 1)^2 / 2: a local minimum
    at t = 2 - sqrt(3), a crest at 2 + sqrt(3) and, past it, a ridge that
    falls without bound."""
    t, u = x[:, 0], x[:, 1] - 1.0
    q = 1.0 + t * t
    f = np.log(q) - 0.5 * t + 0.5 * u * u
    g = np.stack([2.0 * t / q - 0.5, u], axis=-1)
    B = np.zeros((len(x), 2, 2))
    B[:, 0, 0] = 2.0 * (1.0 - t * t) / (q * q)
    B[:, 1, 1] = 1.0
    return f, g, B


def _ridge(x):
    """The falling ridge plus a cubic penalty past t = 10, which holds the
    ridge at t ~ 10: a wall that a start without the predicate closes in
    on and stops at on the gradient."""
    f, g, B = _falling_ridge(x)
    over = np.maximum(x[:, 0] - 10.0, 0.0)
    f += 1e6 * over ** 3
    g[:, 0] += 3e6 * over ** 2
    B[:, 0, 0] += 6e6 * over
    return f, g, B


def _past_ten(x):
    return np.abs(x[:, 0]) > 10.0


def test_minimize_stops_a_start_on_its_first_trial_past_the_wall():
    starts = np.array([[0.0, 0.0], [5.0, 3.0], [-3.0, 1.0], [4.5, -2.0], [1.0, 2.0]])
    ridge, kept = [1, 3], [0, 2, 4]
    res = _optimize.minimize(_ridge, starts, max_iter=50, outside=_past_ten)
    free = _optimize.minimize(_ridge, starts, max_iter=50)
    np.testing.assert_array_equal(res.status, [0, 4, 0, 4, 0])
    assert [_optimize.STOPS[s] for s in res.status[ridge]] == ["wall", "wall"]
    # unchecked, the ridge starts close in on the wall and stop there on
    # the gradient, many iterations later
    np.testing.assert_array_equal(free.status, [0, 0, 0, 0, 0])
    assert (free.x[ridge, 0] > 10.0).all()
    assert (free.nit_per_start[ridge] > 5 * res.nit_per_start[ridge]).all()
    assert res.npass < free.npass
    # rows that never leave are untouched by the predicate
    for name in ("x", "status", "nit_per_start", "nfev_per_start"):
        np.testing.assert_array_equal(getattr(res, name)[kept], getattr(free, name)[kept])
    for i in ridge:
        # the trial past the wall was rejected, and the start ends at its
        # last accepted point, inside: where the unchecked run stands after
        # as many iterations.  One iteration earlier it had not left.
        nit = int(res.nit_per_start[i])
        assert abs(res.x[i, 0]) <= 10.0
        upto = _optimize.minimize(_ridge, starts[i:i + 1], max_iter=nit)
        np.testing.assert_array_equal(upto.x[0], res.x[i])
        np.testing.assert_array_equal(upto.status, [1])
        before = _optimize.minimize(_ridge, starts[i:i + 1], max_iter=nit - 1, outside=_past_ten)
        np.testing.assert_array_equal(before.status, [1])
        for kept_eval, at_x in zip(res.evals, _ridge(res.x[i:i + 1])):
            np.testing.assert_array_equal(kept_eval[i], at_x[0])
    # a start run alone ends as its row of the block
    for i, row in enumerate(starts):
        alone = _optimize.minimize(_ridge, row[None], max_iter=50, outside=_past_ten)
        np.testing.assert_array_equal(alone.x[0], res.x[i])
        assert (alone.status[0], alone.nit, alone.nfev) == (
            res.status[i], res.nit_per_start[i], res.nfev_per_start[i])


def test_minimize_never_accepts_a_trial_past_the_wall():
    # on the falling ridge every trial step out past the crest lowers f,
    # and nothing but the predicate holds a start: the ridge starts must
    # still end inside the wall, at their last accepted point
    starts = np.array([[0.0, 0.0], [5.0, 3.0], [-3.0, 1.0], [4.5, -2.0], [1.0, 2.0]])
    ridge = [1, 3]
    res = _optimize.minimize(_falling_ridge, starts, max_iter=50, outside=_past_ten)
    np.testing.assert_array_equal(res.status, [0, 4, 0, 4, 0])
    assert (np.abs(res.x[:, 0]) <= 10.0).all()
    for i in ridge:
        # unchecked, the start takes its falling trial past the wall on
        # iteration nit; one iteration earlier it stood at the wall-stopped
        # start's end point
        nit = int(res.nit_per_start[i])
        past = _optimize.minimize(_falling_ridge, starts[i:i + 1], max_iter=nit)
        assert past.x[0, 0] > 10.0 and past.evals[0][0] < res.evals[0][i]
        last = _optimize.minimize(_falling_ridge, starts[i:i + 1], max_iter=nit - 1)
        np.testing.assert_array_equal(last.x[0], res.x[i])
        for kept_eval, at_x in zip(res.evals, _falling_ridge(res.x[i:i + 1])):
            np.testing.assert_array_equal(kept_eval[i], at_x[0])
    # a start run alone ends as its row of the block
    for i, row in enumerate(starts):
        alone = _optimize.minimize(_falling_ridge, row[None], max_iter=50, outside=_past_ten)
        np.testing.assert_array_equal(alone.x[0], res.x[i])
        assert (alone.status[0], alone.nit, alone.nfev) == (
            res.status[i], res.nit_per_start[i], res.nfev_per_start[i])
