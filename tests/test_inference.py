"""Tests for maximum-likelihood machinery: likelihood, score, information, fitting."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from mcgompertz import _optimize, inference
from mcgompertz.core import McGParams, log_pdf, sample
from mcgompertz.family import McEParams, exp_limit_log_pdf, make_submodel, model_spec
from mcgompertz.inference import (
    Dataset,
    FitResult,
    OptimizerConfig,
    asymptotic_ci,
    fit_mle,
    log_likelihood,
    loglik_hessian,
    observed_info,
    score,
)

# Published five-parameter point estimates for the two benchmark datasets.
AARSET_MCG_POINT = McGParams(a=0.2619, b=0.0752, c=3.7652, theta=0.0012, gamma=0.0875)
GLASS_MCG_POINT = McGParams(a=0.7940, b=0.1248, c=192.1704, theta=0.0009, gamma=5.2013)

# Frozen log-likelihoods of this implementation at those printed points. The
# published table rows state 219.0041 and 11.4208; evaluating at the rounded
# estimates reproduces neither to better than a few hundredths because the
# four-decimal rounding of theta and gamma moves the likelihood materially.
AARSET_LL_AT_POINT = -218.9669598783
GLASS_LL_AT_POINT = -11.4721701287

# Frozen optima of the deterministic default fit on the benchmark data.
AARSET_FIT_NLL = {"mcg": 217.38457098, "bg": 220.67184117, "kumg": 221.96657422}
GLASS_FIT_NLL = {"mcg": 10.77838390, "bg": 14.14344746, "kumg": 14.03050801}


def _dataset(arr, label=""):
    return Dataset(values=tuple(float(v) for v in arr), label=label)


def _random_case(rng):
    """A numerically benign (params, dataset) pair for derivative gates."""
    p = McGParams(
        a=float(rng.uniform(0.4, 2.5)),
        b=float(rng.uniform(0.4, 2.5)),
        c=float(rng.uniform(0.5, 2.5)),
        theta=float(rng.uniform(0.1, 1.2)),
        gamma=float(rng.uniform(0.1, 0.7)),
    )
    y = np.clip(rng.gamma(2.0, 0.8, size=int(rng.integers(8, 16))), 0.05, 3.0)
    return p, _dataset(y)


@pytest.fixture(scope="module")
def aarset_data(aarset):
    return _dataset(aarset, "aarset")


@pytest.fixture(scope="module")
def glass_data(glass):
    return _dataset(glass, "glass")


@pytest.fixture(scope="module")
def aarset_mcg_fit(aarset_data):
    return fit_mle("mcg", aarset_data)


@pytest.fixture(scope="module")
def glass_gg_fit(glass_data):
    return fit_mle("gg", glass_data)


class TestDataset:
    def test_stores_floats(self):
        d = Dataset(values=(1, 2.5, 3), label="toy")
        assert d.values == (1.0, 2.5, 3.0)
        assert d.n == 3
        assert d.array.dtype == float
        assert d.label == "toy"

    def test_label_defaults_empty(self):
        assert Dataset(values=(1.0,)).label == ""

    @pytest.mark.parametrize("bad", [(), (0.0,), (-1.0, 2.0), (math.nan,), (math.inf,)])
    def test_rejects_invalid_values(self, bad):
        with pytest.raises(ValueError):
            Dataset(values=bad)


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.max_iter == 500
        assert cfg.n_starts == 8
        assert cfg.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iter": 0},
            {"max_iter": 2.5},
            {"n_starts": 1.5},
            {"n_starts": -1},
            {"seed": -2},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)


class TestLogLikelihood:
    def test_single_observation_closed_form(self):
        d = Dataset(values=(math.log(2.0),))
        p = McGParams(1.0, 1.0, 1.0, 1.0, 1.0)
        assert log_likelihood("mcg", p, d) == pytest.approx(
            math.log(2.0) - 1.0, abs=1e-12
        )

    def test_matches_sum_of_log_pdf(self):
        rng = np.random.default_rng(20260819)
        for _ in range(10):
            p, d = _random_case(rng)
            direct = float(np.sum(log_pdf(p, d.array)))
            assert log_likelihood("mcg", p, d) == pytest.approx(
                direct, abs=1e-8 * d.n
            )

    def test_exponential_base_matches_log_pdf(self):
        rng = np.random.default_rng(7)
        y = rng.gamma(2.0, 0.6, size=12)
        d = _dataset(y)
        p = McEParams(0.9, 1.8, 1.3, 0.7)
        direct = float(np.sum(exp_limit_log_pdf(p, d.array)))
        assert log_likelihood("mce", p, d) == pytest.approx(direct, abs=1e-8 * d.n)

    def test_aarset_at_published_point(self, aarset_data):
        # The published row prints 219.0041; the rounded estimates actually
        # give 218.9670 on this likelihood (theta/gamma rounding dominates).
        ll = log_likelihood("mcg", AARSET_MCG_POINT, aarset_data)
        assert ll == pytest.approx(AARSET_LL_AT_POINT, abs=5e-7)
        assert ll == pytest.approx(-219.0041, abs=0.05)

    def test_glass_at_published_point(self, glass_data):
        # The published row prints 11.4208; the rounded estimates give 11.4722.
        ll = log_likelihood("mcg", GLASS_MCG_POINT, glass_data)
        assert ll == pytest.approx(GLASS_LL_AT_POINT, abs=5e-7)
        assert ll == pytest.approx(-11.4208, abs=0.06)

    def test_degenerate_exponent_is_neg_inf(self):
        d = Dataset(values=(1000.0,))
        p = McGParams(1.0, 1.0, 1.0, 1.0, 1.0)
        assert log_likelihood("mcg", p, d) == -math.inf

    def test_constraint_violation_rejected(self):
        d = Dataset(values=(1.0, 2.0))
        with pytest.raises(ValueError):
            log_likelihood("bg", McGParams(1.0, 1.0, 2.0, 1.0, 1.0), d)
        with pytest.raises(TypeError):
            log_likelihood("mce", McGParams(1.0, 1.0, 1.0, 1.0, 1.0), d)


class TestScore:
    def test_single_observation_shape_component(self):
        d = Dataset(values=(math.log(2.0),))
        p = McGParams(1.0, 1.0, 1.0, 1.0, 1.0)
        U = score("mcg", p, d)
        assert U[0] == pytest.approx(1.0 + math.log(1.0 - math.exp(-1.0)), abs=1e-12)

    def test_matches_finite_differences_on_25_cases(self):
        rng = np.random.default_rng(20260819)
        names = ("a", "b", "c", "theta", "gamma")
        for _ in range(25):
            p, d = _random_case(rng)
            U = score("mcg", p, d)
            vals = [getattr(p, nm) for nm in names]
            for i in range(5):
                h = 1e-6 * max(1.0, abs(vals[i]))
                up = vals.copy()
                up[i] += h
                dn = vals.copy()
                dn[i] -= h
                fd = (
                    log_likelihood("mcg", McGParams(*up), d)
                    - log_likelihood("mcg", McGParams(*dn), d)
                ) / (2.0 * h)
                assert abs(U[i] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_submodel_chain_rule_against_finite_differences(self, aarset_data):
        cases = {
            "bg": {"a": 0.4, "b": 0.5, "theta": 0.001, "gamma": 0.07},
            "kumg": {"b": 0.7, "c": 0.5, "theta": 0.001, "gamma": 0.06},
            "gg": {"a": 0.6, "theta": 0.002, "gamma": 0.08},
            "mce": {"a": 0.9, "b": 0.4, "c": 1.5, "theta": 0.05},
        }
        for name, vals in cases.items():
            U = score(name, make_submodel(name, vals), aarset_data)
            for i, pname in enumerate(vals):
                h = 1e-7 * max(1.0, abs(vals[pname]))
                up = dict(vals)
                up[pname] += h
                dn = dict(vals)
                dn[pname] -= h
                fd = (
                    log_likelihood(name, make_submodel(name, up), aarset_data)
                    - log_likelihood(name, make_submodel(name, dn), aarset_data)
                ) / (2.0 * h)
                assert abs(U[i] - fd) <= 1e-5 * max(1.0, abs(fd)), (name, pname)

    def test_vanishes_at_fitted_optimum(self, aarset_mcg_fit, aarset_data):
        fit = aarset_mcg_fit
        U = score("mcg", fit.params, aarset_data)
        log_scale = np.array([fit.estimates[f] for f in fit.model.free_params])
        scaled = np.max(np.abs(U * log_scale)) / max(1.0, fit.neg_loglik)
        assert scaled <= 1e-4


    def test_exact_on_the_b_ridge(self, glass_data):
        # The glass McE fit runs out to b ~ 1e13, where psi(b + a/c) - psi(b)
        # cancels catastrophically when taken as a plain difference.  The
        # log-space score p * dl/dp, the gradient the fitter follows, is
        # checked against an mpmath derivative of the log-likelihood.
        vals = (4.847, 1.069e13, 7.872, 0.01264)
        U = score("mce", McEParams(*vals), glass_data)
        y = glass_data.values

        def loglik(a, b, c, theta):
            alpha = a / c
            lb = mp.loggamma(alpha) + mp.loggamma(b) - mp.loggamma(alpha + b)
            total = 0
            for v in y:
                G = -mp.expm1(-theta * v)
                total += (
                    mp.log(c * theta) - lb - theta * v
                    + (a - 1) * mp.log(G) + (b - 1) * mp.log1p(-(G**c))
                )
            return total

        with mp.workdps(60):
            u = [mp.log(mp.mpf(v)) for v in vals]
            for i in range(4):
                def along(ui, i=i):
                    uu = list(u)
                    uu[i] = ui
                    return loglik(*[mp.exp(z) for z in uu])

                ref = float(mp.diff(along, u[i]))
                assert abs(vals[i] * U[i] - ref) <= 1e-9 * max(1.0, abs(ref)), i


    def test_exact_past_exp_underflow(self, aarset_data):
        # gamma = 0.14 puts the largest aarset lifetime at w ~ 1452, past
        # e^{-w} underflow, where 1 - G^c = 0 in floating point and the
        # score and Hessian take their deep-tail limits.  Both are checked
        # against mpmath derivatives of the log-likelihood.
        vals = (0.2619, 0.0752, 3.7652, 0.0012, 0.14)
        p = McGParams(*vals)
        y = aarset_data.values
        assert p.theta / p.gamma * math.expm1(p.gamma * max(y)) > 745.0
        U = score("mcg", p, aarset_data)
        H = loglik_hessian("mcg", p, aarset_data)

        def loglik(a, b, c, theta, gamma):
            alpha = a / c
            lb = mp.loggamma(alpha) + mp.loggamma(b) - mp.loggamma(alpha + b)
            total = 0
            for v in y:
                w = theta / gamma * mp.expm1(gamma * v)
                ln_g = mp.log1p(-mp.exp(-w))
                total += (
                    mp.log(c * theta) - lb + gamma * v - w
                    + (a - 1) * ln_g + (b - 1) * mp.log(-mp.expm1(c * ln_g))
                )
            return total

        with mp.workdps(50):
            x = [mp.mpf(v) for v in vals]
            for i in range(5):
                def along(xi, i=i):
                    xx = list(x)
                    xx[i] = xi
                    return loglik(*xx)

                ref = float(mp.diff(along, x[i]))
                assert abs(U[i] - ref) <= 1e-12 * max(1.0, abs(ref)), i
                for j in range(i, 5):
                    def pair(xi, xj, i=i, j=j):
                        xx = list(x)
                        xx[i] = xi
                        xx[j] = xj
                        return loglik(*xx)

                    ref = float(mp.diff(pair, (x[i], x[j]), (1, 1)) if i != j
                                else mp.diff(along, x[i], 2))
                    assert abs(H[i, j] - ref) <= 1e-9 * max(1.0, abs(ref)), (i, j)


class TestObservedInfo:
    def test_all_ones_shape_diagonal(self):
        # Raw curvature d2l/da2 at a=b=c=1 is n (trigamma(2) - trigamma(1))
        # = -n, so the observed information carries +n there.
        d = _dataset(np.linspace(0.2, 1.4, 12))
        p = McGParams(1.0, 1.0, 1.0, 1.0, 1.0)
        info = observed_info("mcg", p, d)
        assert info[0, 0] == pytest.approx(12.0, abs=1e-9)
        H = loglik_hessian("mcg", p, d)
        assert H[0, 0] == pytest.approx(-12.0, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        p, d = _random_case(rng)
        info = observed_info("mcg", p, d)
        assert np.max(np.abs(info - info.T)) <= 1e-8

    def test_matches_finite_differences_on_25_cases(self):
        rng = np.random.default_rng(31415)
        names = ("a", "b", "c", "theta", "gamma")
        for _ in range(25):
            p, d = _random_case(rng)
            H = loglik_hessian("mcg", p, d)
            vals = [getattr(p, nm) for nm in names]
            for i in range(5):
                h = 1e-5 * max(1.0, abs(vals[i]))
                up = vals.copy()
                up[i] += h
                dn = vals.copy()
                dn[i] -= h
                fd_row = (
                    score("mcg", McGParams(*up), d) - score("mcg", McGParams(*dn), d)
                ) / (2.0 * h)
                dev = np.abs(H[i] - fd_row) / np.maximum(1.0, np.abs(fd_row))
                assert np.max(dev) <= 1e-4

    def test_standard_errors_at_published_aarset_point(self, aarset_data):
        # Frozen inverse-information standard errors at the printed Table
        # point.  The published (s.e.) row reads (0.0656, 0.1029, 0.9946,
        # 0.0001, 0.0001): only the first component agrees with the exact
        # curvature of the printed likelihood, so the published row cannot
        # come from the inverse observed information at the printed point.
        info = observed_info("mcg", AARSET_MCG_POINT, aarset_data)
        se = np.sqrt(np.diag(np.linalg.inv(info)))
        frozen = (0.065657974, 0.057487452, 2.702277, 0.001195908, 0.015615089)
        assert se == pytest.approx(frozen, rel=1e-5)
        assert se[0] == pytest.approx(0.0656, rel=0.2)


class TestFitMle:
    def test_aarset_mcg_beats_published_value(self, aarset_mcg_fit):
        fit = aarset_mcg_fit
        assert fit.neg_loglik <= 219.06
        assert fit.neg_loglik == pytest.approx(AARSET_FIT_NLL["mcg"], abs=1e-3)
        assert fit.converged
        assert fit.grad_norm <= 1e-5

    def test_aarset_submodel_optima(self, aarset_data):
        # BG lands on the published 220.6714 up to its fourth decimal; KumG
        # reproduces the published 221.9666 exactly at display precision.
        bg = fit_mle("bg", aarset_data)
        kumg = fit_mle("kumg", aarset_data)
        assert bg.neg_loglik == pytest.approx(AARSET_FIT_NLL["bg"], abs=1e-3)
        assert kumg.neg_loglik == pytest.approx(AARSET_FIT_NLL["kumg"], abs=1e-3)
        assert bg.converged and kumg.converged

    def test_glass_submodel_optima(self, glass_data):
        # The published BG row states 14.2158, but that point is not
        # stationary for this likelihood; the actual optimum sits at 14.1434.
        bg = fit_mle("bg", glass_data)
        kumg = fit_mle("kumg", glass_data)
        assert bg.neg_loglik == pytest.approx(GLASS_FIT_NLL["bg"], abs=1e-3)
        assert kumg.neg_loglik == pytest.approx(GLASS_FIT_NLL["kumg"], abs=1e-3)
        assert abs(bg.neg_loglik - 14.2158) <= 0.10

    def test_glass_mcg_deep_optimum(self, glass_data):
        fit = fit_mle("mcg", glass_data)
        assert fit.neg_loglik == pytest.approx(GLASS_FIT_NLL["mcg"], abs=1e-3)
        assert fit.converged

    def test_glass_mce_ridge_flagged(self, glass_data):
        # The exponential-base likelihood for this data improves forever
        # along b -> infinity; the fit must report the failure honestly.
        fit = fit_mle("mce", glass_data)
        assert not fit.converged
        assert fit.estimates["b"] > 1e12
        assert fit.neg_loglik < 14.60

    def test_recovers_simulated_gompertz(self):
        y = sample(McGParams(1.0, 1.0, 1.0, 1.0, 1.0), 5000, seed=20210)
        fit = fit_mle("g", _dataset(y))
        assert fit.converged
        for name, truth in (("theta", 1.0), ("gamma", 1.0)):
            z = abs(fit.estimates[name] - truth) / fit.std_errors[name]
            assert z <= 3.0

    def test_submodel_dominance(self, aarset_mcg_fit, aarset_data):
        full = aarset_mcg_fit.neg_loglik
        for name in ("bg", "kumg", "gg", "g"):
            sub = fit_mle(name, aarset_data)
            assert full <= sub.neg_loglik + 1e-3

    def test_deterministic(self, glass_data):
        f1 = fit_mle("gg", glass_data)
        f2 = fit_mle("gg", glass_data)
        assert f1.estimates == f2.estimates
        assert f1.neg_loglik == f2.neg_loglik

    def test_multistart_never_hurts(self, glass_data, glass_gg_fit):
        single = fit_mle("gg", glass_data, OptimizerConfig(n_starts=0))
        assert glass_gg_fit.neg_loglik <= single.neg_loglik + 1e-9

    def test_result_invariants(self, aarset_mcg_fit):
        fit = aarset_mcg_fit
        info = fit.info_matrix
        assert np.max(np.abs(info - info.T)) <= 1e-8
        cov = np.linalg.inv(info)
        for i, name in enumerate(fit.model.free_params):
            assert fit.std_errors[name] == pytest.approx(
                math.sqrt(cov[i, i]), rel=1e-10
            )
        assert fit.iterations > 0
        assert set(fit.estimates) == set(fit.model.free_params)

    def test_params_property_round_trips(self, aarset_mcg_fit):
        p = aarset_mcg_fit.params
        assert isinstance(p, McGParams)
        assert p.a == aarset_mcg_fit.estimates["a"]

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            fit_mle("mcg", Dataset(values=(1.0, 2.0, 3.0, 4.0)))


    def test_evaluation_count(self, aarset_data, monkeypatch):
        # one lockstep minimize call per fit: nfev sums the objective
        # evaluations of all 17 starts, npass counts the batched passes
        counted = []
        real = inference.minimize

        def counting(*args, **kwargs):
            res = real(*args, **kwargs)
            counted.append(res)
            return res

        monkeypatch.setattr(inference, "minimize", counting)
        fit_mle("mcg", aarset_data)
        assert len(counted) == 1
        assert sum(res.nfev for res in counted) <= 2000
        assert counted[0].npass <= 100

    def test_no_runtime_warnings(self, aarset_data, glass_data):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit_mle("mcg", aarset_data)
            fit_mle("mce", glass_data)

    def test_large_units_fit_without_warnings(self):
        # data in units of 1e4: the fit must not warn, and must rescale
        # with the data: theta and gamma are rates, and the NLL of y is
        # that of y / 1e4 plus n ln 1e4
        big = Dataset(values=(10000.0, 20000.0, 30000.0, 50000.0))
        small = Dataset(values=tuple(v / 1e4 for v in big.values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_big = fit_mle("g", big)
            fit_small = fit_mle("g", small)
        assert fit_big.converged and fit_small.converged
        for name in ("theta", "gamma"):
            assert fit_big.estimates[name] * 1e4 == pytest.approx(
                fit_small.estimates[name], rel=1e-6)
        assert fit_small.neg_loglik == pytest.approx(
            fit_big.neg_loglik - big.n * math.log(1e4), rel=1e-9)

    @pytest.mark.parametrize("dataset, scale", [("aarset", 1e4), ("glass", 1e6)])
    @pytest.mark.parametrize("model", ["mcg", "bg", "kumg", "gg", "g"])
    def test_gompertz_base_fits_in_any_units(self, model, dataset, scale, request):
        # the seed is found in units of the data, so a Gompertz-base fit of
        # the data in large units is the fit of the data, rescaled
        data = request.getfixturevalue(f"{dataset}_data")
        scaled = Dataset(values=tuple(v * scale for v in data.values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_mle(model, data)
            fit_scaled = fit_mle(model, scaled)
        assert fit_scaled.converged == fit.converged
        assert fit_scaled.neg_loglik == pytest.approx(
            fit.neg_loglik + data.n * math.log(scale), abs=1e-9)
        for name, est in fit.estimates.items():
            rate = name in ("theta", "gamma")
            assert fit_scaled.estimates[name] * (scale if rate else 1.0) == pytest.approx(
                est, rel=1e-6), name

    @pytest.mark.parametrize("dataset", ["aarset", "glass"])
    @pytest.mark.parametrize("model", ["mcg", "bg", "kumg", "gg", "g", "mce", "e", "ge"])
    def test_rates_past_the_box_reach_the_scaled_optimum(self, model, dataset, request):
        # a fit of k times the data is the fit of the data, rescaled: its
        # NLL is the unscaled NLL + n ln k, and its `converged` flag is the
        # unscaled fit's, since the box is centred on the seed, which
        # carries the units.  At k = 1e9 and 1e12 the fitted rates lie past
        # |ln p| = 30 in raw units.
        data = request.getfixturevalue(f"{dataset}_data")
        misses = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_mle(model, data)
            for k in (1e-12, 1e-9, 1e-6, 1e6, 1e9, 1e12):
                scaled = fit_mle(model, Dataset(values=tuple(v * k for v in data.values)))
                want = fit.neg_loglik + data.n * math.log(k)
                if not (scaled.neg_loglik == pytest.approx(want, rel=1e-9)
                        and scaled.converged == fit.converged):
                    misses.append((k, scaled.neg_loglik - want, scaled.converged))
        assert not misses

    def test_shifted_data_converge(self, glass_data):
        # glass + 10 clusters far from the origin, so the G optimum has
        # ln theta = -41.6, past |ln p| = 30 in raw units; the seed is that
        # optimum, and the box, centred on it, holds every start
        shifted = Dataset(values=tuple(v + 10.0 for v in glass_data.values))
        fit = fit_mle("g", shifted)
        assert math.log(fit.estimates["theta"]) < -30.0
        assert fit.converged
        assert all(r.reason is None for r in fit.trace)

    def test_rate_ridge_past_the_box_not_interior(self, monkeypatch):
        # on this gamma(1) sample KumE improves along b -> inf, theta -> 0;
        # the driver walls only the shapes, so theta walks out, and the
        # box's rate half must keep those starts from converging
        rng = np.random.default_rng(14)
        rng.gamma(0.5, size=40)  # the sample is the second draw of this rng
        data = _dataset(rng.gamma(1.0, size=40))
        runs = []
        real = inference.minimize

        def recording(fun, x0, **kwargs):
            res = real(fun, x0, **kwargs)
            runs.append((x0, res.x))
            return res

        monkeypatch.setattr(inference, "minimize", recording)
        fit = fit_mle("kume", data)
        [(starts, ends)] = runs
        j = fit.model.free_params.index("theta")
        by_start = {r.start: r for r in fit.trace}
        past = [
            by_start[tuple(float(v) for v in np.exp(x))]
            for x, end in zip(starts, ends) if end[j] < starts[0, j] - 30.0
        ]
        assert past
        assert all(not r.interior and r.reason == "not interior" for r in past)
        assert not fit.converged

    def test_glass_be_converges(self, glass_data):
        # The optimum sits far out in b (~1e5) on a flat valley, where a fit
        # that stops short is left unconverged at a slightly higher NLL.
        fit = fit_mle("be", glass_data)
        assert fit.converged
        assert fit.grad_norm <= 1e-5
        assert fit.neg_loglik == pytest.approx(23.95153874, abs=1e-7)


class TestTrace:
    def test_one_record_per_start(self, aarset_mcg_fit):
        fit = aarset_mcg_fit
        assert len(fit.trace) == 2 * OptimizerConfig().n_starts + 1
        best = fit.trace[fit.winner]
        assert best.reason is None
        assert best.neg_loglik == fit.neg_loglik
        assert best.nit == fit.iterations
        assert best.grad_norm == fit.grad_norm
        assert all(r.nit >= 0 and r.nfev >= 1 for r in fit.trace)
        assert all(len(r.start) == len(fit.model.free_params) for r in fit.trace)

    def test_aarset_ridge_starts_rejected(self, aarset_mcg_fit):
        # Some starts run out along the b-ridge to a lower NLL at the box
        # wall; the winner rule keeps them out.
        fit = aarset_mcg_fit
        ridge = [r for r in fit.trace if r.neg_loglik < fit.neg_loglik - 1.0]
        assert ridge
        assert all(r.reason == "not interior" and not r.interior for r in ridge)
        converged = [r for r in fit.trace if r.reason is None]
        assert min(r.neg_loglik for r in converged) == fit.neg_loglik

    def test_glass_mce_every_start_at_the_wall(self, glass_data):
        fit = fit_mle("mce", glass_data)
        assert {r.reason for r in fit.trace} == {"not interior"}
        assert fit.trace[fit.winner].neg_loglik == min(
            r.neg_loglik for r in fit.trace
        )

    def test_ridge_starts_stop_at_the_wall(self, aarset_mcg_fit, glass_data):
        # a start that leaves the box along a shape is stopped by the
        # driver on its first trial step past the wall, and only such
        # starts are not interior; the converged ones stopped on the
        # gradient
        for fit in (aarset_mcg_fit, fit_mle("mce", glass_data)):
            wall = [r for r in fit.trace if r.reason == "not interior"]
            assert wall
            assert all(r.stop == "wall" and not r.interior for r in wall)
            assert all(r.stop != "wall" for r in fit.trace if r.reason != "not interior")
            assert all(r.stop == "gradient" for r in fit.trace if r.reason is None)

    def test_starts_past_exp_underflow_converge(self, glass_data, monkeypatch):
        # starts at 16 times the seed's gamma put the largest glass strength
        # past e^{-w} underflow (w > 745); the derivatives stay finite
        # there, so those starts walk back to the optimum like the seed
        wide = math.log(16.0)
        shifts = np.array([(-wide, wide), (0.0, wide), (wide, wide)])
        monkeypatch.setattr(
            inference, "_start_points", lambda x0, free, cfg: [x0, *(x0 + shifts)]
        )
        fit = fit_mle("g", glass_data)
        ymax = max(glass_data.values)
        deep = [
            r for r in fit.trace
            if r.start[0] / r.start[1] * math.expm1(r.start[1] * ymax) > 745.0
        ]
        assert len(deep) == len(shifts)
        assert all(r.reason is None for r in fit.trace)
        assert all(r.nit > 0 for r in deep)
        assert all(r.neg_loglik <= fit.neg_loglik + 1e-9 for r in deep)

    @pytest.mark.parametrize("model", ["g", "e"])
    def test_shape_free_starts_are_the_seed(self, model, glass_data):
        # with no free shape there is nothing to perturb, and the seed is
        # the MLE: every start is the seed and stops where it starts
        fit = fit_mle(model, glass_data)
        assert len(fit.trace) == 2 * OptimizerConfig().n_starts + 1
        assert {r.start for r in fit.trace} == {fit.trace[0].start}
        assert all(r.nit == 0 and r.reason is None for r in fit.trace)

    def test_seed_only(self, glass_data):
        fit = fit_mle("gg", glass_data, OptimizerConfig(n_starts=0))
        assert len(fit.trace) == 1 and fit.winner == 0


class TestFailurePaths:
    """The ways a fit of valid data can fail, each reached through public
    inputs: data spread over 230 decades, tied data, and data in units so
    small that the observed information underflows."""

    def test_degenerate_starts_are_set_aside(self):
        # at 16 of the 17 kume starts the derivatives of this spread's
        # likelihood are not finite: those starts stop at once, "not
        # finite", with a non-finite information, and none of them wins,
        # though some have a lower NLL than the one usable start
        fit = fit_mle("kume", Dataset((1e-200, 1e-100, 1.0, 10.0, 1e5, 1e10, 1e30)))
        degenerate = [r for r in fit.trace if r.reason == "degenerate"]
        assert len(degenerate) == len(fit.trace) - 1
        assert all(r.stop == "not finite" and r.nit == 0 and not r.pos_def for r in degenerate)
        assert min(r.neg_loglik for r in degenerate) < fit.neg_loglik
        assert fit.trace[fit.winner].reason not in (None, "degenerate")
        assert math.isfinite(fit.neg_loglik) and not fit.converged

    @pytest.mark.parametrize("model, values", [
        ("mcg", (1.0,) * 7),
        ("e", tuple(np.linspace(1.0, 2.0, 7) * 1e300)),
    ])
    def test_every_start_degenerate_raises(self, model, values):
        with pytest.raises(RuntimeError, match="every optimization replicate"):
            fit_mle(model, Dataset(values))

    def test_singular_information_gives_no_standard_errors(self):
        # in units of 1e-200 the exponential information n/theta^2
        # underflows to 0, which np.linalg.inv cannot invert
        fit = fit_mle("e", Dataset(tuple(np.linspace(1.0, 2.0, 7) * 1e-200)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(fit.info_matrix)
        assert fit.std_errors is None and not fit.converged
        assert fit.estimates["theta"] == pytest.approx(7.0 / sum(np.linspace(1.0, 2.0, 7) * 1e-200))
        with pytest.raises(ValueError, match="no standard errors"):
            asymptotic_ci(fit)


# rows of one lockstep block that take every branch of a pass: the printed
# aarset point, a row past exp underflow, plain rows, and the glass b-ridge
_LOCKSTEP_ROWS = [
    (
        McGParams,
        "aarset",
        [
            (0.2619, 0.0752, 3.7652, 0.0012, 0.0875),
            (0.2619, 0.0752, 3.7652, 0.0012, 0.14),  # w ~ 1452
            (1.0, 1.0, 1.0, 0.001, 0.05),
            (0.5, 2.0, 0.7, 0.002, 0.08),
        ],
    ),
    (
        McEParams,
        "glass",
        [
            (4.847, 1.069e13, 7.872, 0.01264),  # the b-ridge
            (0.9, 1.8, 1.3, 0.7),
            (2.0, 0.5, 3.0, 0.05),
        ],
    ),
]


class TestLockstep:
    @pytest.mark.parametrize("model, dataset", [("mcg", "aarset"), ("mce", "glass")])
    def test_starts_run_independently(self, model, dataset, request, monkeypatch):
        # each start of the default lockstep fit must end exactly as a fit
        # from that start alone: no radius, acceptance or stop status may
        # leak between the rows of the batch
        data = request.getfixturevalue(f"{dataset}_data")
        fit = fit_mle(model, data)
        all_starts = inference._start_points
        for i, rec in enumerate(fit.trace):
            monkeypatch.setattr(
                inference, "_start_points", lambda *args, i=i: all_starts(*args)[i:i + 1]
            )
            alone = fit_mle(model, data).trace[0]
            assert alone.start == rec.start
            assert (alone.nit, alone.nfev, alone.reason, alone.interior, alone.pos_def) == (
                rec.nit, rec.nfev, rec.reason, rec.interior, rec.pos_def
            ), i
            assert alone.neg_loglik == pytest.approx(rec.neg_loglik, abs=1e-12), i

    @pytest.mark.parametrize("params_type, dataset, rows", _LOCKSTEP_ROWS)
    def test_derivs_block_matches_single_rows(self, params_type, dataset, rows, request):
        # the pass runs under its caller's errstate, here the driver's
        y = request.getfixturevalue(f"{dataset}_data").array
        block = params_type(*(np.array(col)[:, None] for col in zip(*rows)))
        with np.errstate(all="ignore"):
            value, U, H = inference._derivs(block, y)
            singles = [inference._derivs(params_type(*row), y) for row in rows]
        assert value.shape == (len(rows),) and U.shape[0] == H.shape[0] == len(rows)
        for i, (v1, U1, H1) in enumerate(singles):
            np.testing.assert_allclose(value[i], v1, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(U[i], U1, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(H[i], H1, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("params_type, dataset, rows", _LOCKSTEP_ROWS)
    def test_one_row_blocks_equal_their_block_rows(self, params_type, dataset, rows, request):
        # a pass on a one-row block gives bit for bit that row of the full
        # block, in _derivs and in the log-space pass of the driver: the
        # driver's last evaluation of a start serves as its end point, and
        # a start that repeats another runs only once
        y = request.getfixturevalue(f"{dataset}_data").array
        cols = np.array(rows)
        spec = model_spec("mcg" if params_type is McGParams else "mce")
        x = np.log(cols[:, [list(spec.params_type.__dataclass_fields__).index(f)
                            for f in spec.free_params]])
        with np.errstate(all="ignore"):
            full = inference._derivs(params_type(*(c[:, None] for c in cols.T)), y)
            full_log = inference._log_space_derivs(spec, None, y, x)
            for i in range(len(rows)):
                one = inference._derivs(params_type(*(c[i:i + 1, None] for c in cols.T)), y)
                for a, b in zip(full, one):
                    assert a[i].tobytes() == b[0].tobytes(), i
                one_log = inference._log_space_derivs(spec, None, y, x[i:i + 1])
                for a, b in zip(full_log, one_log):
                    assert a[i].tobytes() == b[0].tobytes(), i

    @pytest.mark.parametrize("model", ["g", "mcg"])
    @pytest.mark.parametrize("dataset", ["aarset", "glass"])
    def test_seed_block_rows_equal_the_seed_alone(self, model, dataset, request):
        # the 17 identical seed rows a shape-free battery used to run, and
        # the seed repeated in a five-parameter block
        y = request.getfixturevalue(f"{dataset}_data").array
        spec = model_spec(model)
        seed = inference._seed_values(spec, y)
        x0 = np.log([[seed[f] for f in spec.free_params]])
        J = inference._embedding(spec)
        J = None if np.array_equal(J, np.eye(len(spec.free_params))) else J
        block = inference._log_space_derivs(spec, J, y, np.repeat(x0, 17, axis=0))
        alone = inference._log_space_derivs(spec, J, y, x0)
        for a, b in zip(block, alone):
            for i in range(17):
                assert a[i].tobytes() == b[0].tobytes(), i

    def test_out_of_range_rows_are_infinite(self, glass_data):
        # a shape past exp overflow or underflow takes a/c or b out of
        # range: f = +inf there, nothing raises, and the finite rows of a
        # mixed block are their own one-row pass, bit for bit
        y = glass_data.array
        spec = model_spec("mce")
        bad = [[720.0, 0, 0, 0], [0, 720.0, 0, 0], [-750.0, 0, 0, 0], [0, 0, 0, 720.0]]
        finite = [[0.9, 4.9, -7.9, 0.8], [0.1, 0.2, 0.3, 0.4]]
        with np.errstate(all="ignore"):
            for row in bad:
                assert inference._log_space_derivs(spec, None, y, np.array([row]))[0][0] == math.inf
            for i, row in enumerate(bad):
                block = np.array(finite[:1] + [row] + finite[1:])
                out = inference._log_space_derivs(spec, None, y, block)
                assert out[0][1] == math.inf
                for j, at in ((0, 0), (1, 2)):
                    alone = inference._log_space_derivs(spec, None, y, np.array([finite[j]]))
                    for a, b in zip(out, alone):
                        assert a[at].tobytes() == b[0].tobytes(), (i, j)

    def test_repeated_starts_run_once(self, aarset_data, monkeypatch):
        # a battery with repeats runs each distinct start once, and every
        # repeat's record is its twin's
        all_starts = inference._start_points
        pick = [0, 3, 0, 3, 5, 0]
        monkeypatch.setattr(
            inference, "_start_points", lambda *args: [all_starts(*args)[i] for i in pick]
        )
        counted = []
        real = inference.minimize

        def counting(*args, **kwargs):
            res = real(*args, **kwargs)
            counted.append(res)
            return res

        monkeypatch.setattr(inference, "minimize", counting)
        fit = fit_mle("mcg", aarset_data)
        assert counted[0].x.shape[0] == 3
        assert counted[0].nfev == sum(fit.trace[i].nfev for i in (0, 1, 4))
        assert fit.trace[2] == fit.trace[0] and fit.trace[5] == fit.trace[0]
        assert fit.trace[3] == fit.trace[1]
        monkeypatch.setattr(
            inference, "_start_points", lambda *args: [all_starts(*args)[i] for i in (0, 3, 5)]
        )
        once = fit_mle("mcg", aarset_data)
        assert [fit.trace[i] for i in (0, 1, 4)] == list(once.trace)
        assert fit.neg_loglik == once.neg_loglik and fit.winner == once.winner

    @pytest.mark.parametrize("model", ["g", "e"])
    def test_shape_free_fit_is_one_evaluation(self, model, glass_data, monkeypatch):
        counted = []
        real = inference.minimize

        def counting(*args, **kwargs):
            res = real(*args, **kwargs)
            counted.append(res)
            return res

        monkeypatch.setattr(inference, "minimize", counting)
        fit = fit_mle(model, glass_data)
        assert (counted[0].nfev, counted[0].npass) == (1, 1)
        assert len(fit.trace) == 2 * OptimizerConfig().n_starts + 1
        assert all(r == fit.trace[0] for r in fit.trace)

    def test_one_pass_per_iteration_and_one_check(self, aarset_data, monkeypatch):
        # the end points reuse the driver's last evaluations, and the
        # parameters are checked once, at the starts
        passes, checks, counted = [], [], []
        real_pass, real_check, real_min = (
            inference._log_space_derivs, inference.make_submodel, inference.minimize)
        monkeypatch.setattr(inference, "_log_space_derivs",
                            lambda *a: passes.append(1) or real_pass(*a))
        monkeypatch.setattr(inference, "make_submodel",
                            lambda *a: checks.append(1) or real_check(*a))
        monkeypatch.setattr(inference, "minimize",
                            lambda *a, **k: counted.append(real_min(*a, **k)) or counted[-1])
        fit_mle("bg", aarset_data)
        assert len(passes) == counted[0].npass
        assert len(checks) == 1

    def test_starts_are_checked(self, aarset_data, monkeypatch):
        monkeypatch.setattr(
            inference, "_start_points", lambda x0, free, cfg: [x0, x0 + np.r_[800.0, 0, 0, 0, 0]]
        )
        with pytest.raises(ValueError, match="positive and finite"):
            fit_mle("mcg", aarset_data)


class TestTrustRegionStep:
    @staticmethod
    def _step(g, B, radius):
        # one model as a batch of one row
        s, predicted = _optimize._trust_region_step(g[None], B[None], np.array([radius]))
        return s[0], predicted[0]

    @staticmethod
    def _check_optimal(g, B, radius, s):
        # Moré-Sorensen conditions: (B + sigma I) s = -g with sigma >= 0,
        # B + sigma I positive semidefinite, sigma > 0 only on the boundary
        norm = np.linalg.norm(s)
        assert norm <= radius * (1.0 + 1e-8)
        sigma = -(s @ (B @ s + g)) / (s @ s)
        assert sigma >= -1e-10
        assert np.allclose((B + sigma * np.eye(len(g))) @ s, -g, atol=1e-8)
        assert np.linalg.eigvalsh(B)[0] + sigma >= -1e-8
        if sigma > 1e-8:
            assert norm == pytest.approx(radius, rel=1e-7)

    def test_random_models(self):
        # the models of each dimension also go through one call as a
        # batch, and every row must equal its own one-row call
        rng = np.random.default_rng(5)
        models = []
        for _ in range(200):
            k = int(rng.integers(1, 6))
            M = rng.normal(size=(k, k))
            B = M + M.T + rng.normal(0.0, 2.0) * np.eye(k)
            g = rng.normal(size=k) * 10.0 ** rng.uniform(-3, 2)
            radius = 10.0 ** rng.uniform(-2, 1)
            models.append((g, B, radius))
        models.append((np.array([0.0, 1.0]), np.diag([-1.0, 2.0]), 2.0))  # hard case
        steps = [self._step(g, B, radius) for g, B, radius in models]
        for k in range(1, 6):
            rows = [i for i, (g, _, _) in enumerate(models) if len(g) == k]
            s_b, pred_b = _optimize._trust_region_step(
                *(np.array([models[i][j] for i in rows]) for j in range(3))
            )
            for r, i in enumerate(rows):
                np.testing.assert_array_equal(s_b[r], steps[i][0])
                assert pred_b[r] == steps[i][1]
        for (g, B, radius), (s, predicted) in zip(models, steps):
            self._check_optimal(g, B, radius, s)
            assert predicted == pytest.approx(-(g @ s + 0.5 * s @ B @ s), abs=1e-12)

    def test_newton_step_inside_radius(self):
        B = np.diag([2.0, 4.0])
        g = np.array([1.0, -2.0])
        s, predicted = self._step(g, B, 10.0)
        assert s == pytest.approx([-0.5, 0.5])
        assert predicted == pytest.approx(0.75)

    def test_hard_case(self):
        # g has no component along the negative-curvature eigenvector and
        # the shifted step is shorter than the radius
        B = np.diag([-1.0, 2.0])
        g = np.array([0.0, 1.0])
        s, _ = self._step(g, B, 2.0)
        assert np.linalg.norm(s) == pytest.approx(2.0)
        assert s[1] == pytest.approx(-1.0 / 3.0)
        self._check_optimal(g, B, 2.0, s)


class TestAsymptoticCi:
    def test_half_width_is_normal_quantile_times_se(self, glass_gg_fit):
        ci = asymptotic_ci(glass_gg_fit, 0.95)
        for name, (lo, hi) in ci.items():
            est = glass_gg_fit.estimates[name]
            se = glass_gg_fit.std_errors[name]
            assert hi - est == pytest.approx(1.959964 * se, rel=1e-6)
            assert est - lo == pytest.approx(1.959964 * se, rel=1e-6)

    def test_level_zero_degenerates(self, glass_gg_fit):
        ci = asymptotic_ci(glass_gg_fit, 0.0)
        for name, (lo, hi) in ci.items():
            assert lo == hi == glass_gg_fit.estimates[name]

    @pytest.mark.parametrize("level", [1.0, -0.1, 2.0])
    def test_rejects_bad_level(self, glass_gg_fit, level):
        with pytest.raises(ValueError):
            asymptotic_ci(glass_gg_fit, level)

    def test_rejects_missing_standard_errors(self, glass_gg_fit):
        bare = FitResult(
            model=glass_gg_fit.model,
            estimates=glass_gg_fit.estimates,
            std_errors=None,
            neg_loglik=glass_gg_fit.neg_loglik,
            info_matrix=glass_gg_fit.info_matrix,
            converged=False,
            iterations=1,
            grad_norm=1.0,
        )
        with pytest.raises(ValueError):
            asymptotic_ci(bare, 0.95)

    def test_coverage_over_500_simulations(self):
        # 95% Wald intervals from 500 exponentiated-Gompertz samples of
        # size 200.  Frozen coverage at this seed battery: a 93.4%,
        # theta 93.2%, gamma 95.8%.
        truth = {"a": 2.0, "theta": 1.0, "gamma": 0.5}
        p_true = make_submodel("gg", truth)
        cfg = OptimizerConfig(max_iter=300, n_starts=0, seed=1)
        hits = {k: 0 for k in truth}
        used = 0
        for r in range(500):
            y = sample(p_true, 200, seed=50_000 + r)
            fit = fit_mle("gg", _dataset(y), cfg)
            if fit.std_errors is None:
                continue
            used += 1
            ci = asymptotic_ci(fit, 0.95)
            for k, v in truth.items():
                lo, hi = ci[k]
                hits[k] += lo <= v <= hi
        assert used == 500
        for k in truth:
            coverage = 100.0 * hits[k] / used
            assert 93.0 <= coverage <= 97.0, (k, coverage)
