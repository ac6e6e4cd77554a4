import math

import numpy as np
import pytest
import scipy.special as sps

from mcgompertz.core import GompertzBase, McGParams, base_cdf, base_pdf, cdf, log_pdf, pdf
from mcgompertz.family import (
    ExpBaseParams,
    McEParams,
    MODELS,
    exp_base_cdf,
    exp_base_pdf,
    exp_limit_cdf,
    exp_limit_log_pdf,
    exp_limit_pdf,
    exp_limit_quantile,
    exp_limit_sample,
    exp_limit_survival,
    make_submodel,
    model_spec,
    order_stat_identity_check,
)
from mcgompertz.specfun import inc_beta_reg

YGRID = np.linspace(0.02, 4.0, 100)


class TestModelRegistry:
    def test_free_counts(self):
        expected = {
            "mcg": 5, "bg": 4, "kumg": 4, "mce": 4, "bge": 4,
            "gg": 3, "be": 3, "kume": 3, "ge": 2, "g": 2, "e": 1,
        }
        for name, k in expected.items():
            assert MODELS[name].free_count == k, name

    def test_shapes_lead_the_free_parameters(self):
        # fit_mle's wall test reads the shapes as the leading columns
        for name, spec in MODELS.items():
            kinds = [f in ("a", "b", "c") for f in spec.free_params]
            assert kinds == sorted(kinds, reverse=True), name

    def test_lookup_case_insensitive(self):
        assert model_spec("McG") is MODELS["mcg"]
        assert model_spec("KUMG") is MODELS["kumg"]

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            model_spec("weibull")

    def test_bge_is_mce_alias(self):
        lhs = make_submodel("bge", {"a": 0.5, "b": 2.0, "c": 1.5, "theta": 0.7})
        rhs = make_submodel("mce", {"a": 0.5, "b": 2.0, "c": 1.5, "theta": 0.7})
        assert lhs == rhs


class TestMakeSubmodel:
    def test_gompertz_bottom_of_lattice(self):
        assert make_submodel("g", {"theta": 1.0, "gamma": 1.0}) == McGParams(1, 1, 1, 1, 1)

    def test_bg_embedding_matches_direct_formula(self):
        a, b, th, ga = 0.7, 2.3, 0.5, 0.8
        p = make_submodel("bg", {"a": a, "b": b, "theta": th, "gamma": ga})
        assert p == McGParams(a, b, 1.0, th, ga)
        base = GompertzBase(th, ga)
        g = base_pdf(base, YGRID)
        G = base_cdf(base, YGRID)
        # 1 - G evaluated as exp(-w) so the tail stays representable
        sf = np.exp(-(th / ga) * np.expm1(ga * YGRID))
        direct = g * G ** (a - 1.0) * sf ** (b - 1.0) / sps.beta(a, b)
        np.testing.assert_allclose(pdf(p, YGRID), direct, rtol=1e-12)

    def test_kumg_closed_form(self):
        p = make_submodel("kumg", {"b": 3.0, "c": 2.0, "theta": 1.0, "gamma": 1.0})
        base = GompertzBase(1.0, 1.0)
        g = base_pdf(base, YGRID)
        G = base_cdf(base, YGRID)
        sf = np.exp(-np.expm1(YGRID))
        direct = 6.0 * g * G * (sf * (1.0 + G)) ** 2
        np.testing.assert_allclose(pdf(p, YGRID), direct, rtol=1e-12)

    def test_missing_and_extra_parameters(self):
        with pytest.raises(ValueError, match="missing"):
            make_submodel("bg", {"a": 1.0, "b": 1.0, "theta": 1.0})
        with pytest.raises(ValueError, match="unexpected"):
            make_submodel("gg", {"a": 1.0, "theta": 1.0, "gamma": 1.0, "c": 2.0})

    def test_exponential_base_models_return_mce_params(self):
        p = make_submodel("ge", {"a": 2.0, "theta": 0.5})
        assert p == McEParams(2.0, 1.0, 1.0, 0.5)
        p = make_submodel("kume", {"b": 2.0, "c": 3.0, "theta": 0.5})
        assert p == McEParams(3.0, 2.0, 3.0, 0.5)
        p = make_submodel("e", {"theta": 0.25})
        assert p == McEParams(1.0, 1.0, 1.0, 0.25)


class TestLatticeCoherence:
    """Every lattice edge: the child's pdf equals the constrained parent's."""

    def test_gompertz_base_edges(self):
        # McG -> BG -> GG -> G under c=1, then b=1, then a=1
        bg = make_submodel("bg", {"a": 0.6, "b": 1.7, "theta": 0.4, "gamma": 0.9})
        mcg = McGParams(0.6, 1.7, 1.0, 0.4, 0.9)
        np.testing.assert_allclose(pdf(bg, YGRID), pdf(mcg, YGRID), rtol=1e-12)

        gg = make_submodel("gg", {"a": 0.6, "theta": 0.4, "gamma": 0.9})
        bg_b1 = make_submodel("bg", {"a": 0.6, "b": 1.0, "theta": 0.4, "gamma": 0.9})
        np.testing.assert_allclose(pdf(gg, YGRID), pdf(bg_b1, YGRID), rtol=1e-12)

        kumg = make_submodel("kumg", {"b": 1.7, "c": 2.2, "theta": 0.4, "gamma": 0.9})
        mcg_tied = McGParams(2.2, 1.7, 2.2, 0.4, 0.9)
        np.testing.assert_allclose(pdf(kumg, YGRID), pdf(mcg_tied, YGRID), rtol=1e-12)

        g = make_submodel("g", {"theta": 0.4, "gamma": 0.9})
        gg_a1 = make_submodel("gg", {"a": 1.0, "theta": 0.4, "gamma": 0.9})
        np.testing.assert_allclose(pdf(g, YGRID), pdf(gg_a1, YGRID), rtol=1e-12)
        np.testing.assert_allclose(
            pdf(g, YGRID), base_pdf(GompertzBase(0.4, 0.9), YGRID), rtol=1e-12
        )

    def test_exponential_base_edges(self):
        mce = make_submodel("mce", {"a": 0.6, "b": 1.7, "c": 2.2, "theta": 0.4})
        be = make_submodel("be", {"a": 0.6, "b": 1.7, "theta": 0.4})
        mce_c1 = McEParams(0.6, 1.7, 1.0, 0.4)
        np.testing.assert_allclose(
            exp_limit_pdf(be, YGRID), exp_limit_pdf(mce_c1, YGRID), rtol=1e-12
        )

        kume = make_submodel("kume", {"b": 1.7, "c": 2.2, "theta": 0.4})
        mce_tied = McEParams(2.2, 1.7, 2.2, 0.4)
        np.testing.assert_allclose(
            exp_limit_pdf(kume, YGRID), exp_limit_pdf(mce_tied, YGRID), rtol=1e-12
        )

        ge = make_submodel("ge", {"a": 0.6, "theta": 0.4})
        be_b1 = McEParams(0.6, 1.0, 1.0, 0.4)
        np.testing.assert_allclose(
            exp_limit_pdf(ge, YGRID), exp_limit_pdf(be_b1, YGRID), rtol=1e-12
        )

        e = make_submodel("e", {"theta": 0.4})
        np.testing.assert_allclose(
            exp_limit_pdf(e, YGRID), 0.4 * np.exp(-0.4 * YGRID), rtol=1e-12
        )
        assert mce.base == ExpBaseParams(0.4)


class TestExpLimit:
    def test_all_shapes_one_is_exponential(self):
        p = McEParams(1.0, 1.0, 1.0, 0.7)
        np.testing.assert_allclose(
            exp_limit_pdf(p, YGRID), 0.7 * np.exp(-0.7 * YGRID), rtol=1e-13
        )
        np.testing.assert_allclose(
            exp_limit_cdf(p, YGRID), -np.expm1(-0.7 * YGRID), rtol=1e-12
        )

    def test_small_gamma_continuity(self):
        ys = np.linspace(0.1, 5.0, 60)
        for a, b, c, th in [(0.8, 1.5, 2.0, 0.9), (2.0, 0.7, 0.5, 0.3), (1.0, 1.0, 1.0, 1.0)]:
            tiny = pdf(McGParams(a, b, c, th, 1e-8), ys)
            limit = exp_limit_pdf(McEParams(a, b, c, th), ys)
            rel = np.max(np.abs(tiny - limit) / limit)
            assert rel < 1e-5, (a, b, c, th, rel)

    def test_base_functions(self):
        base = ExpBaseParams(2.0)
        np.testing.assert_allclose(exp_base_cdf(base, 0.5), -math.expm1(-1.0), rtol=1e-15)
        np.testing.assert_allclose(exp_base_pdf(base, 0.5), 2.0 * math.exp(-1.0), rtol=1e-15)

    def test_benchmark_loglik_at_published_exponential_fit(self, aarset):
        p = McEParams(0.8643, 0.0706, 2.7127, 0.2826)
        nll = -float(np.sum(exp_limit_log_pdf(p, aarset)))
        assert abs(nll - 237.8158) < 0.01

    def test_cdf_survival_complement(self):
        p = McEParams(0.5, 2.0, 3.0, 0.8)
        total = exp_limit_cdf(p, YGRID) + exp_limit_survival(p, YGRID)
        np.testing.assert_allclose(total, 1.0, rtol=1e-12)

    def test_quantile_round_trip(self):
        p = McEParams(0.5, 2.0, 3.0, 0.8)
        ts = np.array([1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 1 - 1e-6])
        back = exp_limit_cdf(p, exp_limit_quantile(p, ts))
        assert np.max(np.abs(back - ts)) < 1e-8

    def test_quantile_domain(self):
        p = McEParams(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            exp_limit_quantile(p, 0.0)
        with pytest.raises(ValueError):
            exp_limit_quantile(p, 1.0)

    def test_sampling_deterministic_and_calibrated(self):
        p = McEParams(1.3, 0.9, 1.8, 0.6)
        draws = exp_limit_sample(p, 4000, seed=7)
        again = exp_limit_sample(p, 4000, seed=7)
        np.testing.assert_array_equal(draws, again)
        ys = np.sort(draws)
        n = len(ys)
        i = np.arange(1, n + 1)
        Fi = exp_limit_cdf(p, ys)
        d = max(np.max(i / n - Fi), np.max(Fi - (i - 1) / n))
        assert d < 1.63 / math.sqrt(n)  # 1% asymptotic critical value

    def test_deep_tail_log_pdf(self):
        p = McEParams(0.5, 2.0, 3.0, 0.8)
        lo = exp_limit_log_pdf(p, 900.0)
        hi = exp_limit_log_pdf(p, 1000.0)
        assert np.isfinite(lo) and np.isfinite(hi)
        # exponential tail with rate b*theta
        np.testing.assert_allclose(lo - hi, 2.0 * 0.8 * 100.0, rtol=1e-9)


class TestOrderStatIdentity:
    def test_single_observation_is_base(self):
        base = GompertzBase(0.5, 0.8)
        ys = np.linspace(0.05, 3.0, 40)
        lhs, rhs = order_stat_identity_check(1, 1, base, ys)
        np.testing.assert_allclose(lhs, base_cdf(base, ys), rtol=1e-12)
        np.testing.assert_allclose(rhs, base_cdf(base, ys), rtol=1e-12)

    def test_sample_minimum(self):
        base = GompertzBase(0.5, 0.8)
        ys = np.linspace(0.05, 3.0, 40)
        lhs, rhs = order_stat_identity_check(1, 3, base, ys)
        expected = 1.0 - (1.0 - base_cdf(base, ys)) ** 3
        np.testing.assert_allclose(lhs, expected, rtol=1e-11)
        np.testing.assert_allclose(rhs, expected, rtol=1e-11)

    def test_middle_order_statistic_binomial_oracle(self):
        base = GompertzBase(1.2, 0.4)
        ys = np.linspace(0.05, 2.5, 30)
        lhs, rhs = order_stat_identity_check(2, 5, base, ys)
        G = base_cdf(base, ys)
        oracle = sum(
            math.comb(5, k) * G**k * (1.0 - G) ** (5 - k) for k in range(2, 6)
        )
        np.testing.assert_allclose(lhs, oracle, atol=1e-12)
        np.testing.assert_allclose(rhs, oracle, atol=1e-12)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            order_stat_identity_check(4, 3, GompertzBase(1.0, 1.0), 1.0)


class TestParamValidation:
    def test_mce_params_positive(self):
        with pytest.raises(ValueError):
            McEParams(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            McEParams(1.0, 1.0, 1.0, -2.0)
        with pytest.raises(ValueError):
            ExpBaseParams(math.inf)
