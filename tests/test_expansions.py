"""Mixture-series machinery: weights, truncated cdf/pdf, series moments/MGF."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps

from mcgompertz import expansions
from mcgompertz.core import McGParams, base_cdf, cdf, pdf, quantile
from mcgompertz.expansions import (
    SeriesState,
    cdf_power_coeffs,
    component_moment,
    mgf_series,
    mixture_cdf,
    mixture_pdf,
    mixture_weights_p,
    moment_series,
    power_series_power,
)
from mcgompertz.orderstats import OrderSpec, _beta_weights, os_moment_series
from mcgompertz.shape import mgf_numeric, moment_numeric


def random_integer_b_params(rng):
    return McGParams(
        rng.uniform(0.3, 3.0),
        float(rng.integers(1, 6)),
        rng.uniform(0.3, 3.0),
        rng.uniform(0.05, 1.0),
        rng.uniform(0.2, 2.0),
    )


class TestSeriesState:
    def test_length_invariant(self):
        with pytest.raises(ValueError):
            SeriesState((1.0, 2.0), 2, 0.0, True, 1e-12)

    def test_converged_requires_small_last_term(self):
        with pytest.raises(ValueError):
            SeriesState((1.0, 0.5), 1, 0.5, True, 1e-12)


class TestMixtureWeights:
    def test_b_one_single_weight(self):
        state = mixture_weights_p(McGParams(1.3, 1.0, 0.7, 0.5, 1.0))
        assert state.converged
        assert state.coeffs[0] == pytest.approx(1.0, rel=1e-12)
        assert all(w == 0.0 for w in state.coeffs[1:])

    def test_b_two_closed_form(self):
        # F = 1 - (1-G)^2 = 2G - G^2 expands into exactly two weights
        state = mixture_weights_p(McGParams(1.0, 2.0, 1.0, 1.0, 1.0))
        assert state.converged
        assert state.coeffs[0] == pytest.approx(2.0, rel=1e-12)
        assert state.coeffs[1] == pytest.approx(-1.0, rel=1e-12)
        assert sum(state.coeffs) == pytest.approx(1.0, abs=1e-12)

    def test_integer_b_weights_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            state = mixture_weights_p(random_integer_b_params(rng))
            assert state.converged
            assert sum(state.coeffs) == pytest.approx(1.0, abs=1e-10)

    def test_noninteger_b_partial_sum_defect(self):
        # weights decay like j^{-b-1}, so with b = 2.5 the 200-term partial
        # sum still misses 1 by about 1.8e-7; the verdict must say so
        state = mixture_weights_p(McGParams(0.5, 2.5, 1.3, 0.1, 1.0))
        assert not state.converged
        assert state.truncation == 200
        defect = abs(1.0 - sum(state.coeffs))
        assert 1e-8 < defect < 1e-6

    def test_larger_budget_shrinks_defect(self, monkeypatch):
        p = McGParams(0.5, 2.5, 1.3, 0.1, 1.0)
        small = abs(1.0 - sum(mixture_weights_p(p).coeffs))
        monkeypatch.setattr(expansions, "_MAX_TERMS", 2000)
        big = abs(1.0 - sum(mixture_weights_p(p).coeffs))
        assert big < small / 100.0


class TestMixtureCdfPdf:
    def test_two_term_exact_case(self):
        p = McGParams(1.0, 2.0, 1.0, 1.0, 1.0)
        value, ok = mixture_cdf(p, math.log(2.0))
        assert ok
        assert value == pytest.approx(0.8646647, abs=1e-7)

    def test_zero_is_zero(self):
        value, _ = mixture_cdf(McGParams(0.8, 3.0, 1.2, 0.3, 0.9), 0.0)
        assert value == 0.0

    def test_b_one_pdf_is_gg_density(self):
        p = McGParams(1.7, 1.0, 1.0, 0.4, 1.1)
        for y in (0.2, 1.0, 2.5):
            G = base_cdf(p.base, y)
            value, ok = mixture_pdf(p, y)
            assert ok
            assert value == pytest.approx(pdf(p, y), rel=1e-10)
            assert value == pytest.approx(
                p.a * p.theta * math.exp(p.gamma * y) * (1 - G) * G ** (p.a - 1), rel=1e-10
            )

    def test_matches_exact_on_converged_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_integer_b_params(rng)
            for t in np.linspace(0.02, 0.98, 20):
                y = quantile(p, t)
                cv, cok = mixture_cdf(p, y)
                dv, dok = mixture_pdf(p, y)
                assert cok and dok
                assert cv == pytest.approx(cdf(p, y), abs=1e-8)
                assert dv == pytest.approx(pdf(p, y), rel=1e-8, abs=1e-8)

    def test_noninteger_b_close_despite_flag(self):
        # the geometric damping of G^{jc} makes the truncated cdf accurate
        # on interior grids even when the weight series itself is unfinished
        p = McGParams(0.5, 2.5, 1.3, 0.1, 1.0)
        for t in np.linspace(0.05, 0.95, 10):
            y = quantile(p, t)
            value, ok = mixture_cdf(p, y)
            assert not ok
            assert value == pytest.approx(cdf(p, y), abs=1e-8)


class TestPowerSeriesPower:
    def test_square_of_one_plus_u(self):
        assert power_series_power([1.0, 1.0], 2, 2) == (1.0, 2.0, 1.0)

    def test_fourth_power_via_square(self):
        assert power_series_power([1.0, 2.0, 1.0], 2, 4) == (1.0, 4.0, 6.0, 4.0, 1.0)

    def test_against_convolution_oracle(self):
        def conv_pow(b, m, r_max):
            out = [1.0]
            for _ in range(m):
                new = [0.0] * (len(out) + len(b) - 1)
                for i, x in enumerate(out):
                    for j, bb in enumerate(b):
                        new[i + j] += x * bb
                out = new
            out += [0.0] * (r_max + 1 - len(out))
            return out[: r_max + 1]

        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            b = list(rng.uniform(-2.0, 2.0, n))
            b[0] = float(rng.uniform(0.5, 2.0))
            m = int(rng.integers(1, 6))
            mine = power_series_power(b, m, 8)
            ref = conv_pow(b, m, 8)
            for x, y in zip(mine, ref):
                assert abs(x - y) <= 1e-10 * max(1.0, abs(y))

    def test_rejects_zero_constant_term(self):
        with pytest.raises(ValueError):
            power_series_power([0.0, 1.0], 2, 3)

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            power_series_power([1.0, 1.0], 0, 3)
        with pytest.raises(ValueError, match="r_max must be nonnegative"):
            power_series_power([1.0, 1.0], 2, r_max=-1)


class TestCdfPowerCoeffs:
    def test_polynomial_cases_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            p = random_integer_b_params(rng)
            for m in (1, 2, 3, 5):
                state = cdf_power_coeffs(p, m)
                assert state.converged
                # evaluating an alternating expansion cancels at the scale of
                # its largest coefficient, so the bound is conditioning-aware
                budget = 2.2e-16 * max(abs(q) for q in state.coeffs) + 1e-10
                for t in (0.1, 0.5, 0.9):
                    y = quantile(p, t)
                    G = base_cdf(p.base, y)
                    val = G ** (p.a * m) * sum(
                        q * G ** (r * p.c) for r, q in enumerate(state.coeffs)
                    )
                    assert abs(val - cdf(p, y) ** m) <= budget

    def test_flag_follows_weights(self):
        state = cdf_power_coeffs(McGParams(0.5, 2.5, 1.3, 0.1, 1.0), 2)
        assert not state.converged


class TestMomentSeries:
    def test_unit_gompertz_mean(self):
        value, ok = moment_series(McGParams(1.0, 1.0, 1.0, 1.0, 1.0), 1)
        assert ok
        assert value == pytest.approx(math.e * sps.exp1(1.0), rel=1e-10)
        assert value == pytest.approx(0.596347, abs=1e-4)

    def test_two_term_gg_mean(self):
        p = McGParams(2.0, 1.0, 1.0, 1.0, 1.0)
        value, ok = moment_series(p, 1)
        assert ok
        assert value == pytest.approx(moment_numeric(p, 1), abs=1e-4)

    def test_integer_shape_families_match_quadrature(self):
        # the integer-shape families converge; so do some second and third
        # moments of the oracle grid, which are checked alongside them
        integer_shapes = [
            (p, k)
            for p in (
                McGParams(2.0, 3.0, 1.0, 0.5, 1.0),
                McGParams(3.0, 2.0, 1.0, 0.2, 0.7),
                McGParams(1.0, 4.0, 2.0, 0.3, 1.2),
            )
            for k in (1, 2)
        ]
        grid = [(p, k) for p in _oracle_points() for k in (2, 3)]
        converged = 0
        for n, (p, k) in enumerate(integer_shapes + grid):
            value, ok = moment_series(p, k)
            must_converge = n < len(integer_shapes)
            assert ok or not must_converge
            if ok:
                ref = moment_numeric(p, k)
                assert abs(value - ref) <= 1e-3 * max(1.0, abs(ref))
                converged += 1
        assert converged >= len(integer_shapes) + 40

    def test_glass_optimum_higher_moments_run_clean(self):
        # theta/gamma ~ 9e-7 puts every m_i below 2e-4, where the log-weight
        # integrals are largest; the suite's filters turn an
        # IntegrationWarning or a package RuntimeWarning into a failure.  The
        # binomial terms of its c ~ 219 components overflow, so the value is
        # withheld
        glass = _oracle_points()[-1]
        for k in (2, 3):
            value, ok = moment_series(glass, k)
            assert math.isnan(value) and not ok

    def test_large_rate_flags_divergence(self):
        # the exponential factor e^{(i+1)theta/gamma} overflows long before
        # the binomial series settles; the value must be withheld
        value, ok = moment_series(McGParams(0.5, 2.5, 1.3, 5.0, 0.1), 1)
        assert not ok
        assert math.isnan(value)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            moment_series(McGParams(1.0, 1.0, 1.0, 1.0, 1.0), 0)


class TestMgfSeries:
    def test_unit_gompertz_t_one(self):
        # e^Y - 1 is unit exponential here, so E[e^Y] = 2 exactly
        value, summed, faithful = mgf_series(McGParams(1.0, 1.0, 1.0, 1.0, 1.0), 1.0)
        assert summed and faithful
        assert value == pytest.approx(2.0, rel=1e-12)

    def test_zero_argument(self):
        value, summed, faithful = mgf_series(McGParams(1.0, 1.0, 1.0, 1.0, 1.0), 0.0)
        assert summed and faithful
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_noninteger_ratio_diverges(self):
        # C(t/gamma, k) k! grows factorially for noninteger t/gamma
        value, summed, faithful = mgf_series(McGParams(1.0, 1.0, 1.0, 1.0, 1.0), 0.1)
        assert not summed and not faithful
        assert math.isnan(value)

    def test_summed_but_unfaithful_case_is_flagged(self):
        # for shape exponents above one the summand's missing dependence on
        # the binomial index collapses the inner sum and the series lands on
        # the wrong value; the fidelity flag must catch it
        p = McGParams(1.0, 2.0, 1.0, 1.0, 1.0)
        value, summed, faithful = mgf_series(p, 1.0)
        assert summed
        assert not faithful
        assert abs(value - mgf_numeric(p, 1.0)) > 0.5

    def test_faithful_values_match_quadrature(self):
        cases = [
            (McGParams(1.0, 1.0, 1.0, 1.0, 1.0), 1.0),
            (McGParams(1.0, 1.0, 1.0, 1.0, 1.0), 0.0),
            (McGParams(1.0, 1.0, 1.0, 0.5, 0.5), 0.5),
        ]
        for p, t in cases:
            value, summed, faithful = mgf_series(p, t)
            if faithful:
                ref = mgf_numeric(p, t)
                assert abs(value - ref) <= 1e-3 * max(1.0, abs(ref))


# A plain term-by-term reference of the series, written the way the
# expansions read on paper: one Python loop per series, no arrays.  The
# library evaluates the same series as term arrays and must agree with it
# flag for flag, and bit for bit wherever a flag is on.  It takes at most
# _REF_MAX_TERMS + 1 terms per series and stops at a term within
# _REF_TERM_TOL.

_REF_MAX_TERMS = 200
_REF_TERM_TOL = 1e-12
_REF_FACTORS = {}


def _ref_factors(k, rate):
    """e^{m_i} mu_k(m_i) by i for the m_i = (i+1) rate <= 700 of one series:
    the library's kernel over the same m vector, shared by the components of
    the series."""
    if (k, rate) not in _REF_FACTORS:
        m = [(i + 1.0) * rate for i in range(_REF_MAX_TERMS + 1)]
        m = np.array([m_i for m_i in m if m_i <= 700.0])
        _REF_FACTORS[k, rate] = expansions._scaled_log_weight_moments(k, m).tolist()
    return _REF_FACTORS[k, rate]


def _ref_binom_terms(beta_minus_one, limit):
    s = 1.0
    yield s
    for i in range(1, limit + 1):
        s *= (i - (beta_minus_one + 1.0)) / i
        yield s


def _ref_component_moment(beta, k, theta, gamma):
    rate = theta / gamma
    factors = _ref_factors(k, rate)
    total = 0.0
    converged = False
    s, shape = 1.0, (beta - 1.0) + 1.0
    for i in range(_REF_MAX_TERMS + 1):
        if i > 0:
            s *= (i - shape) / i
        if i == len(factors):  # m_i > 700
            return math.nan, False
        term = s * factors[i]
        if not math.isfinite(term):
            return math.nan, False
        total += term
        if i > 0 and abs(term) <= _REF_TERM_TOL * max(1.0, abs(total)):
            converged = True
            break
    return beta * rate / gamma**k * total, converged


def _ref_weights(p):
    alpha = p.a / p.c
    inv_beta = math.exp(-expansions.log_beta(alpha, p.b))
    coeffs, total, last = [], 0.0, math.inf
    for j, s in enumerate(_ref_binom_terms(p.b - 1.0, _REF_MAX_TERMS)):
        last = s * inv_beta / (alpha + j)
        coeffs.append(last)
        total += last
        if j > 0 and abs(last) <= _REF_TERM_TOL:
            break
    return coeffs, abs(last) <= _REF_TERM_TOL and abs(1.0 - total) <= 1e-10


def _ref_moment_series(p, k):
    _REF_FACTORS.clear()
    coeffs, weights_ok = _ref_weights(p)
    total, increment, all_inner = 0.0, math.inf, True
    for j, w in enumerate(coeffs):
        value, ok = _ref_component_moment(p.a + j * p.c, k, p.theta, p.gamma)
        if math.isnan(value):
            return math.nan, False
        all_inner = all_inner and ok
        increment = w * value
        total += increment
    outer_ok = abs(increment) <= 1e-6 * max(1.0, abs(total))
    return total, weights_ok and all_inner and outer_ok


def _ref_mgf_series(p, t):
    """The value and summed flag; the faithful flag is a quadrature check."""
    coeffs, summed = _ref_weights(p)
    if not summed:
        return math.nan, False
    rate, ratio, total = p.theta / p.gamma, t / p.gamma, 0.0
    for j, w in enumerate(coeffs):
        beta = p.a + j * p.c
        i_sum, i_ok = 0.0, False
        for i, s in enumerate(_ref_binom_terms(beta - 1.0, _REF_MAX_TERMS)):
            i_sum += s
            if i > 0 and abs(s) <= _REF_TERM_TOL * max(1.0, abs(i_sum)):
                i_ok = True
                break
        denom = beta * rate
        k_sum, k_ok, prev, kfac = 0.0, False, math.inf, 1.0
        for kk in range(_REF_MAX_TERMS + 1):
            if kk > 0:
                kfac *= kk
            binom = 1.0
            for i in range(kk):
                binom *= (ratio - i) / (i + 1.0)
            term = binom * kfac / denom ** (kk + 1)
            if not math.isfinite(term):
                break
            k_sum += term
            if abs(term) <= _REF_TERM_TOL * max(1.0, abs(k_sum)):
                k_ok = True
                break
            if kk > 2 and abs(term) > abs(prev):
                break
            prev = term
        summed = summed and i_ok and k_ok
        total += w * denom * i_sum * k_sum
    return (total, True) if summed else (math.nan, False)


def _oracle_points():
    """A seeded lognormal grid, every fourth point with numpy-scalar
    fields, plus the README point and the two case-study optima."""
    rng = np.random.default_rng(20151)
    points = []
    for n in range(300):
        fields = rng.lognormal(mean=(1.2, 2.3, 0.5, -0.5, -0.5), sigma=(0.6, 0.6, 0.6, 1.0, 0.8))
        points.append(McGParams(*(fields if n % 4 == 0 else fields.tolist())))
    points += [
        McGParams(0.5, 0.8, 2.0, 0.1, 0.5),
        McGParams(0.48602506867701145, 0.008027407931889215, 39.077927764506605,
                  0.029940972501835417, 0.07574424808702038),
        McGParams(0.4500793196655103, 0.042314322674387124, 219.49017482882707,
                  7.149867624426224e-06, 8.090210587209212),
    ]
    return points


def _same(ours, ref):
    """Identical flag and nan-ness, and bit-identical value where flagged."""
    (value, flag), (ref_value, ref_flag) = ours, ref
    assert flag == ref_flag
    assert math.isnan(value) == math.isnan(ref_value)
    if flag:
        assert value == ref_value


def _ref_os_moment_series(p, spec, s):
    _REF_FACTORS.clear()
    total, converged = 0.0, True
    for k, w in enumerate(_beta_weights(spec)):
        m = spec.i + k
        state = cdf_power_coeffs(p, m)
        converged = converged and state.converged
        inner = 0.0
        for r, q_r in enumerate(state.coeffs):
            if q_r == 0.0:
                continue
            cm, ok = _ref_component_moment(p.a * m + r * p.c, s, p.theta, p.gamma)
            if math.isnan(cm):
                return math.nan, False
            converged = converged and ok
            inner += q_r * cm
        total += w * inner
    return total, converged


class TestSeriesOracle:
    """The term arrays reproduce the plain loop: identical flags and nan-ness
    everywhere, identical values wherever the flag is on."""

    def test_weights(self):
        for p in _oracle_points():
            with np.errstate(all="ignore"):
                coeffs, converged = _ref_weights(p)
            state = mixture_weights_p(p)
            assert state.coeffs == tuple(coeffs)
            assert state.converged == converged

    def test_moment_series_and_components(self):
        converged = 0
        for p in _oracle_points():
            for k in (1, 2, 3):
                with np.errstate(all="ignore"):
                    ref = _ref_moment_series(p, k)
                    ref_one = _ref_component_moment(p.a, k, p.theta, p.gamma)
                _same(moment_series(p, k), ref)
                _same(component_moment(p.a, k, p.theta, p.gamma), ref_one)
                converged += ref[1]
        assert converged >= 20
        # theta/gamma > 700: no term has a finite e^{m_i}
        _same(component_moment(1.0, 1, 800.0, 1.0), (math.nan, False))

    def test_os_moment_series(self):
        # integer exponents a(i+k) + rc make the inner series terminate, the
        # one regime where this series converges
        rng = np.random.default_rng(2015)
        integer_shapes = [
            McGParams(float(a), float(b), float(c), *rng.lognormal(-0.5, 0.8, size=2).tolist())
            for a, b, c in ((1, 1, 1), (1, 2, 1), (2, 3, 1), (1, 4, 2), (2, 2, 2), (1, 3, 1))
        ]
        converged = 0
        for p in _oracle_points()[:20] + integer_shapes:
            for spec in (OrderSpec(1, 2), OrderSpec(2, 3)):
                with np.errstate(all="ignore"):
                    ref = _ref_os_moment_series(p, spec, 1)
                _same(os_moment_series(p, spec, 1), ref)
                converged += ref[1]
        assert converged >= 5

    def test_mgf_series(self):
        summed = 0
        for p in _oracle_points():
            for t in (0.0, p.gamma, 0.5 * p.gamma):
                with np.errstate(all="ignore"):
                    ref = _ref_mgf_series(p, t)
                value, flag, _ = mgf_series(p, t)
                _same((value, flag), ref)
                summed += ref[1]
        assert summed >= 20

    def test_no_runtime_warnings_at_numpy_scalars(self):
        # every fourth grid point has numpy-scalar fields, whose scalar
        # arithmetic warns on overflow where Python floats do not
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for p in _oracle_points()[:-3:4]:
                moment_series(p, 1)
                component_moment(p.a, 1, p.theta, p.gamma)
                mgf_series(p, p.gamma)
                os_moment_series(p, OrderSpec(1, 2), 1)


class TestSeriesShortcuts:
    def test_mgf_skips_components_when_weights_diverge(self, monkeypatch):
        def fail(*args):
            raise AssertionError("mgf_numeric called")

        monkeypatch.setattr(expansions, "mgf_numeric", fail)
        p = McGParams(0.5, 0.8, 2.0, 0.1, 0.5)
        assert not mixture_weights_p(p).converged
        value, summed, faithful = mgf_series(p, p.gamma)
        assert math.isnan(value) and not summed and not faithful

    def test_stop_rule_matches_a_plain_loop(self):
        # series that stop early, late, at a non-finite term, by growth, or
        # never, against the stop rule applied term by term
        rng = np.random.default_rng(7)
        n = 40
        terms = rng.normal(size=(12, n)) * np.exp(-rng.uniform(0.0, 2.0, size=(12, 1)) * np.arange(n))
        terms[3, 5] = math.inf
        terms[4, 20:] = terms[4, 19] * 2.0 ** np.arange(1, n - 19)
        terms[5] = 1.0

        def plain(row, first, finite, growth):
            total = 0.0
            for i, t in enumerate(row):
                total += t
                if finite and not math.isfinite(t):
                    return total, False, True
                if i >= first and abs(t) <= 1e-12 * max(1.0, abs(total)):
                    return total, True, False
                if growth and i >= 3 and abs(t) > abs(row[i - 1]):
                    return total, False, True
            return total, False, False

        for first in (0, 1):
            for finite in (False, True):
                for growth in (False, True):
                    ours = expansions._stopped_sums(terms, first, finite=finite, growth=growth)
                    ref = zip(*(plain(row, first, finite, growth) for row in terms.tolist()))
                    for got, want in zip(ours, ref):
                        np.testing.assert_array_equal(got, np.array(want))


def _mp_scaled_log_weight_moments(m, k_max):
    """e^m mu_k(m) for k = 1..k_max: mu_k(m) is the k-th derivative in s at
    s = 0 of the integral of u^s e^{-mu} over [1, inf), m^{-s-1} Gamma(s+1, m).
    For m <= 1 that is m^{-s-1} Gamma(s+1) - sum_n (-m)^n / (n! (s+1+n)),
    whose derivatives mpmath takes far faster than those of Gamma(s+1, m)
    when m is tiny."""
    with mp.workdps(20):
        m = mp.mpf(m)
        if m > 1:
            derivs = mp.diffs(lambda s: m ** (-s - 1) * mp.gammainc(s + 1, m), 0, k_max)
            return [float(mp.exp(m) * d) for d in derivs][1:]
        derivs = list(mp.diffs(lambda s: m ** (-s - 1) * mp.gamma(s + 1), 0, k_max))
        out = []
        for k in range(1, k_max + 1):
            lower = sum((-m) ** n / (mp.factorial(n) * (n + 1) ** (k + 1)) for n in range(40))
            out.append(float(mp.exp(m) * (derivs[k] - (-1) ** k * mp.factorial(k) * lower)))
        return out


class TestLogWeightMoments:
    def test_overflow_gives_inf_not_nan(self):
        # below m ~ 1e-300 the value leaves the float range; forming 45/m,
        # which overflows below 2.5e-307, would make the rule's range nan
        with np.errstate(over="ignore"):
            values = expansions._scaled_log_weight_moments(1, np.array([1e-306, 5e-324]))
        assert np.all(np.isposinf(values))

    def test_matches_mpmath(self):
        # rates down to 1e-280, where e^m mu_8(m) nears the float range;
        # below about 2e-16 the kernel keeps only a window of its range
        m = np.concatenate([[1e-280, 1e-200, 1e-100, 1e-50, 1e-20, 1e-15], np.geomspace(1e-12, 700.0, 15)])
        ref = np.array([_mp_scaled_log_weight_moments(m_i, 8) for m_i in m])
        for k in range(1, 9):
            np.testing.assert_allclose(
                expansions._scaled_log_weight_moments(k, m),
                ref[:, k - 1],
                rtol=1e-12 if k <= 4 else 1e-10,
                atol=0.0,
            )
