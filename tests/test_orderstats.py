"""Order-statistic distributions: exact routes, series routes, moments."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from mcgompertz.core import McEParams, McGParams, cdf, pdf, quantile, sample
from mcgompertz.expansions import mixture_cdf
from mcgompertz.orderstats import (
    OrderSpec,
    os_cdf,
    os_cdf_binomial,
    os_moment,
    os_moment_series,
    os_pdf,
    os_pdf_identity_defect,
    os_series_cdf,
)
from mcgompertz.shape import moment_numeric
from mcgompertz.specfun import kolmogorov_sf

GOMPERTZ = McGParams(1.0, 1.0, 1.0, 1.0, 1.0)
GENERIC = McGParams(0.8, 2.5, 1.4, 0.3, 0.9)


class TestOrderSpec:
    def test_valid(self):
        spec = OrderSpec(2, 5)
        assert (spec.i, spec.n) == (2, 5)

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            OrderSpec(0, 3)
        with pytest.raises(ValueError):
            OrderSpec(4, 3)
        with pytest.raises(ValueError):
            OrderSpec(1.5, 3)


class TestOsPdf:
    def test_single_draw_reduces_to_pdf(self):
        spec = OrderSpec(1, 1)
        for y in (0.2, 1.0, 2.3):
            assert os_pdf(GOMPERTZ, spec, y) == pytest.approx(pdf(GOMPERTZ, y), rel=1e-12)

    def test_minimum_density_normalizes(self):
        spec = OrderSpec(1, 3)
        total, _ = quad(lambda y: os_pdf(GOMPERTZ, spec, y), 0.0, 12.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_normalization_across_ranks(self):
        hi = quantile(GENERIC, 1.0 - 1e-12)
        mid = quantile(GENERIC, 0.5)
        for i, n in ((1, 3), (2, 5), (4, 7)):
            spec = OrderSpec(i, n)
            total = 0.0
            for lo_, hi_ in ((0.0, mid), (mid, hi)):
                val, _ = quad(lambda y: os_pdf(GENERIC, spec, y), lo_, hi_, limit=200)
                total += val
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_identity_sums_to_n_times_parent(self):
        y = np.linspace(0.01, 4.0, 50)
        for n in (2, 5):
            assert os_pdf_identity_defect(GENERIC, n, y) <= 1e-9

    @pytest.mark.parametrize(
        "p, spec, expected",
        [
            # a i = 1: theta c^i / (a^(i-1) B(a/c, b)^i B(i, n-i+1)), with
            # B(x, 2) = 1/(x (x+1)) and B(x, 3) = 2/(x (x+1) (x+2))
            (McGParams(0.5, 2.0, 1.5, 1.0, 0.5), OrderSpec(2, 4),
             1.5**2 / (0.5 * (9.0 / 4.0) ** 2 / 12.0)),
            (McEParams(0.25, 3.0, 0.7, 2.0), OrderSpec(4, 6),
             2.0 * 0.7**4 / (0.25**3 * (2.0 / (5 / 14 * 19 / 14 * 33 / 14)) ** 4 / 60.0)),
            # a i > 1 with a < 1, where f F^(i-1) is inf * 0
            (McGParams(0.5, 2.0, 1.5, 1.0, 0.5), OrderSpec(3, 5), 0.0),
            # a i < 1
            (McGParams(0.25, 2.0, 1.5, 1.0, 0.5), OrderSpec(2, 5), math.inf),
        ],
    )
    def test_limit_at_zero(self, p, spec, expected):
        at_zero = os_pdf(p, spec, 0.0)
        assert at_zero == pytest.approx(expected, rel=1e-12)
        assert os_pdf(p, spec, np.array([0.0, 0.5]))[0] == at_zero
        if 0.0 < expected < math.inf:
            assert os_pdf(p, spec, 1e-300) == pytest.approx(expected, rel=1e-12)

    def test_second_of_five_against_simulation(self):
        # fitted-parameter set typical of device lifetimes: heavy left mode
        p = McGParams(0.2619, 0.0752, 3.7652, 0.0012, 0.0875)
        spec = OrderSpec(2, 5)
        draws = sample(p, 500_000, seed=7).reshape(100_000, 5)
        second = np.partition(draws, 1, axis=1)[:, 1]
        probs = np.sort(np.asarray(os_cdf(p, spec, second), dtype=float))
        n = probs.size
        ranks = np.arange(1, n + 1)
        d = max(np.max(ranks / n - probs), np.max(probs - (ranks - 1) / n))
        assert kolmogorov_sf(d, n) > 0.01


class TestOsCdf:
    def test_upper_limit_is_one(self):
        spec = OrderSpec(3, 4)
        y = quantile(GENERIC, 1.0 - 1e-14)
        assert os_cdf(GENERIC, spec, y) == pytest.approx(1.0, abs=1e-9)

    def test_maximum_is_parent_cdf_power(self):
        spec = OrderSpec(4, 4)
        for y in (0.3, 1.0, 2.0):
            assert os_cdf(GENERIC, spec, y) == pytest.approx(cdf(GENERIC, y) ** 4, rel=1e-10)

    def test_dual_routes_agree(self):
        for i, n in ((1, 3), (2, 5), (4, 7)):
            spec = OrderSpec(i, n)
            for y in np.linspace(0.05, 4.0, 30):
                beta_route = os_cdf(GENERIC, spec, y)
                binom_route = os_cdf_binomial(GENERIC, spec, y)
                assert abs(beta_route - binom_route) <= 1e-10

    def test_monotone_in_y_and_rank(self):
        grid = np.linspace(0.1, 3.5, 15)
        for i in (1, 2, 3):
            spec = OrderSpec(i, 3)
            vals = [os_cdf(GENERIC, spec, y) for y in grid]
            assert all(x <= y + 1e-14 for x, y in zip(vals, vals[1:]))
        for y in (0.5, 1.5):
            by_rank = [os_cdf(GENERIC, OrderSpec(i, 5), y) for i in range(1, 6)]
            assert all(x >= y_ - 1e-14 for x, y_ in zip(by_rank, by_rank[1:]))


class TestOsMoment:
    def test_single_draw_matches_moment_engine(self):
        spec = OrderSpec(1, 1)
        assert os_moment(GOMPERTZ, spec, 1) == pytest.approx(
            moment_numeric(GOMPERTZ, 1), rel=1e-9
        )

    def test_stochastic_ordering(self):
        means = [os_moment(GOMPERTZ, OrderSpec(i, 3), 1) for i in (1, 2, 3)]
        assert means[0] < means[1] < means[2]
        # ranks partition the sample, so the rank means average to the mean
        assert sum(means) / 3.0 == pytest.approx(moment_numeric(GOMPERTZ, 1), rel=1e-8)

    def test_minimum_mean_against_simulation(self):
        draws = sample(GOMPERTZ, 2_000_000, seed=52).reshape(1_000_000, 2)
        mins = draws.min(axis=1)
        se = mins.std(ddof=1) / math.sqrt(mins.size)
        value = os_moment(GOMPERTZ, OrderSpec(1, 2), 1)
        assert abs(value - mins.mean()) <= 3.0 * se

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            os_moment(GOMPERTZ, OrderSpec(1, 2), 0)
        with pytest.raises(ValueError, match="s must be a positive integer"):
            os_moment_series(GOMPERTZ, OrderSpec(1, 2), 0)


class TestOsSeriesCdf:
    def test_single_draw_reduces_to_mixture_cdf(self):
        spec = OrderSpec(1, 1)
        p = McGParams(1.7, 2.0, 1.3, 0.4, 1.1)
        for y in (0.3, 1.0, 2.0):
            series, ok = os_series_cdf(p, spec, y)
            mix, mix_ok = mixture_cdf(p, y)
            assert ok == mix_ok
            assert series == pytest.approx(mix, abs=1e-12)

    def test_gg_parent_matches_exact(self):
        p = McGParams(1.7, 1.0, 1.0, 0.4, 1.1)
        spec = OrderSpec(2, 5)
        for y in (0.3, 1.0, 2.0):
            series, ok = os_series_cdf(p, spec, y)
            assert ok
            assert series == pytest.approx(os_cdf(p, spec, y), abs=1e-8)

    def test_generic_converged_cases(self):
        p = McGParams(0.9, 3.0, 1.5, 0.25, 0.8)
        for i, n in ((1, 3), (2, 5)):
            spec = OrderSpec(i, n)
            for y in (0.3, 0.8, 1.5):
                series, ok = os_series_cdf(p, spec, y)
                assert ok
                assert series == pytest.approx(os_cdf(p, spec, y), abs=1e-6)


class TestOsMomentSeries:
    def test_integer_exponent_cases_converge_and_match(self):
        # a = c = 1 with integer b keeps every component exponent an
        # integer, so all inner binomial series terminate exactly
        p = McGParams(1.0, 2.0, 1.0, 0.5, 1.0)
        for i, n in ((1, 2), (2, 3)):
            spec = OrderSpec(i, n)
            value, ok = os_moment_series(p, spec, 1)
            assert ok
            ref = os_moment(p, spec, 1)
            assert abs(value - ref) <= 1e-3 * max(1.0, abs(ref))

    def test_noninteger_exponents_flagged_but_close(self):
        p = McGParams(0.9, 3.0, 1.5, 0.25, 0.8)
        spec = OrderSpec(2, 5)
        value, ok = os_moment_series(p, spec, 1)
        assert not ok
        assert value == pytest.approx(os_moment(p, spec, 1), rel=1e-3)

    def test_large_rate_withholds_value(self):
        p = McGParams(0.5, 2.5, 1.3, 5.0, 0.1)
        value, ok = os_moment_series(p, OrderSpec(1, 2), 1)
        assert not ok
        assert math.isnan(value)
