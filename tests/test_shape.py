"""Quadrature moment/entropy engines and quantile shape measures."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy import integrate, special

from mcgompertz import shape
from mcgompertz.core import McGParams, cdf, log_pdf, quantile, sample, survival
from mcgompertz.orderstats import OrderSpec, os_moment
from mcgompertz.shape import (
    _PANEL_CUTS,
    _U_TINY,
    bowley,
    mgf_numeric,
    moment_numeric,
    moors,
    renyi_numeric,
    shannon_closed,
    shannon_numeric,
    shape_curves,
)
from mcgompertz.specfun import log_beta

GOMPERTZ = McGParams(1.0, 1.0, 1.0, 1.0, 1.0)

MC_SETS = [
    McGParams(0.5, 2.0, 1.5, 0.2, 0.5),
    McGParams(2.0, 0.5, 0.7, 1.0, 2.0),
    McGParams(1.0, 1.0, 1.0, 1.0, 1.0),
    McGParams(0.8, 1.2, 2.5, 0.05, 0.3),
    McGParams(3.0, 2.0, 0.5, 0.5, 1.5),
]


# glass mcg optimum (a/c ~ 2e-3, G^c underflows) and aarset mcg optimum
# (b ~ 8e-3, 1 - G^c underflows)
GLASS_MCG = McGParams(
    0.4500793196655103,
    0.042314322674387124,
    219.49017482882707,
    7.149867624426224e-06,
    8.090210587209212,
)
AARSET_MCG = McGParams(
    0.48602506867701145,
    0.008027407931889215,
    39.077927764506605,
    0.029940972501835417,
    0.07574424808702038,
)


def mcg_quantile_fn(p):
    return lambda t: quantile(p, t)


def quad_oracle(p, integrand):
    """The integral of integrand(u, y, lp) du by scipy.integrate.quad, one
    panel at a time, with the engine's panels and zero rules."""

    def f(u):
        if u < _U_TINY or u > 709.0:
            return 0.0
        y = math.exp(u)
        lp = log_pdf(p, y)
        return integrand(u, y, lp) if math.isfinite(lp) else 0.0

    edges = [_U_TINY, *np.log(quantile(p, np.array(_PANEL_CUTS))).tolist(), math.inf]
    return math.fsum(
        integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-11, limit=1000)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )


def exp_or_zero(v):
    return math.exp(v) if v > -700.0 else 0.0


class TestPanelEngine:
    """The vectorized panel quadrature against quad, panel by panel."""

    def test_slow_lower_tail_decay(self):
        # rho(a - 1) = -0.98: the integrand behaves like e^{0.02u} at -inf
        p, rho = McGParams(0.51, 1.0, 1.0, 1.0, 1.0), 2.0
        ref = quad_oracle(p, lambda u, y, lp: exp_or_zero(u + rho * lp))
        got = math.exp((1.0 - rho) * renyi_numeric(p, rho))
        assert got == pytest.approx(ref, rel=1e-9)

    def test_tiny_generator_ratio(self):
        p = GLASS_MCG
        for k in (1, 4):
            ref = quad_oracle(p, lambda u, y, lp: exp_or_zero((k + 1.0) * u + lp))
            assert moment_numeric(p, k) == pytest.approx(ref, rel=1e-9)
        ref = quad_oracle(p, lambda u, y, lp: exp_or_zero(u + 0.5 * lp))
        assert math.exp(0.5 * renyi_numeric(p, 0.5)) == pytest.approx(ref, rel=1e-9)

    def test_tiny_b(self):
        p = AARSET_MCG
        ref = quad_oracle(p, lambda u, y, lp: exp_or_zero(2.0 * u + lp))
        assert moment_numeric(p, 1) == pytest.approx(ref, rel=1e-9)
        ref = quad_oracle(p, lambda u, y, lp: exp_or_zero(u + p.gamma * y + lp))
        assert mgf_numeric(p, p.gamma) == pytest.approx(ref, rel=1e-9)
        ref = quad_oracle(
            p, lambda u, y, lp: -math.exp(u + lp) * lp if u + lp >= -700.0 else 0.0
        )
        assert shannon_numeric(p) == pytest.approx(ref, rel=1e-9)

    def test_order_statistic_moment(self):
        p, lb = AARSET_MCG, log_beta(2, 4)

        def integrand(u, y, lp):
            F, S = cdf(p, y), survival(p, y)
            if F == 0.0 or S == 0.0:
                return 0.0
            return exp_or_zero(2.0 * u + lp + math.log(F) + 3.0 * math.log(S) - lb)

        assert os_moment(p, OrderSpec(2, 5), 1) == pytest.approx(
            quad_oracle(p, integrand), rel=1e-9
        )

    def test_origin_spikes(self):
        spike = McGParams(0.3, 1.0, 1.0, 0.1, 1.0)
        ref = quad_oracle(spike, lambda u, y, lp: exp_or_zero(u + 1.2 * lp))
        got = math.exp(-0.2 * renyi_numeric(spike, 1.2))
        assert got == pytest.approx(ref, rel=1e-9)
        steep = McGParams(0.05, 2.0, 1.0, 1.0, 1.0)
        ref = quad_oracle(steep, lambda u, y, lp: exp_or_zero(2.0 * u + lp))
        assert moment_numeric(steep, 1) == pytest.approx(ref, rel=1e-9)

    def test_tiny_integrals_keep_relative_accuracy(self):
        # integrals far below 1e-10 are held to a target that scales with
        # them.  References: mpmath at 30 digits, 30-node Gauss-Legendre on
        # every 2 units of u = ln y over [-900, 8] (the same to 16 digits
        # with 40 nodes on every unit); an adaptive mpmath.quad with sparse
        # breakpoints misses part of the mass
        p = McGParams(0.0022128326672193116, 34.68829657763449, 0.008031376131796298,
                      0.02055959180096699, 0.01284054871853585)
        assert moment_numeric(p, 1) == pytest.approx(1.0102974979825148e-35, rel=1e-9)
        assert moment_numeric(p, 3) == pytest.approx(1.1501686815084457e-47, rel=1e-9)
        assert renyi_numeric(p, 0.5) == pytest.approx(-77.323432142890106, rel=1e-9)

    def test_one_array_log_pdf_call_per_round(self, monkeypatch):
        sizes = []
        real = shape.log_pdf

        def counting(p, y):
            sizes.append(np.size(y))
            return real(p, y)

        monkeypatch.setattr(shape, "log_pdf", counting)
        moment_numeric(MC_SETS[0], 1)
        assert 1 <= len(sizes) <= 40
        assert min(sizes) >= 15  # whole node arrays, never one point

    def test_case_study_integrals_seldom_refine(self, monkeypatch):
        # the 27 engine integrals at the README point and the two
        # case-study optima take 39 density passes on the first-round mesh
        # (85 when each panel started as one subinterval): 12 of them
        # bisect once, at the optima, and the rest take the first round
        calls = []
        real = shape.log_pdf

        def counting(p, y):
            calls.append(np.size(y))
            return real(p, y)

        monkeypatch.setattr(shape, "log_pdf", counting)
        for p in (McGParams(0.5, 0.8, 2.0, 0.1, 0.5), AARSET_MCG, GLASS_MCG):
            for k in range(1, 5):
                moment_numeric(p, k)
            mgf_numeric(p, p.gamma)
            shannon_numeric(p)
            shannon_closed(p)
            renyi_numeric(p, 0.5)
            os_moment(p, OrderSpec(2, 5), 1)
        assert len(calls) == 39

    def test_exhausted_budget_warns(self, monkeypatch):
        monkeypatch.setattr(shape, "_ABS_TOL", 1e-300)
        monkeypatch.setattr(shape, "_REL_TOL", 1e-17)
        monkeypatch.setattr(shape, "_MAX_SUBDIVISIONS", 2)
        with pytest.warns(integrate.IntegrationWarning, match="max_subdivisions=2") as single:
            value = moment_numeric(GOMPERTZ, 1)
        assert value == pytest.approx(math.e * special.exp1(1.0), rel=1e-6)
        # a stack names its worst row: beside an all-zero row, which never
        # asks for a bisection, the moment row refines as it does alone
        with pytest.warns(integrate.IntegrationWarning) as stacked:
            got = shape._panel_quad(GOMPERTZ, lambda u, y, lp: np.stack(
                [np.zeros_like(u), shape._exp_or_zero(2.0 * u + lp)]))
        assert got.tolist() == [0.0, value]
        assert str(stacked[0].message) == f"{single[0].message} in row 1"

    # (value, estimated error) of moment_numeric(GOMPERTZ, 1) with the
    # tolerances below, by cap: each cap is reached after a panel's first
    # bisections, so these pin the rounds and panels where one is refused
    _CAPPED = {
        6: ("0.5963473623231941", "3.32e-17"),
        9: ("0.5963473623231942", "4.1e-17"),
        20: ("0.5963473623231942", "4.31e-17"),
    }

    @pytest.mark.parametrize("cap", sorted(_CAPPED))
    def test_cap_reached_after_bisections(self, cap, monkeypatch):
        monkeypatch.setattr(shape, "_ABS_TOL", 1e-300)
        monkeypatch.setattr(shape, "_REL_TOL", 1e-17)
        monkeypatch.setattr(shape, "_MAX_SUBDIVISIONS", cap)
        value, err = self._CAPPED[cap]
        text = f"a panel would exceed max_subdivisions={cap}; estimated error {err}"
        with pytest.warns(integrate.IntegrationWarning) as single:
            got = moment_numeric(GOMPERTZ, 1)
        assert [repr(got), str(single[0].message)] == [value, text]
        with pytest.warns(integrate.IntegrationWarning) as stacked:
            rows = shape._panel_quad(GOMPERTZ, lambda u, y, lp: np.stack(
                [np.zeros_like(u), shape._exp_or_zero(2.0 * u + lp)]))
        assert [repr(v) for v in rows.tolist()] == ["0.0", value]
        assert str(stacked[0].message) == f"{text} in row 1"

    @staticmethod
    def _stack(p):
        """shannon_closed's rows (E[Y], M(gamma), Shannon) with scalar
        versions for the oracle."""
        stacked = [
            lambda u, y, lp: shape._exp_or_zero(2.0 * u + lp),
            lambda u, y, lp: shape._exp_or_zero(u + p.gamma * y + lp),
            shape._shannon_integrand,
        ]
        scalar = [
            lambda u, y, lp: exp_or_zero(2.0 * u + lp),
            lambda u, y, lp: exp_or_zero(u + p.gamma * y + lp),
            lambda u, y, lp: -math.exp(u + lp) * lp if u + lp >= -700.0 else 0.0,
        ]
        return stacked, scalar

    @pytest.mark.parametrize("p", [AARSET_MCG, GLASS_MCG], ids=["aarset", "glass"])
    def test_stacked_rows_match_oracle(self, p):
        stacked, scalar = self._stack(p)
        got = shape._panel_quad(p, lambda u, y, lp: np.stack([f(u, y, lp) for f in stacked]))
        assert got.shape == (3,)
        for value, integrand in zip(got.tolist(), scalar):
            assert value == pytest.approx(quad_oracle(p, integrand), rel=1e-9)

    def test_one_row_stack_is_the_single_integral(self):
        # also beside an all-zero row, on either side: that row never asks
        # for a bisection, so the other refines and stops as it does alone
        for p in MC_SETS + [AARSET_MCG, GLASS_MCG]:
            for integrand in self._stack(p)[0]:
                want = np.float64(shape._panel_quad(p, integrand)).tobytes()
                got = shape._panel_quad(p, lambda u, y, lp: integrand(u, y, lp)[None])
                assert got.shape == (1,)
                assert got[0].tobytes() == want
                for row in (0, 1):
                    got = shape._panel_quad(p, lambda u, y, lp: np.insert(
                        np.zeros((1, u.size)), row, integrand(u, y, lp), axis=0))
                    assert got[row].tobytes() == want
                    assert got[1 - row] == 0.0

    def test_shannon_closed_shares_one_panel_pass(self, monkeypatch):
        # one cut inversion, and per round one array log_pdf call for the
        # three integrands together
        calls = {"quantile": 0, "rounds": 0}
        sizes = []
        real_quantile, real_log_pdf, real_at_nodes = shape.quantile, shape.log_pdf, shape._at_nodes

        def quantile(p, t):
            calls["quantile"] += 1
            return real_quantile(p, t)

        def log_pdf(p, y):
            sizes.append(np.size(y))
            return real_log_pdf(p, y)

        def at_nodes(p, integrand, u):
            calls["rounds"] += 1
            return real_at_nodes(p, integrand, u)

        monkeypatch.setattr(shape, "quantile", quantile)
        monkeypatch.setattr(shape, "log_pdf", log_pdf)
        monkeypatch.setattr(shape, "_at_nodes", at_nodes)
        for p in (AARSET_MCG, GLASS_MCG):
            calls.update(quantile=0, rounds=0)
            sizes.clear()
            shannon_closed(p)
            assert calls["quantile"] == 1
            assert 1 <= calls["rounds"] == len(sizes)
            assert min(sizes) >= 15

    def test_returns_python_floats(self):
        assert type(moment_numeric(GOMPERTZ, 1)) is float
        assert type(shannon_numeric(GOMPERTZ)) is float


class TestMomentNumeric:
    def test_unit_gompertz_mean(self):
        # with a = b = c = 1 and theta = gamma = 1 the mean reduces to
        # e * E1(1), an independent exponential-integral identity
        expected = math.e * special.exp1(1.0)
        got = moment_numeric(GOMPERTZ, 1)
        assert got == pytest.approx(expected, rel=1e-8)

    def test_moments_increase_with_scale(self):
        small = McGParams(1.0, 1.0, 1.0, 2.0, 1.0)
        assert moment_numeric(small, 1) < moment_numeric(GOMPERTZ, 1)

    def test_second_moment_exceeds_mean_square(self):
        for p in MC_SETS:
            m1 = moment_numeric(p, 1)
            m2 = moment_numeric(p, 2)
            assert m2 > m1 * m1

    def test_monte_carlo_cross_check(self):
        for p in MC_SETS[:3]:
            draws = sample(p, 200_000, seed=4021)
            m1 = moment_numeric(p, 1)
            se = draws.std(ddof=1) / math.sqrt(draws.size)
            assert abs(m1 - draws.mean()) <= 4.0 * se

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            moment_numeric(GOMPERTZ, 0)
        with pytest.raises(ValueError):
            moment_numeric(GOMPERTZ, 1.5)


class TestMgfNumeric:
    def test_unit_gompertz_closed_value(self):
        # E[e^Y] for the unit Gompertz integrates to exactly 2
        assert mgf_numeric(GOMPERTZ, 1.0) == pytest.approx(2.0, rel=1e-8)

    def test_zero_argument_is_one(self):
        for p in MC_SETS:
            assert mgf_numeric(p, 0.0) == pytest.approx(1.0, rel=1e-8)

    def test_monotone_in_argument(self):
        vals = [mgf_numeric(GOMPERTZ, t) for t in (-1.0, 0.0, 0.5, 1.0)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_negative_argument_below_one(self):
        assert mgf_numeric(GOMPERTZ, -2.0) < 1.0


class TestShannon:
    def test_unit_gompertz_value(self):
        # -E[log f] = -1 - E[Y] + E[e^Y] = 1 - e*E1(1) for the unit Gompertz
        expected = 1.0 - math.e * special.exp1(1.0)
        assert shannon_numeric(GOMPERTZ) == pytest.approx(expected, rel=1e-8)

    def test_monte_carlo_cross_check(self):
        for p in MC_SETS:
            draws = sample(p, 1_000_000, seed=977)
            lp = log_pdf(p, draws)
            mc = -lp.mean()
            se = lp.std(ddof=1) / math.sqrt(draws.size)
            assert abs(shannon_numeric(p) - mc) <= 3.0 * se

    def test_closed_form_exact_when_generator_exponent_is_one(self):
        for p in (GOMPERTZ, McGParams(2.0, 1.5, 1.0, 0.5, 1.0)):
            value, ok = shannon_closed(p)
            assert ok
            assert value == pytest.approx(shannon_numeric(p), rel=1e-6, abs=1e-6)

    def test_closed_form_flagged_otherwise(self):
        p = McGParams(2.0, 1.5, 2.0, 0.5, 1.0)
        value, ok = shannon_closed(p)
        assert not ok
        assert abs(value - shannon_numeric(p)) > 1e-2

    def test_rescaled_digamma_arguments_restore_agreement(self):
        # replacing zeta(a, b) and zeta(b, a) with their generator-exponent
        # rescaled versions zeta(a/c, b)/c and zeta(b, a/c) matches the
        # quadrature entropy even for c != 1
        def zeta(r, s):
            return special.digamma(r + s) - special.digamma(r)

        for p in (McGParams(2.0, 1.5, 2.0, 0.5, 1.0), McGParams(0.9, 2.0, 0.6, 0.3, 0.8)):
            a, b, c, th, ga = p.a, p.b, p.c, p.theta, p.gamma
            corrected = (
                log_beta(a / c, b)
                - math.log(c * th)
                - th / ga
                - ga * moment_numeric(p, 1)
                + (th / ga) * mgf_numeric(p, ga)
                + ((a - 1.0) / c) * zeta(a / c, b)
                + (b - 1.0) * zeta(b, a / c)
            )
            assert corrected == pytest.approx(shannon_numeric(p), rel=1e-6, abs=1e-6)


class TestRenyi:
    def test_limit_recovers_shannon(self):
        for p in (GOMPERTZ, MC_SETS[4]):
            h = shannon_numeric(p)
            assert abs(renyi_numeric(p, 0.999) - h) < 1e-2

    def test_monotone_nonincreasing_in_order(self):
        p = MC_SETS[4]
        rhos = (0.5, 0.9, 1.1, 2.0, 5.0)
        vals = [renyi_numeric(p, r) for r in rhos]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_origin_spike_integrability_guard(self):
        spike = McGParams(0.3, 1.0, 1.0, 0.1, 1.0)
        # rho*(a-1) = -1.4 <= -1: f^2 is non-integrable at the origin
        with pytest.raises(ValueError, match="diverges"):
            renyi_numeric(spike, 2.0)
        # rho*(a-1) = -0.84 > -1 stays integrable
        assert math.isfinite(renyi_numeric(spike, 1.2))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            renyi_numeric(GOMPERTZ, 1.0)
        with pytest.raises(ValueError):
            renyi_numeric(GOMPERTZ, -0.5)


class TestBowley:
    def test_symmetric_distribution_is_zero(self):
        assert abs(bowley(NormalDist().inv_cdf)) <= 1e-10

    def test_location_scale_invariant(self):
        q0 = mcg_quantile_fn(McGParams(0.5, 0.5, 1.0, 0.1, 1.0))
        shifted = lambda t: 3.0 + 7.0 * q0(t)
        assert abs(bowley(q0) - bowley(shifted)) <= 1e-12

    def test_bounded_and_matches_sample_quartiles(self):
        p = McGParams(0.5, 0.5, 1.0, 0.1, 1.0)
        val = bowley(mcg_quantile_fn(p))
        assert -1.0 < val < 1.0
        draws = sample(p, 200_000, seed=1311)
        q1, q2, q3 = np.quantile(draws, [0.25, 0.5, 0.75])
        empirical = (q3 - 2.0 * q2 + q1) / (q3 - q1)
        assert val == pytest.approx(empirical, abs=0.02)


class TestMoors:
    def test_normal_reference_value(self):
        assert moors(NormalDist().inv_cdf) == pytest.approx(1.2331, abs=1e-3)

    def test_student_t_reference_value(self):
        # t quantile from the regularized incomplete beta inverse:
        # x = I^{-1}(2p_tail; nu/2, 1/2), t = sqrt(nu (1-x)/x)
        nu = 10.0

        def t_quantile(pr):
            if pr == 0.5:
                return 0.0
            tail = pr if pr < 0.5 else 1.0 - pr
            x = special.betaincinv(nu / 2.0, 0.5, 2.0 * tail)
            t = math.sqrt(nu * (1.0 - x) / x)
            return -t if pr < 0.5 else t

        assert moors(t_quantile) == pytest.approx(1.27705, abs=1e-3)

    def test_uniform_is_exactly_one(self):
        assert moors(lambda t: t) == 1.0

    def test_location_scale_invariant(self):
        q0 = mcg_quantile_fn(McGParams(0.5, 0.5, 1.0, 0.1, 1.0))
        shifted = lambda t: -2.0 + 0.25 * q0(t)
        assert abs(moors(q0) - moors(shifted)) <= 1e-12

    def test_degenerate_quantiles_raise(self):
        with pytest.raises(ValueError):
            moors(lambda t: 1.0)


class TestShapeCurves:
    def test_sweep_rows(self):
        grid = np.linspace(0.5, 5.0, 10)
        rows = shape_curves("bowley", grid, 0.5, 0.5, 0.1, 1.0)
        assert len(rows) == 10
        for r, c in zip(rows, grid):
            assert r["c"] == pytest.approx(c)
            assert r["measure"] == "bowley"
            assert math.isfinite(r["value"])
            assert (r["a"], r["b"], r["theta"], r["gamma"]) == (0.5, 0.5, 0.1, 1.0)

    def test_moors_sweep_finite(self):
        rows = shape_curves("moors", [0.5, 1.0, 2.0, 5.0], 0.5, 0.5, 0.1, 1.0)
        assert all(math.isfinite(r["value"]) for r in rows)

    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError):
            shape_curves("kurtosis", [1.0], 0.5, 0.5, 0.1, 1.0)

    @staticmethod
    def _per_c(measure, c_grid, a, b, theta, gamma):
        """The curve one quantile call per c gives, or the error it raises."""
        fn = bowley if measure == "bowley" else moors
        ts = (0.25, 0.5, 0.75) if measure == "bowley" else tuple(k / 8.0 for k in range(1, 8))
        values = []
        try:
            for c in c_grid:
                q = quantile(McGParams(a, b, float(c), theta, gamma), np.array(ts))
                values.append(fn(dict(zip(ts, q.tolist())).__getitem__))
        except ValueError as exc:
            return str(exc)
        return values

    @staticmethod
    def _one_call(measure, c_grid, a, b, theta, gamma):
        try:
            return [r["value"] for r in shape_curves(measure, c_grid, a, b, theta, gamma)]
        except ValueError as exc:
            return str(exc)

    def test_grid_equals_per_c_quantiles(self):
        # the one quantile call over the (c x t) grid gives every row bit
        # for bit; the seeded sets reach a/c ~ 1e-3, b ~ 1e-3 and c ~ 219
        rng = np.random.default_rng(15)
        sets = [(p.a, p.b, p.theta, p.gamma) for p in (GLASS_MCG, AARSET_MCG)]
        sets.append((0.5, 0.8, 0.1, 0.5))
        for _ in range(12):
            sets.append(tuple(math.exp(rng.uniform(lo, hi)) for lo, hi in
                              ((-7.0, 3.0), (-7.0, 3.0), (-8.0, 1.0), (-3.0, 2.0))))
        grid = np.concatenate([np.linspace(0.5, 5.0, 10), [0.2, 39.0, 219.49017482882707]])
        for a, b, theta, gamma in sets:
            for measure in ("bowley", "moors"):
                want = self._per_c(measure, grid, a, b, theta, gamma)
                assert self._one_call(measure, grid, a, b, theta, gamma) == want

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, "x"])
    def test_bad_c_raises_as_per_c_path(self, bad):
        grid = [1.0, bad, 2.0]
        want = self._per_c("moors", grid, 0.5, 0.5, 0.1, 1.0)
        assert isinstance(want, str)
        assert self._one_call("moors", grid, 0.5, 0.5, 0.1, 1.0) == want

    def test_degenerate_row_raises_before_later_bad_c(self):
        # rows are assessed in grid order, so a degenerate row ahead of a
        # bad c raises its own error, as the per-c loop did
        shapes = (1.5e-4, 0.4, 2.7e-3, 0.66)
        want = self._per_c("bowley", [1.0, 0.0], *shapes)
        assert want.startswith("degenerate quantile function")
        assert self._one_call("bowley", [1.0, 0.0], *shapes) == want

    def test_empty_grid(self):
        assert shape_curves("moors", [], 0.5, 0.5, 0.1, 1.0) == []
