"""Tests for the discrepancy catalog.

The catalog is static data; these tests re-derive every cheap evidence
number against the live implementation so a code change that invalidates
an entry fails loudly.
"""

import json
import math
import runpy
import sys
import warnings

import numpy as np
import pytest
import scipy.special as sps

from mcgompertz.core import McGParams, cdf as mcg_cdf
from mcgompertz.errata import (
    Erratum,
    erratum_report,
    known_errata,
    write_erratum_report,
)
from mcgompertz.expansions import mgf_series, power_series_power
from mcgompertz.family import exp_limit_cdf, make_submodel
from mcgompertz.inference import Dataset, fit_mle, log_likelihood, observed_info
from mcgompertz.selection import ks_test
from mcgompertz.shape import (
    mgf_numeric,
    moment_numeric,
    shannon_closed,
    shannon_numeric,
)
from mcgompertz.specfun import log_beta

DEVICE_MCG_ROW = McGParams(0.2619, 0.0752, 3.7652, 0.0012, 0.0875)
FIBER_MCG_ROW = McGParams(0.7940, 0.1248, 192.1704, 0.0009, 5.2013)


def _entry(slug):
    matches = [e for e in known_errata() if e.slug == slug]
    assert len(matches) == 1, f"missing catalog entry {slug}"
    return matches[0]


class TestCatalogShape:
    def test_slugs_unique_and_fields_filled(self):
        entries = known_errata()
        slugs = [e.slug for e in entries]
        assert len(slugs) == len(set(slugs))
        for e in entries:
            assert e.printed and e.corrected
            assert e.kind in ("display", "divergence", "table", "prose")
            assert e.component in (
                "specfun",
                "core",
                "family",
                "expansions",
                "shape",
                "orderstats",
                "inference",
                "selection",
                "cli",
            )

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Erratum(slug="x", component="core", kind="oops", printed="p", corrected="c")

    def test_report_round_trips_as_json(self):
        report = erratum_report()
        assert report["schema_version"] == 1
        assert report["entry_count"] == len(report["entries"])
        clone = json.loads(json.dumps(report))
        assert clone == report

    def test_write_report(self, tmp_path):
        path = tmp_path / "errata.json"
        returned = write_erratum_report(path)
        on_disk = json.loads(path.read_text())
        assert on_disk == returned
        assert on_disk["entry_count"] >= 15

    def test_module_entry_point_writes_report(self, tmp_path, monkeypatch):
        # `python -m mcgompertz.errata out.json`, run in this process
        path = tmp_path / "out.json"
        monkeypatch.setattr(sys, "argv", ["errata", str(path)])
        with warnings.catch_warnings():
            # the module is already imported by this test file
            warnings.filterwarnings("ignore", "'mcgompertz.errata' found in sys.modules",
                                    RuntimeWarning)
            runpy.run_module("mcgompertz.errata", run_name="__main__")
        on_disk = json.loads(path.read_text())
        assert on_disk == erratum_report()
        assert on_disk["entry_count"] == len(on_disk["entries"]) == 18


class TestSeriesEvidence:
    def test_recurrence_bracket_variant_fails_on_square(self):
        ev = _entry("power-series-power-recurrence-bracket").evidence

        def printed_variant(b_seq, m, r_max):
            c = [float(b_seq[0]) ** m]
            for r in range(1, r_max + 1):
                acc = 0.0
                for k in range(1, min(r, len(b_seq) - 1) + 1):
                    acc += (k * (m + 1) - r + k) * b_seq[k] * c[r - k]
                c.append(acc / (r * b_seq[0]))
            return c

        assert printed_variant([1.0, 1.0], 2, 2) == ev["printed_bracket_coeffs"]
        assert list(power_series_power([1.0, 1.0], 2, 2)) == ev["correct_coeffs"]

    def test_mgf_summand_case(self):
        ev = _entry("mgf-series-summand").evidence
        p = McGParams(1.0, 2.0, 1.0, 1.0, 1.0)
        value, summed, faithful = mgf_series(p, 1.0)
        assert summed and not faithful
        assert value == pytest.approx(ev["series_value"], rel=1e-9)
        assert mgf_numeric(p, 1.0) == pytest.approx(ev["quadrature_value"], rel=1e-6)

    def test_moment_kernel_true_mean(self):
        ev = _entry("moment-series-inner-kernel").evidence
        p = McGParams(1.0, 1.0, 1.0, 1.0, 1.0)
        mean = moment_numeric(p, 1)
        assert mean == pytest.approx(ev["true_mean"], abs=1e-7)
        assert mean == pytest.approx(math.e * sps.exp1(1.0), rel=1e-9)

    def test_shannon_argument_variants(self):
        ev = _entry("shannon-entropy-digamma-arguments").evidence
        p = McGParams(2.0, 1.5, 2.0, 1.0, 1.0)
        numeric = shannon_numeric(p)
        displayed, ok = shannon_closed(p)
        assert not ok
        assert numeric == pytest.approx(ev["numeric_entropy"], abs=1e-7)
        assert displayed == pytest.approx(ev["displayed_form_value"], abs=1e-7)

        def zeta(r, s):
            return sps.digamma(r + s) - sps.digamma(r)

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
        assert corrected == pytest.approx(ev["corrected_form_value"], abs=1e-7)
        assert corrected == pytest.approx(numeric, abs=1e-6)


class TestTableEvidence:
    def test_loglik_at_printed_rows(self, aarset, glass):
        ev = _entry("printed-loglik-vs-printed-estimates").evidence
        dd = Dataset(values=tuple(float(v) for v in aarset))
        fd = Dataset(values=tuple(float(v) for v in glass))
        assert -log_likelihood("mcg", DEVICE_MCG_ROW, dd) == pytest.approx(
            ev["device_loglik_at_printed_row"], abs=1e-6
        )
        assert -log_likelihood("mcg", FIBER_MCG_ROW, fd) == pytest.approx(
            ev["fiber_loglik_at_printed_row"], abs=1e-6
        )
        unrounded = McGParams(0.7940, 0.1248, 192.1704, 0.00095, 5.2013)
        assert -log_likelihood("mcg", unrounded, fd) == pytest.approx(
            ev["fiber_printed_loglik"], abs=5e-5
        )
        ks, _ = ks_test(fd, lambda y: mcg_cdf(FIBER_MCG_ROW, y))
        assert ks == pytest.approx(ev["fiber_ks_at_printed_row"], abs=5e-4)

    def test_fiber_mce_column_numbers(self, glass):
        ev = _entry("fiber-mce-column-mixed-runs").evidence
        implied = 37.2569 / 2.0 - 4.0
        assert implied == pytest.approx(ev["neg_loglik_implied_by_aic"], abs=1e-4)
        fd = Dataset(values=tuple(float(v) for v in glass))
        row = make_submodel(
            "mce", {"a": 9.3276, "b": 93.4655, "c": 22.6124, "theta": 0.9227}
        )
        assert -log_likelihood("mce", row, fd) == pytest.approx(15.5995, abs=5e-4)
        ks, _ = ks_test(fd, lambda y: exp_limit_cdf(row, y))
        assert ks == pytest.approx(ev["ks_at_printed_row"], abs=5e-4)

    def test_ridge_endpoints(self, aarset, glass):
        # the fitter's own ridge endpoints: the lowest start stopped at the
        # box wall (device McG, fiber BG) and the unconverged fiber McE fit
        ev = _entry("likelihood-ridge-no-strict-mle").evidence
        dd = Dataset(values=tuple(float(v) for v in aarset))
        fd = Dataset(values=tuple(float(v) for v in glass))
        for model, data, key, tol in (("mcg", dd, "device_ridge_nll", 5e-4),
                                      ("bg", fd, "fiber_bg_ridge_nll_approach", 5e-3)):
            fit = fit_mle(model, data)
            ridge = min(r.neg_loglik for r in fit.trace if r.stop == "wall")
            assert ridge < fit.neg_loglik
            assert ridge == pytest.approx(ev[key], abs=tol)
        mce = fit_mle("mce", fd)
        assert not mce.converged
        assert mce.neg_loglik == pytest.approx(ev["fiber_mce_ridge_nll_approach"], abs=5e-3)
        ks, _ = ks_test(fd, lambda y: exp_limit_cdf(mce.params, y))
        assert ks == pytest.approx(_entry("fiber-mce-column-mixed-runs").evidence[
            "ks_at_ridge_endpoint"], abs=5e-4)

    def test_fiber_bg_ks_points(self, glass):
        ev = _entry("fiber-bg-ks-from-different-point").evidence
        fd = Dataset(values=tuple(float(v) for v in glass))
        row = make_submodel(
            "bg", {"a": 1.6907, "b": 27.7434, "theta": 0.0020, "gamma": 2.7156}
        )
        ks_row, _ = ks_test(fd, lambda y: mcg_cdf(row, y))
        assert ks_row == pytest.approx(ev["ks_at_printed_row"], abs=5e-4)
        opt = make_submodel(
            "bg", {"a": 1.6221, "b": 1.1286, "theta": 0.0334, "gamma": 2.8566}
        )
        assert -log_likelihood("bg", opt, fd) == pytest.approx(14.1434, abs=5e-4)
        ks_opt, _ = ks_test(fd, lambda y: mcg_cdf(opt, y))
        assert ks_opt == pytest.approx(ev["ks_at_interior_optimum"], abs=2e-3)

    def test_stderr_rows(self, aarset, glass):
        ev = _entry("stderr-rows-inconsistent-with-info-matrix").evidence
        for row, data, key in (
            (DEVICE_MCG_ROW, aarset, "device_se_from_info"),
            (FIBER_MCG_ROW, glass, "fiber_se_from_info"),
        ):
            d = Dataset(values=tuple(float(v) for v in data))
            info = observed_info("mcg", row, d)
            se = np.sqrt(np.diag(np.linalg.inv(info)))
            assert se == pytest.approx(ev[key], rel=1e-4)
        ratios = np.asarray(ev["device_se_from_info"]) / np.asarray(
            ev["device_printed_se"]
        )
        assert ratios[0] == pytest.approx(1.0, abs=0.01)
        assert np.max(ratios[1:]) > 2.0 or np.min(ratios[1:]) < 0.6
