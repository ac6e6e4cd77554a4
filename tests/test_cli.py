"""End-to-end tests for the command-line interface."""

import builtins
import io
import json
import math
import os
import stat
import subprocess
import sys

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mcgompertz
from mcgompertz import cli
from mcgompertz.cli import (
    EXIT_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERIC,
    EXIT_OK,
    _COMMANDS,
    _cell,
    _csv,
    _fmt_float,
    _fmt_floats,
    _json_text,
    _read_dataset,
    InputError,
    main,
)
from mcgompertz.core import McGParams, cdf as mcg_cdf
from mcgompertz.selection import ks_test


def _run(tmp_path, *argv, name="out.txt"):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    return code, (out.read_text() if out.exists() else "")


class TestFloatFormatting:
    def test_17_digit_round_trip(self):
        for v in (0.1, 2.0, 1.0 / 3.0, 1e-300, 6.02e23, 219.00414159265359):
            assert float(_fmt_float(v)) == v

    def test_integral_values_stay_floats(self):
        assert _fmt_float(2.0) == "2.0"
        assert _fmt_float(-5.0) == "-5.0"

    def test_json_text_parses_and_is_deterministic(self):
        obj = {
            "a": 1.5,
            "b": [1, 2.0, None, True],
            "c": {"nested": "x"},
            "inf": math.inf,
        }
        text = _json_text(obj)
        parsed = json.loads(text)
        assert parsed["a"] == 1.5
        assert parsed["inf"] is None
        assert text == _json_text(obj)

    # any double: integral values up to 1e17 (printed without an exponent
    # below it), subnormals, signed zeros and the non-finite values
    FLOATS = st.one_of(
        st.floats(),
        st.integers(-(10**17), 10**17).map(float),
        st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    )

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(FLOATS, max_size=20))
    @example(values=[-0.0, 0.0, 1e16, -1e16, 1e17, -1e17, 5e-324, -5e-324])
    @example(values=[math.inf, -math.inf, math.nan, -math.nan, 2.0, 219.0])
    def test_column_formatter_matches_cell_formatter(self, values):
        column = np.array(values, dtype=float)
        # the cell rule written out: .17g, with ".0" after a bare integer
        texts = [format(v, ".17g") for v in values]
        ref = [t + ".0" if t.lstrip("+-").isdigit() else t for t in texts]
        assert _fmt_floats(column) == [_fmt_float(v) for v in values] == ref
        # CSV keeps inf and nan as text, JSON writes them as null
        assert _csv(("v",), [column]) == _csv(("v",), [values])
        assert _json_text({"v": column}) == _json_text({"v": values})

    def test_mixed_columns_render_cell_by_cell(self):
        # the compare ladder: None for the full model's LRT, bools, ints
        header = ("model", "neg_loglik", "converged", "lrt_stat", "lrt_df", "lrt_pvalue")
        columns = [
            ["McG", "BG"],
            [217.375, 220.5],
            [True, False],
            [None, 6.25],
            [None, 1],
            [None, 0.015625],
        ]
        rows = [",".join(map(_cell, row)) for row in zip(*columns)]
        assert _csv(header, columns).splitlines() == [",".join(header), *rows]
        assert rows == ["McG,217.375,true,,,", "BG,220.5,false,6.25,1,0.015625"]


class TestDataIngestion:
    def test_builtin_datasets(self):
        assert _read_dataset("aarset").n == 50
        assert _read_dataset("glass").n == 63

    def test_header_auto_detected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("lifetime\n1.0\n2.0\n3.0\n")
        assert _read_dataset(str(f)).values == (1.0, 2.0, 3.0)

    def test_headerless_and_crlf(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_bytes(b"1.5\r\n2.5\r\n")
        assert _read_dataset(str(f)).values == (1.5, 2.5)

    def test_rejects_junk_line(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0\nnot-a-number\n2.0\n")
        with pytest.raises(InputError):
            _read_dataset(str(f))

    def test_rejects_empty_and_missing(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("header-only\n")
        with pytest.raises(InputError):
            _read_dataset(str(f))
        with pytest.raises(InputError):
            _read_dataset(str(tmp_path / "absent.csv"))

    def test_rejects_nonpositive_values(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0\n-2.0\n")
        with pytest.raises(InputError):
            _read_dataset(str(f))


class TestExitCodes:
    def test_empty_file_is_input_error(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        assert main(["fit", "--model", "mcg", "--data", str(f)]) == EXIT_INPUT

    def test_unknown_model_is_input_error(self):
        assert main(["fit", "--model", "nope", "--data", "aarset"]) == EXIT_INPUT

    def test_bad_flag_is_input_error(self):
        assert main(["fit", "--bogus", "x"]) == EXIT_INPUT

    def test_bad_params_is_input_error(self):
        assert main(["sample", "--params", "a=one"]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--starts", "-3", "n_starts"), ("--max-iter", "-1", "max_iter")],
        ids=["starts", "max-iter"],
    )
    def test_negative_optimizer_flag_is_input_error(self, flag, value, field, capsys):
        assert main(["fit", "--model", "g", "--data", "aarset", flag, value]) == EXIT_INPUT
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["compare", "--model", "mcg,nope", "--data", "aarset"], "unknown model 'nope'"),
            (["compare", "--model", ",", "--data", "aarset"], "at least one model name"),
            (["sample", "--model", "g", "--params", "theta=1"], "missing ['gamma']"),
            (["sample", "--params", "a=1,b=1,c=1,theta=1,gamma=1", "--n", "0"], "--n must be"),
            (["fit", "--data", "{tmp}/absent.csv"], "data file not found"),
        ],
        ids=["compare-unknown-nested", "compare-no-names", "sample-wrong-params",
             "sample-n-zero", "missing-data-file"],
    )
    def test_input_error_reports_on_stderr(self, argv, fragment, tmp_path, capsys):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv) == EXIT_INPUT
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exc, code, prefix",
        [
            (np.linalg.LinAlgError("Singular matrix"), EXIT_NUMERIC, "numeric failure"),
            (ValueError("bad value"), EXIT_INPUT, "error"),
        ],
        ids=["linalg-is-numeric", "value-is-input"],
    )
    def test_exception_exit_codes(self, exc, code, prefix, monkeypatch, capsys):
        # LinAlgError subclasses ValueError but is a numeric failure
        def failing(ns):
            raise exc

        monkeypatch.setitem(_COMMANDS, "sample", failing)
        assert main(["sample", "--params", "a=1"]) == code
        assert capsys.readouterr().err == f"{prefix}: {exc}\n"

    def test_parser_reuse_matches_fresh_parser(self, tmp_path, capsys, monkeypatch):
        # main builds its parser once per process; each result must equal
        # what a freshly built parser gives for the same argv
        monkeypatch.setenv("COLUMNS", "80")
        out = tmp_path / "out.txt"
        sequence = [
            ["sample", "--params", "a=0.5,b=0.8,c=2,theta=0.1,gamma=0.5", "--n", "50"],
            ["sample", "--bogus", "--params", "a=1"],
            ["--help"],
            ["--help"],
            ["eval", "--model", "g", "--params", "theta=0.5,gamma=1", "--out", str(out)],
        ]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            text = out.read_text() if out.exists() else None
            if out.exists():
                out.unlink()
            return code, captured.out, captured.err, text

        cli._build_parser.cache_clear()
        shared = [run(argv) for argv in sequence]
        assert cli._build_parser.cache_info().misses == 1
        fresh = []
        for argv in sequence:
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        assert shared == fresh
        assert [r[0] for r in shared] == [EXIT_OK, EXIT_INPUT, EXIT_OK, EXIT_OK, EXIT_OK]
        assert shared[2] == shared[3] and shared[2][1].startswith("usage: mcg")
        assert "unrecognized arguments: --bogus" in shared[1][2]
        assert shared[4][3].startswith("y,pdf,cdf,hazard\n")

    def test_module_entry_point_exit_code(self):
        src = os.path.dirname(os.path.dirname(mcgompertz.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "mcgompertz.cli", "fit", "--model", "nope", "--data", "aarset"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == EXIT_INPUT
        assert "unknown model 'nope'" in proc.stderr

    def test_nonconvergent_fit_still_writes(self, tmp_path):
        # the fiber-data exponential-base likelihood rides the b ridge;
        # the fitter honestly reports non-convergence
        code, text = _run(
            tmp_path, "fit", "--model", "mce", "--data", "glass", name="mce.json"
        )
        assert code == EXIT_NO_CONVERGENCE
        payload = json.loads(text)
        assert payload["converged"] is False
        assert payload["neg_loglik"] < 14.7


class TestFit:
    def test_bg_on_device_data(self, tmp_path):
        code, text = _run(
            tmp_path,
            "fit",
            "--model",
            "bg",
            "--data",
            "aarset",
            "--starts",
            "2",
            name="bg.json",
        )
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["schema_version"] == 1
        assert payload["model"] == "BG"
        assert payload["n_obs"] == 50
        assert payload["neg_loglik"] == pytest.approx(220.67184117, abs=1e-4)
        assert payload["converged"] is True
        est = payload["estimates"]
        assert est["a"] == pytest.approx(0.2158, abs=5e-4)
        assert est["gamma"] == pytest.approx(0.0882, abs=5e-4)
        assert set(payload["std_errors"]) == {"a", "b", "theta", "gamma"}

    def test_gompertz_fit_in_large_units(self, tmp_path, glass):
        # the glass strengths in units a million times smaller: the fit is
        # the glass fit, rescaled, with no warning on the way
        data = tmp_path / "big.csv"
        data.write_text("".join(f"{v * 1e6:.17g}\n" for v in glass))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = _run(tmp_path, "fit", "--model", "g", "--data", str(data), name="big.json")
        assert code == EXIT_OK
        _, ref = _run(tmp_path, "fit", "--model", "g", "--data", "glass", name="ref.json")
        assert json.loads(text)["neg_loglik"] == pytest.approx(
            json.loads(ref)["neg_loglik"] + glass.size * math.log(1e6), abs=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        args = ("fit", "--model", "gg", "--data", "glass", "--starts", "2")
        _, first = _run(tmp_path, *args, name="a.json")
        _, second = _run(tmp_path, *args, name="b.json")
        assert first == second

    def test_csv_format(self, tmp_path):
        code, text = _run(
            tmp_path,
            "fit",
            "--model",
            "g",
            "--data",
            "aarset",
            "--starts",
            "0",
            "--format",
            "csv",
            name="g.csv",
        )
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == "key,value"
        keys = {ln.split(",")[0] for ln in lines[1:]}
        assert {"model", "neg_loglik", "converged", "estimates.theta"} <= keys


class TestGof:
    def test_bg_column_matches_published_table(self, tmp_path):
        code, text = _run(
            tmp_path, "gof", "--model", "bg", "--data", "aarset", name="gof.json"
        )
        assert code == EXIT_OK
        payload = json.loads(text)
        # the fitted BG column reproduces every published statistic
        assert payload["neg_loglik"] == pytest.approx(220.6714, abs=5e-4)
        assert payload["aic"] == pytest.approx(449.3437, abs=5e-4)
        assert payload["aicc"] == pytest.approx(450.2326, abs=5e-4)
        assert payload["bic"] == pytest.approx(456.9918, abs=5e-4)
        assert payload["ks_stat"] == pytest.approx(0.1322, abs=1e-3)
        assert payload["ks_pvalue"] == pytest.approx(0.3456, abs=5e-3)
        # the LRT against the refitted five-parameter optimum differs from
        # the published 3.3356/0.06779, which evaluates the full model at a
        # non-stationary point; the honest refit gives a deeper optimum
        assert payload["lrt_stat"] == pytest.approx(6.5745, abs=1e-3)
        assert payload["lrt_pvalue"] == pytest.approx(0.01034, abs=1e-4)
        meta = payload["metadata"]
        assert meta["ks_pvalue_method"] == "asymptotic-kolmogorov"
        assert "without a finite-sample correction" in meta["ks_caveat"]

    def test_full_model_has_no_lrt(self, tmp_path):
        code, text = _run(
            tmp_path,
            "gof",
            "--model",
            "mcg",
            "--data",
            "glass",
            "--starts",
            "4",
            name="gof.json",
        )
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["lrt_stat"] is None
        assert payload["lrt_pvalue"] is None
        assert payload["ks_stat"] == pytest.approx(0.0960, abs=2e-3)

    # four observations: too few for the five-parameter McG, enough for
    # the two-parameter Gompertz sub-model
    FOUR_POINTS = "10000\n20000\n30000\n50000\n"
    LRT_NOTE = (
        "no likelihood-ratio test: McG has 5 free parameters and needs more "
        "than 5 observations; the data have 4"
    )

    def test_sub_model_on_tiny_sample_reports_without_lrt(self, tmp_path):
        data = tmp_path / "four.csv"
        data.write_text(self.FOUR_POINTS)
        code, text = _run(tmp_path, "gof", "--model", "g", "--data", str(data), name="gof.json")
        assert code == EXIT_OK
        payload = json.loads(text)
        assert (payload["lrt_stat"], payload["lrt_df"], payload["lrt_pvalue"]) == (None, None, None)
        assert (payload["model"], payload["k_params"], payload["n_obs"]) == ("G", 2, 4)
        assert payload["metadata"]["lrt_note"] == self.LRT_NOTE
        # the sub-model's own fit is the one `mcg fit` reports
        code, fit_text = _run(tmp_path, "fit", "--model", "g", "--data", str(data), name="fit.json")
        assert code == EXIT_OK
        fit = json.loads(fit_text)
        assert payload["neg_loglik"] == fit["neg_loglik"]
        assert payload["estimates"] == fit["estimates"]

    def test_sub_model_on_tiny_sample_csv(self, tmp_path):
        data = tmp_path / "four.csv"
        data.write_text(self.FOUR_POINTS)
        code, text = _run(
            tmp_path, "gof", "--model", "g", "--data", str(data), "--format", "csv", name="gof.csv"
        )
        assert code == EXIT_OK
        rows = dict(line.split(",", 1) for line in text.splitlines()[1:])
        assert rows["lrt_stat"] == rows["lrt_df"] == rows["lrt_pvalue"] == ""
        assert rows["metadata.lrt_note"] == self.LRT_NOTE

    def test_full_model_on_tiny_sample_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "four.csv"
        data.write_text(self.FOUR_POINTS)
        assert main(["gof", "--model", "mcg", "--data", str(data)]) == EXIT_INPUT
        assert "McG has 5 free parameters" in capsys.readouterr().err

    def test_lrt_note_only_where_mcg_cannot_be_fitted(self, tmp_path):
        code, text = _run(tmp_path, "gof", "--model", "bg", "--data", "glass", "--starts", "2")
        assert code == EXIT_OK
        assert "lrt_note" not in json.loads(text)["metadata"]


class TestCompare:
    def test_device_data_ladder(self, tmp_path):
        code, text = _run(tmp_path, "compare", "--data", "aarset", name="cmp.json")
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["full"]["model"] == "McG"
        assert payload["full"]["neg_loglik"] == pytest.approx(217.3846, abs=1e-3)
        ladder = {row["model"]: row for row in payload["ladder"]}
        assert set(ladder) == {"BG", "KumG", "McE"}
        # honest refit ladder; the published p-values {0.068, 0.015, 0.0}
        # evaluate the full model at its non-stationary printed point
        assert ladder["BG"]["lrt_pvalue"] == pytest.approx(0.01034, abs=1e-4)
        assert ladder["KumG"]["lrt_pvalue"] == pytest.approx(0.002468, abs=1e-4)
        assert ladder["McE"]["lrt_pvalue"] < 1e-8
        for row in ladder.values():
            assert row["lrt_df"] == 1
            assert row["lrt_stat"] > 0.0

    def test_single_model_compare_is_empty_ladder(self, tmp_path):
        code, text = _run(
            tmp_path,
            "compare",
            "--model",
            "bg",
            "--data",
            "aarset",
            "--starts",
            "2",
            name="cmp.json",
        )
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["ladder"] == []

    def test_csv_ladder(self, tmp_path):
        code, text = _run(
            tmp_path,
            "compare",
            "--model",
            "gg,g",
            "--data",
            "aarset",
            "--starts",
            "2",
            "--format",
            "csv",
            name="cmp.csv",
        )
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == "model,neg_loglik,converged,lrt_stat,lrt_df,lrt_pvalue"
        assert lines[1].startswith("GG,")
        assert lines[2].startswith("G,")


class TestSample:
    def test_draws_match_exact_cdf(self, tmp_path):
        code, text = _run(
            tmp_path,
            "sample",
            "--model",
            "mcg",
            "--params",
            "a=0.8,b=1.2,c=1.5,theta=0.4,gamma=0.9",
            "--n",
            "100",
            "--seed",
            "3",
            name="s.csv",
        )
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == "value"
        values = [float(v) for v in lines[1:]]
        assert len(values) == 100
        p = McGParams(0.8, 1.2, 1.5, 0.4, 0.9)
        from mcgompertz.inference import Dataset

        _, pval = ks_test(Dataset(values=tuple(values)), lambda y: mcg_cdf(p, y))
        assert pval > 0.01

    def test_seeded_and_deterministic(self, tmp_path):
        args = ("sample", "--model", "e", "--params", "theta=2.0", "--n", "10",
                "--seed", "5")
        _, first = _run(tmp_path, *args, name="a.csv")
        _, second = _run(tmp_path, *args, name="b.csv")
        assert first == second
        _, shifted = _run(tmp_path, *args[:-1], "6", name="c.csv")
        assert shifted != first

    def test_round_trip_recovers_parameters(self, tmp_path):
        code, _ = _run(
            tmp_path,
            "sample",
            "--model",
            "g",
            "--params",
            "theta=0.5,gamma=1.0",
            "--n",
            "5000",
            "--seed",
            "11",
            name="draws.csv",
        )
        assert code == EXIT_OK
        code, text = _run(
            tmp_path,
            "fit",
            "--model",
            "g",
            "--data",
            str(tmp_path / "draws.csv"),
            "--starts",
            "0",
            name="fit.json",
        )
        assert code == EXIT_OK
        payload = json.loads(text)
        for name, truth in (("theta", 0.5), ("gamma", 1.0)):
            est = payload["estimates"][name]
            se = payload["std_errors"][name]
            assert abs(est - truth) <= 3.0 * se


class TestEval:
    def test_gompertz_hazard_column(self, tmp_path):
        code, text = _run(
            tmp_path,
            "eval",
            "--model",
            "mcg",
            "--params",
            "a=1,b=1,c=1,theta=0.7,gamma=1.3",
            "--grid-min",
            "0.1",
            "--grid-max",
            "2.0",
            "--grid-points",
            "20",
            name="grid.csv",
        )
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == "y,pdf,cdf,hazard"
        for ln in lines[1:]:
            y, _, _, h = (float(v) for v in ln.split(","))
            assert h == pytest.approx(0.7 * math.exp(1.3 * y), abs=1e-10)

    def test_exponential_base_grid(self, tmp_path):
        code, text = _run(
            tmp_path,
            "eval",
            "--model",
            "mce",
            "--params",
            "a=1,b=1,c=1,theta=2.0",
            "--format",
            "json",
            name="grid.json",
        )
        assert code == EXIT_OK
        payload = json.loads(text)
        for y, h in zip(payload["grid"], payload["hazard"]):
            assert h == pytest.approx(2.0, abs=1e-9)

    def test_bad_grid_is_input_error(self):
        assert (
            main(
                [
                    "eval",
                    "--params",
                    "a=1,b=1,c=1,theta=1,gamma=1",
                    "--grid-min",
                    "2.0",
                    "--grid-max",
                    "1.0",
                ]
            )
            == EXIT_INPUT
        )


    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--params", "a=1,b=1,c=1,theta=1,gamma=1", "--grid-max", "inf"],
            ["eval", "--params", "a=1,b=1,c=1,theta=1,gamma=1", "--grid-min=-inf"],
            ["curves", "--params", "a=1,b=0.5,theta=0.1,gamma=1", "--grid-max", "inf"],
        ],
        ids=["eval-max-inf", "eval-min-minus-inf", "curves-max-inf"],
    )
    def test_infinite_grid_bound_is_input_error(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == "error: --grid-min and --grid-max must be finite\n"


class TestCurves:
    def test_quartile_skewness_finite_over_c(self, tmp_path):
        code, text = _run(
            tmp_path,
            "curves",
            "--params",
            "a=1,b=0.5,theta=0.1,gamma=1",
            "--grid-min",
            "0.5",
            "--grid-max",
            "5.0",
            "--grid-points",
            "10",
            name="curves.csv",
        )
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == "c,measure,value,a,b,theta,gamma"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 20
        measures = {r[1] for r in rows}
        assert measures == {"bowley", "moors"}
        for r in rows:
            assert math.isfinite(float(r[2]))

    def test_missing_c_rejected(self):
        code = main(["curves", "--params", "a=1,b=1,c=2,theta=1,gamma=1"])
        assert code == EXIT_INPUT


class TestStdout:
    def test_writes_to_stdout_without_out_flag(self, capsys):
        code = main(
            [
                "eval",
                "--params",
                "a=1,b=1,c=1,theta=1,gamma=1",
                "--grid-points",
                "3",
                "--grid-min",
                "0.5",
                "--grid-max",
                "1.0",
            ]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("y,pdf,cdf,hazard")


_UNIT = "a=1,b=1,c=1,theta=1,gamma=1"
_WRITES = {
    "sample-csv": ["sample", "--params", _UNIT, "--n", "50", "--seed", "4"],
    "sample-json": ["sample", "--params", _UNIT, "--n", "50", "--seed", "4", "--format", "json"],
    "eval-csv": ["eval", "--params", _UNIT, "--grid-points", "20"],
    "eval-json": ["eval", "--params", _UNIT, "--grid-points", "20", "--format", "json"],
}


class TestOutFile:
    """`--out` writes over an existing file in place and cuts it to length."""

    @pytest.mark.parametrize("argv", _WRITES.values(), ids=_WRITES)
    def test_overwrite_gives_fresh_bytes_on_same_inode(self, argv, tmp_path):
        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        assert main(argv + ["--out", str(fresh)]) == EXIT_OK
        stale.write_bytes(b"\xff" * (fresh.stat().st_size + 4096))
        stale.chmod(0o640)
        before = stale.stat()
        assert main(argv + ["--out", str(stale)]) == EXIT_OK
        after = stale.stat()
        assert stale.read_bytes() == fresh.read_bytes()
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
        assert stat.S_IMODE(after.st_mode) == 0o640

    def test_symlink_target_is_written(self, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"\xff" * 65536)
        link.symlink_to(target)
        assert main(_WRITES["eval-csv"] + ["--out", str(link)]) == EXIT_OK
        assert link.is_symlink()
        text = target.read_text()
        assert text.startswith("y,pdf,cdf,hazard\n") and len(text.splitlines()) == 21

    def test_dev_null(self):
        assert main(_WRITES["sample-csv"] + ["--out", os.devnull]) == EXIT_OK

    def test_directory_is_input_error(self, tmp_path, capsys):
        assert main(_WRITES["sample-csv"] + ["--out", str(tmp_path)]) == EXIT_INPUT
        assert "Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", _WRITES.values(), ids=_WRITES)
    def test_never_truncates_to_zero(self, argv, tmp_path, monkeypatch):
        # opening an existing path with O_TRUNC, or in mode "w", empties the
        # file before it is written
        out = tmp_path / "out"
        out.write_bytes(b"\xff" * 65536)
        opened = []  # (path, whether the open truncates)
        real_os_open, real_open = os.open, io.open

        def os_open(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), bool(flags & os.O_TRUNC)))
            return real_os_open(path, flags, *args, **kwargs)

        def open_(file, mode="r", *args, **kwargs):
            if not isinstance(file, int):
                opened.append((os.fspath(file), "w" in mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(os, "open", os_open)
        monkeypatch.setattr(io, "open", open_)
        monkeypatch.setattr(builtins, "open", open_)
        code = main(argv + ["--out", str(out)])
        monkeypatch.undo()
        assert code == EXIT_OK
        assert (str(out), False) in opened
        assert (str(out), True) not in opened


class TestTrace:
    @pytest.mark.parametrize(
        "argv, models",
        [
            (["fit", "--model", "g"], ["G"]),
            (["gof", "--model", "gg"], ["GG", "McG"]),
            (["compare", "--model", "gg,g"], ["GG", "G"]),
        ],
        ids=["fit", "gof", "compare"],
    )
    def test_diagnostics_only_with_flag(self, argv, models, tmp_path):
        argv = argv + ["--data", "aarset", "--starts", "1"]
        code, plain = _run(tmp_path, *argv, name="plain.json")
        code_traced, traced = _run(tmp_path, *argv, "--trace", name="traced.json")
        assert code == code_traced == EXIT_OK
        assert "diagnostics" not in plain
        payload = json.loads(traced)
        diagnostics = payload.pop("diagnostics")
        assert payload == json.loads(plain)
        assert [d["model"] for d in diagnostics] == models
        for d in diagnostics:
            spec = mcgompertz.model_spec(d["model"])
            assert len(d["starts"]) == 3
            winner = d["starts"][d["winner"]]
            assert list(winner["start"]) == list(spec.free_params)
            assert winner["reason"] is None and winner["interior"] and winner["pos_def"]
            assert winner["nfev"] >= 1

        _, plain_csv = _run(tmp_path, *argv, "--format", "csv", name="plain.csv")
        _, traced_csv = _run(tmp_path, *argv, "--format", "csv", "--trace", name="traced.csv")
        assert "diagnostics" not in plain_csv
        extra = traced_csv[len(plain_csv):].splitlines()
        assert traced_csv.startswith(plain_csv)
        if argv[0] == "compare":
            # the ladder table, a blank line, then the key,value rows
            assert extra[:2] == ["", "key,value"]
            extra = extra[2:]
        assert extra[0] == f"diagnostics[0].model,{models[0]}"
        assert all(ln.startswith("diagnostics[") for ln in extra)

    def test_flag_only_on_fitting_commands(self, capsys):
        for command in ("sample", "eval", "curves"):
            assert main([command, "--params", "a=1", "--trace"]) == EXIT_INPUT
            assert "unrecognized arguments: --trace" in capsys.readouterr().err
