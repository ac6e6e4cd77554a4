"""Command-line front end.

Six subcommands: `fit` estimates a model from a data file, `gof` adds the
goodness-of-fit column for it, `compare` runs the nested likelihood-ratio
ladder, `sample` draws from a parameterized model, `eval` tabulates pdf,
cdf, and hazard on a grid, and `curves` tabulates quantile-based shape
measures as functions of c.

Input data files hold one numeric value per line with an optional single
header line.  JSON output carries floats at 17 significant digits and a
top-level schema_version; all outputs are byte-identical for identical
configurations.  Exit codes: 0 success, 2 input error, 3 fit did not
converge (the result is still written), 4 internal numeric failure.
"""

import argparse
import dataclasses
import functools
import importlib.resources
import json
import math
import os
import stat
import sys

import numpy as np

from . import core
from .family import make_submodel, model_spec
from .inference import Dataset, OptimizerConfig, fit_mle
from .selection import gof_report, lrt
from .shape import curves_to_csv, shape_curves

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NUMERIC = 4

_BUILTIN_DATA = {
    "aarset": "aarset_devices.csv",
    "glass": "glass_fibers.csv",
}

_KS_CAVEAT = (
    "parameters were estimated from the same data; the asymptotic "
    "Kolmogorov law is used without a finite-sample correction"
)


class InputError(ValueError):
    """Unusable user input: missing file, bad value, unknown model."""


def _fmt_floats(values):
    """Each float with 17 significant digits, kept a JSON float by ".0"."""
    return [
        s if "." in s or "e" in s or "n" in s else s + ".0"
        for s in map("{:.17g}".format, np.asarray(values, dtype=float).tolist())
    ]


def _fmt_float(v):
    """`_fmt_floats` of one float."""
    return _fmt_floats([v])[0]


def _json_text(obj, indent=0):
    """Deterministic JSON with insertion-ordered keys and .17g floats;
    a numpy array is written as a list of floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{inner}"{k}": {_json_text(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        # a float column: one pass, non-finite values as null like scalars
        texts = [
            "null" if t in ("inf", "-inf", "nan") else t for t in _fmt_floats(obj)
        ]
    elif isinstance(obj, (list, tuple)):
        texts = [_json_text(v, indent + 1) for v in obj]
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not texts:
        return "[]"
    return "[\n" + ",\n".join(inner + t for t in texts) + "\n" + pad + "]"


def _write_output(ns, text):
    """Write `text` to stdout, or over the `--out` file in place.

    The file is written from its first byte and then cut to the new
    length, never truncated to zero first: on ext4 (`auto_da_alloc`)
    closing a file that was truncated to zero flushes it to disk, which
    made each rewrite cost tens of milliseconds.  The inode, mode and
    symlink target stay as `open(path, "w")` leaves them; a device or
    pipe is written and not cut.
    """
    if not ns.output_path:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    with open(os.open(ns.output_path, flags, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(len(data))


def _read_dataset(path):
    """Load one numeric per line; a single leading header line is skipped."""
    if path in _BUILTIN_DATA:
        ref = importlib.resources.files("mcgompertz.data") / _BUILTIN_DATA[path]
        raw = ref.read_text(encoding="utf-8")
        label = path
    else:
        if not os.path.exists(path):
            raise InputError(f"data file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        label = os.path.basename(path)
    lines = [ln.strip() for ln in raw.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise InputError(f"no data in {path}")
    start = 0
    try:
        float(lines[0])
    except ValueError:
        start = 1
    values = []
    for ln in lines[start:]:
        try:
            values.append(float(ln))
        except ValueError:
            raise InputError(f"unparseable data line in {path}: {ln!r}")
    if not values:
        raise InputError(f"no numeric values in {path}")
    try:
        return Dataset(values=tuple(values), label=label)
    except ValueError as exc:
        raise InputError(str(exc))


def _parse_params(text):
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise InputError(f"bad parameter assignment: {piece!r}")
        key, _, val = piece.partition("=")
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise InputError(f"bad parameter value: {piece!r}")
    if not out:
        raise InputError("empty --params")
    return out


def _fit_inputs(ns, names):
    """The data set, the model specs and the optimizer settings of a
    fitting command, checked in that order."""
    data = _read_dataset(ns.data_path)
    if not names:
        raise InputError("compare needs at least one model name")
    specs = [model_spec(name) for name in names]
    opt = OptimizerConfig(max_iter=ns.max_iter, n_starts=ns.starts, seed=ns.seed)
    return data, specs, opt


def _estimates(fit):
    return {k: float(v) for k, v in fit.estimates.items()}


def _std_errors(fit):
    if fit.std_errors is None:
        return None
    return {k: float(v) for k, v in fit.std_errors.items()}


def _fit_payload(fit, data, opt):
    return {
        "model": fit.model.name,
        "data": data.label,
        "n_obs": data.n,
        "estimates": _estimates(fit),
        "std_errors": _std_errors(fit),
        "neg_loglik": float(fit.neg_loglik),
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
        "grad_norm": float(fit.grad_norm),
        "optimizer": {
            "n_starts": opt.n_starts,
            "max_iter": opt.max_iter,
            "seed": opt.seed,
        },
    }


def _cell(v):
    """One CSV cell: bools lowercase, floats at 17 digits, None empty."""
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, bool):
        return str(v).lower()
    return "" if v is None else str(v)


def _csv(header, columns):
    """CSV text with one line per row of the equal-length `columns`.

    A float ndarray column renders in one pass; other columns cell by cell.
    """
    rows = zip(
        *(
            _fmt_floats(col) if isinstance(col, np.ndarray) else map(_cell, col)
            for col in columns
        )
    )
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def _kv_csv(payload):
    """Flatten a nested payload to key,value CSV rows."""
    keys, values = [], []

    def emit(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                emit(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                emit(f"{prefix}[{i}]", v)
        else:
            keys.append(prefix)
            values.append(obj)

    emit("", payload)
    return _csv(("key", "value"), (keys, values))


def _emit(ns, body, default_fmt="json", table=None):
    """Write the command's payload, the schema_version and command name
    followed by `body`, as JSON, or as CSV: `table()` where the command has
    a table, else key,value rows.  Only the text written is built."""
    payload = {"schema_version": 1, "command": ns.command, **body}
    fmt = ns.fmt or default_fmt
    if fmt == "json":
        _write_output(ns, _json_text(payload) + "\n")
    elif table is not None:
        _write_output(ns, table())
    else:
        _write_output(ns, _kv_csv(payload))


def _diagnostics(fits):
    """Each fit's per-start optimizer trace and the index of its winner."""
    return [
        {
            "model": fit.model.name,
            "winner": fit.winner,
            "starts": [
                {
                    **dataclasses.asdict(record),
                    "start": dict(zip(fit.model.free_params, record.start)),
                }
                for record in fit.trace
            ],
        }
        for fit in fits
    ]


def _emit_fits(ns, body, fits, table=None):
    """`_emit` for a fitting command, with each fit's optimizer trace added
    to `body` under `diagnostics` when --trace is given; EXIT_OK only when
    every fit converged."""
    if ns.trace:
        body["diagnostics"] = _diagnostics(fits)
    _emit(ns, body, table=table)
    return EXIT_OK if all(fit.converged for fit in fits) else EXIT_NO_CONVERGENCE


def cmd_fit(ns):
    data, (spec,), opt = _fit_inputs(ns, [ns.model])
    fit = fit_mle(spec, data, opt)
    return _emit_fits(ns, _fit_payload(fit, data, opt), [fit])


def cmd_gof(ns):
    data, (spec,), opt = _fit_inputs(ns, [ns.model])
    fit = fit_mle(spec, data, opt)
    full_spec = model_spec("mcg")
    full_fit = lrt_note = None
    if spec.constraints:
        k = full_spec.free_count
        if data.n > k:
            full_fit = fit_mle(full_spec, data, opt)
        else:
            # the sub-model's own fit stands; only the likelihood-ratio line
            # needs the full model
            lrt_note = (
                f"no likelihood-ratio test: {full_spec.name} has {k} free "
                f"parameters and needs more than {k} observations; the data have {data.n}"
            )
    report = gof_report(fit, data, full_fit=full_fit)
    body = {
        **report.to_dict(),
        "estimates": _estimates(fit),
        "std_errors": _std_errors(fit),
        "metadata": {
            "data": data.label,
            "converged": bool(fit.converged),
            "ks_pvalue_method": "asymptotic-kolmogorov",
            "ks_caveat": _KS_CAVEAT,
        },
    }
    if lrt_note is not None:
        body["metadata"]["lrt_note"] = lrt_note
    return _emit_fits(ns, body, [f for f in (fit, full_fit) if f is not None])


def cmd_compare(ns):
    names = [n.strip() for n in ns.model.split(",") if n.strip()]
    data, (full_spec, *nested_specs), opt = _fit_inputs(ns, names)
    full = fit_mle(full_spec, data, opt)
    ladder = []
    fits = [full]
    for spec in nested_specs:
        sub = fit_mle(spec, data, opt)
        fits.append(sub)
        stat, df, pval = lrt(full, sub)
        ladder.append(
            {
                "model": spec.name,
                "neg_loglik": float(sub.neg_loglik),
                "converged": bool(sub.converged),
                "lrt_stat": float(stat),
                "lrt_df": int(df),
                "lrt_pvalue": float(pval),
            }
        )
    body = {
        "data": data.label,
        "n_obs": data.n,
        "full": {
            "model": full_spec.name,
            "neg_loglik": float(full.neg_loglik),
            "converged": bool(full.converged),
            "estimates": _estimates(full),
        },
        "ladder": ladder,
    }

    def table():
        header = ("model", "neg_loglik", "converged", "lrt_stat", "lrt_df", "lrt_pvalue")
        rows = [body["full"], *ladder]
        text = _csv(header, [[row.get(col) for row in rows] for col in header])
        if ns.trace:
            # the CSV ladder is followed, after a blank line, by the key,value
            # rows of the diagnostics, which `_emit_fits` adds before this runs
            text += "\n" + _kv_csv({"diagnostics": body["diagnostics"]})
        return text

    return _emit_fits(ns, body, fits, table=table)


def cmd_sample(ns):
    mapping = _parse_params(ns.params)
    if ns.n < 1:
        raise InputError("--n must be a positive integer")
    spec = model_spec(ns.model)
    values = np.asarray(core.sample(make_submodel(ns.model, mapping), ns.n, ns.seed))
    body = {
        "model": spec.name,
        "n": ns.n,
        "seed": ns.seed,
        "values": values,
    }
    table = functools.partial(_csv, ("value",), [values])
    _emit(ns, body, default_fmt="csv", table=table)
    return EXIT_OK


def _grid(ns):
    if ns.grid_points < 2:
        raise InputError("--grid-points must be at least 2")
    if not (math.isfinite(ns.grid_min) and math.isfinite(ns.grid_max)):
        raise InputError("--grid-min and --grid-max must be finite")
    if not (0.0 < ns.grid_min < ns.grid_max):
        raise InputError("need 0 < --grid-min < --grid-max")
    return np.linspace(ns.grid_min, ns.grid_max, ns.grid_points)


def cmd_eval(ns):
    mapping = _parse_params(ns.params)
    spec = model_spec(ns.model)
    params = make_submodel(ns.model, mapping)
    ys = _grid(ns)
    body = {
        "model": spec.name,
        "grid": ys,
        "pdf": np.asarray(core.pdf(params, ys)),
        "cdf": np.asarray(core.cdf(params, ys)),
        "hazard": np.asarray(core.hazard(params, ys)),
    }
    columns = [body[k] for k in ("grid", "pdf", "cdf", "hazard")]
    table = functools.partial(_csv, ("y", "pdf", "cdf", "hazard"), columns)
    _emit(ns, body, default_fmt="csv", table=table)
    return EXIT_OK


def cmd_curves(ns):
    mapping = _parse_params(ns.params)
    expected = {"a", "b", "theta", "gamma"}
    if set(mapping) != expected:
        raise InputError(
            "curves needs --params with exactly a, b, theta, gamma "
            "(c comes from the grid)"
        )
    if any(v <= 0.0 or not math.isfinite(v) for v in mapping.values()):
        raise InputError("curve parameters must be positive and finite")
    c_grid = _grid(ns)
    rows = []
    for measure in ("bowley", "moors"):
        rows.extend(
            shape_curves(
                measure,
                c_grid,
                mapping["a"],
                mapping["b"],
                mapping["theta"],
                mapping["gamma"],
            )
        )
    _emit(ns, {"rows": rows}, default_fmt="csv", table=functools.partial(curves_to_csv, rows))
    return EXIT_OK


_COMMANDS = {
    "fit": cmd_fit,
    "gof": cmd_gof,
    "compare": cmd_compare,
    "sample": cmd_sample,
    "eval": cmd_eval,
    "curves": cmd_curves,
}


@functools.cache
def _build_parser():
    """The argument parser, built on the first `main` call and then reused."""
    parser = argparse.ArgumentParser(
        prog="mcg",
        description="Generalized Gompertz family: fitting, comparison, tabulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def fit_flags(p, default_model="mcg"):
        p.add_argument("--model", default=default_model)
        p.add_argument("--data", required=True, dest="data_path")
        p.add_argument(
            "--starts",
            type=int,
            default=OptimizerConfig.n_starts,
            metavar="N",
            help="perturbed starts at each of two lattice scales, so 2N+1 "
            "starts with the seed point (default N = %(default)s)",
        )
        p.add_argument(
            "--max-iter",
            type=int,
            default=OptimizerConfig.max_iter,
            help="Newton iterations per start (default %(default)s)",
        )
        p.add_argument(
            "--trace",
            action="store_true",
            help="add each fit's per-start optimizer trace under a "
            "diagnostics key",
        )

    def common_flags(p):
        p.add_argument("--out", default="", dest="output_path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv"), default="", dest="fmt")

    def grid_flags(p, lo, hi, n):
        p.add_argument("--grid-min", type=float, default=lo)
        p.add_argument("--grid-max", type=float, default=hi)
        p.add_argument("--grid-points", type=int, default=n)

    p = sub.add_parser("fit", help="maximum-likelihood fit")
    fit_flags(p)
    common_flags(p)

    p = sub.add_parser("gof", help="goodness-of-fit column for one model")
    fit_flags(p)
    common_flags(p)

    p = sub.add_parser("compare", help="nested likelihood-ratio ladder")
    fit_flags(p, default_model="mcg,bg,kumg,mce")
    common_flags(p)

    p = sub.add_parser("sample", help="draw from a parameterized model")
    p.add_argument("--model", default="mcg")
    p.add_argument("--params", required=True)
    p.add_argument("--n", type=int, default=100)
    common_flags(p)

    p = sub.add_parser("eval", help="tabulate pdf, cdf, hazard on a grid")
    p.add_argument("--model", default="mcg")
    p.add_argument("--params", required=True)
    grid_flags(p, 0.05, 5.0, 101)
    common_flags(p)

    p = sub.add_parser("curves", help="shape measures as functions of c")
    p.add_argument("--params", required=True)
    grid_flags(p, 0.5, 5.0, 10)
    common_flags(p)

    return parser


def main(argv=None):
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_INPUT
    try:
        return _COMMANDS[ns.command](ns)
    # LinAlgError subclasses ValueError, so the numeric arm comes first
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
