"""Print a fingerprint of the package's outputs: one `name sha1` line per item,
or `name value...` for the integrals.

    python tools/fingerprint.py

The package is imported from the `src/` beside this script, so the same
script run in two checkouts tells, line by line, which outputs differ
between them.  The items are:

- `fit/<data>/<model>`: each of the 22 default fits (11 models on the
  aarset and glass data): estimates, standard errors, NLL and grad_norm as
  hex floats, the info_matrix bytes, every StartRecord, converged and the
  winner;
- `fit1/<data>/<model>`: the same for the 22 one-start fits
  (`OptimizerConfig(n_starts=0)`, the seed alone);
- `dist/<data>/<model>`: cdf_survival, hazard and reversed_hazard of that
  fit's parameters on its own sorted data;
- `dist/tails/<function>`: hazard and reversed_hazard at fixed points in
  tails the fits never reach (TAILS);
- `mcg <argv>`: stdout, stderr, exit code and `--out` bytes of a fixed
  list of CLI runs, among them runs that exit 2 on bad input; each `--out`
  file is first filled with 64 KiB of stale bytes (STALE), so the line
  covers writing over a longer file;
- `quad/<point>/<op>`: the value (and flags) of each quadrature-engine
  integral at the points QUAD_POINTS, as reprs, so a moved line shows its
  old and new value.
"""

import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from mcgompertz import cli, core, expansions, orderstats, shape  # noqa: E402
from mcgompertz.family import MODELS  # noqa: E402
from mcgompertz.inference import OptimizerConfig, fit_mle  # noqa: E402

DATASETS = ("aarset", "glass")
AARSET_MCG = "a=0.486,b=0.00803,c=39.08,theta=0.02994,gamma=0.07574"
MCE = "a=2.589,b=141.57,c=0.000336,theta=2.277"
# each run is its argv; OUT stands for a file the run writes with --out,
# which holds STALE before the run, and FIVE for a data file of FIVE_POINTS:
# five observations, too few for the 5 free parameters of mcg, so a
# sub-model's gof reports no likelihood-ratio test
OUT = "OUT"
STALE = bytes(range(256)) * 256
FIVE = "FIVE"
FIVE_POINTS = "strength\n0.55\n0.93\n1.25\n1.5\n2.24\n"
RUNS = (
    ["fit", "--model", "mcg", "--data", "aarset"],
    ["fit", "--model", "mce", "--data", "glass", "--trace"],
    ["fit", "--model", "bg", "--data", "aarset", "--format", "csv", "--out", OUT],
    ["gof", "--model", "mcg", "--data", "aarset"],
    ["gof", "--model", "kumg", "--data", "glass", "--trace", "--format", "csv"],
    ["compare", "--data", "aarset"],
    ["compare", "--data", "glass", "--format", "csv", "--trace"],
    ["eval", "--model", "mcg", "--params", AARSET_MCG, "--grid-max", "90", "--out", OUT],
    ["eval", "--model", "mce", "--params", MCE, "--grid-min", "1e-6", "--grid-max", "2",
     "--format", "json"],
    ["sample", "--model", "mcg", "--params", AARSET_MCG, "--n", "200", "--seed", "3"],
    ["sample", "--model", "mce", "--params", MCE, "--n", "200", "--format", "json", "--out", OUT],
    ["curves", "--params", "a=0.5,b=2,theta=0.1,gamma=0.5"],
    ["curves", "--params", "a=0.5,b=2,theta=0.1,gamma=0.5", "--format", "json"],
    ["compare", "--model", "mcg,bg", "--data", "aarset", "--format", "csv"],
    ["gof", "--model", "bg", "--data", FIVE],
    ["sample", "--params", "a"],
    ["fit", "--model", "nope", "--data", "aarset"],
)
# (params, y) cases per function: the survival underflowing on either side
# of G^c = 1/2 (b = 2000 and b = 50), 1 - G^c normal, subnormal and 0 in
# doubles (b = 1e-7 at w = 100, 704, 720 and 800), and the cdf underflowing
# for large a/c
TAILS = {
    "hazard": (
        (core.McGParams(1, 2000, 1, 1, 1), [0.05, 0.2, 0.4, 0.45]),
        (core.McGParams(1, 1e-7, 1, 1, 1), np.log1p([100.0, 704.0, 720.0, 800.0])),
        (core.McEParams(1, 50, 1, 1), [20.0]),
    ),
    "reversed_hazard": ((core.McEParams(1000, 1, 1, 1), [0.1, 0.3, 0.5]),),
}

# (label, parameters): the README point, the aarset and glass mcg optima, and
# a point whose integrals lie far below the engine's absolute target
# (ROADMAP item 2)
QUAD_POINTS = (
    ("readme", core.McGParams(0.5, 0.8, 2.0, 0.1, 0.5)),
    ("aarset_mcg", core.McGParams(
        0.48602506867701145, 0.008027407931889215, 39.077927764506605,
        0.029940972501835417, 0.07574424808702038)),
    ("glass_mcg", core.McGParams(
        0.4500793196655103, 0.042314322674387124, 219.49017482882707,
        7.149867624426224e-06, 8.090210587209212)),
    ("tiny", core.McGParams(
        0.0022128326672193116, 34.68829657763449, 0.008031376131796298,
        0.02055959180096699, 0.01284054871853585)),
)


def _quad_ops(p):
    """(op, callable) for each integral at p; a callable returns a float or
    a tuple of a float and its flags."""
    ops = [(f"moment{k}", lambda k=k: shape.moment_numeric(p, k)) for k in range(1, 5)]
    return ops + [
        ("mgf", lambda: shape.mgf_numeric(p, p.gamma)),
        ("shannon", lambda: shape.shannon_numeric(p)),
        ("shannon_closed", lambda: shape.shannon_closed(p)),
        ("renyi", lambda: shape.renyi_numeric(p, 0.5)),
        ("os_moment", lambda: orderstats.os_moment(p, orderstats.OrderSpec(2, 5), 1)),
        ("mgf_series", lambda: expansions.mgf_series(p, p.gamma)),
    ]


def _exact(v):
    """v with every float as its hex string, for hashing by repr."""
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    if isinstance(v, dict):
        return {k: _exact(x) for k, x in v.items()}
    if isinstance(v, (tuple, list)):
        return [_exact(x) for x in v]
    if dataclasses.is_dataclass(v):
        return [_exact(getattr(v, f.name)) for f in dataclasses.fields(v)]
    return v


def _sha(*parts):
    h = hashlib.sha1()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _outcome(fn, p, y):
    """fn(p, y) as bytes, or the message of the ValueError it raises."""
    try:
        return np.asarray(fn(p, y)).tobytes()
    except ValueError as exc:
        return str(exc)


def _fit_sha(fit):
    return _sha(
        _exact((fit.estimates, fit.std_errors, fit.neg_loglik, fit.grad_norm)),
        np.ascontiguousarray(fit.info_matrix).tobytes(),
        _exact(fit.trace),
        fit.converged,
        fit.winner,
    )


def _fit_lines(name, data):
    fit = fit_mle(name, data)
    yield f"fit/{data.label}/{name}", _fit_sha(fit)
    p, y = fit.params, np.sort(data.array)
    yield f"dist/{data.label}/{name}", _sha(
        np.stack(core.cdf_survival(p, y)).tobytes(),
        *(_outcome(fn, p, y) for fn in (core.hazard, core.reversed_hazard)),
    )


def _run_line(argv, tmp):
    out_path = Path(tmp) / "out"
    if OUT in argv:
        out_path.write_bytes(STALE)
    stand_ins = {OUT: str(out_path), FIVE: str(Path(tmp) / "five.csv")}
    argv = [stand_ins.get(a, a) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    written = out_path.read_bytes() if out_path.exists() else b""
    out_path.unlink(missing_ok=True)
    shown = " ".join({v: k for k, v in stand_ins.items()}.get(a, a) for a in argv)
    return f"mcg {shown}", _sha(stdout.getvalue(), stderr.getvalue(), code, written)


def main():
    for label in DATASETS:
        data = cli._read_dataset(label)
        for name in MODELS:
            for line in _fit_lines(name, data):
                print(*line)
    for label in DATASETS:
        data = cli._read_dataset(label)
        for name in MODELS:
            fit = fit_mle(name, data, OptimizerConfig(n_starts=0))
            print(f"fit1/{label}/{name}", _fit_sha(fit))
    for name, cases in TAILS.items():
        fn = getattr(core, name)
        print(f"dist/tails/{name}", _sha(*(_outcome(fn, p, y) for p, y in cases)))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "five.csv").write_text(FIVE_POINTS, encoding="utf-8")
        for argv in RUNS:
            print(*_run_line(argv, tmp))
    for label, p in QUAD_POINTS:
        for op, fn in _quad_ops(p):
            out = fn()
            print(f"quad/{label}/{op}", *map(repr, out if isinstance(out, tuple) else (out,)))


if __name__ == "__main__":
    main()
