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
  old and new value;
- `inv/inc_beta_inv_log`: both logs of the inverse incomplete beta over a
  seeded grid of shape pairs and levels (`_inv_lines`);
- `inv/sample/<point>`: 1,000 draws of `sample` at each point of the
  benchmark's parameter panel (SAMPLE_POINTS);
- `pass/<model>`: the five arrays of the fit's derivative pass
  (`inference._log_space_derivs`), under the fit driver's errstate, on
  both data sets over blocks of log-parameter rows (`_pass_lines`).
"""

import contextlib
import dataclasses
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from mcgompertz import cli, core, expansions, inference, orderstats, shape, specfun  # noqa: E402
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

# the benchmark's parameter panel: the first three points above and the
# aarset McE optimum
SAMPLE_POINTS = QUAD_POINTS[:3] + (
    ("aarset_mce", core.McEParams(
        1.5459549956237353, 0.01547702642987936, 20.182691849005597, 1.2381119128617442)),
)


def _inv_lines():
    """The `inv/` lines.  The inverse's grid is 200 shape pairs from
    e^U(-9, 9) and 200 from e^U(-30, 30), seeded, at 42 levels from 1e-300
    to 1 - 1e-15: it reaches scipy's inverses, the deep starts taken as they
    stand and the deep Newton solve."""
    rng = np.random.default_rng(32)
    shapes = np.exp(np.concatenate([rng.uniform(-9.0, 9.0, (200, 2)),
                                    rng.uniform(-30.0, 30.0, (200, 2))]))
    levels = np.concatenate([np.geomspace(1e-300, 0.1, 30), np.linspace(0.2, 0.8, 4),
                             1.0 - np.geomspace(1e-2, 1e-15, 8)])
    yield "inv/inc_beta_inv_log", _sha(
        *(np.stack(specfun.inc_beta_inv_log(levels, a, b)).tobytes() for a, b in shapes))
    for label, p in SAMPLE_POINTS:
        yield f"inv/sample/{label}", _sha(core.sample(p, 1000, 42).tobytes())


def _pass_blocks(spec, y, rng):
    """The blocks of free log-parameter rows one `pass/` line runs: S = 1, 7
    and 17 rows drawn from N(0, 6^2); 11 rows on the b-ridge, ln b from 20
    to 30 with the other coordinates at the seed; 9 rows whose rates put
    w(y) past 700 at some or all of the data (the rate seed shifted by
    ln 4 to ln 24); and 7 drawn rows among which two hold a shape at
    ln p = 720, whose a/c or b is then out of range and takes the +inf
    path."""
    free = spec.free_params
    k = len(free)
    seed = inference._seed_values(spec, y)
    x0 = np.log([seed[f] for f in free])
    blocks = [rng.normal(0.0, 6.0, (S, k)) for S in (1, 7, 17)]
    if "b" in free:
        ridge = np.tile(x0, (11, 1))
        ridge[:, free.index("b")] = np.linspace(20.0, 30.0, 11)
        blocks.append(ridge)
    deep = np.tile(x0, (9, 1))
    deep[:, free.index("theta")] += np.linspace(math.log(4.0), 24.0, 9)
    blocks.append(deep)
    shape = [j for j, f in enumerate(free) if f in ("a", "b", "c")]
    if shape:
        mixed = rng.normal(0.0, 6.0, (7, k))
        mixed[1, shape[0]] = mixed[4, shape[-1]] = 720.0
        blocks.append(mixed)
    return blocks


def _pass_lines():
    """The `pass/` lines, one per model over both data sets."""
    data = [cli._read_dataset(label).array for label in DATASETS]
    for name in MODELS:
        spec = inference._spec(name)
        J = inference._embedding(spec)
        J = None if np.array_equal(J, np.eye(spec.free_count)) else J
        rng = np.random.default_rng(34)
        parts = []
        with np.errstate(all="ignore"):
            for y in data:
                for x in _pass_blocks(spec, y, rng):
                    parts.extend(v.tobytes() for v in inference._log_space_derivs(spec, J, y, x))
        yield f"pass/{name}", _sha(*parts)


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
    for line in _inv_lines():
        print(*line)
    for line in _pass_lines():
        print(*line)


if __name__ == "__main__":
    main()
