"""Start-up cost: what `import mcgompertz` and a fit load, and the
benchmark's view of the fitter and of the quantile inverse.

The package loads numpy and `scipy.special` only, and a fit loads nothing
more, since the fitter's minimizers are the library's own: no process
imports `scipy.optimize`, and `scipy.integrate` is imported only where a
panel quadrature warns.  The footprint tests run in a fresh interpreter,
since this one has long since imported both.
"""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from mcgompertz import core, inference, shape
from mcgompertz.cli import _read_dataset
from mcgompertz.inference import OptimizerConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the one-start Gompertz fit to the device data (n_starts = 0)
AARSET_G_NLL = 235.33082850436313
AARSET_G_ESTIMATES = {"theta": 0.009715277545317471, "gamma": 0.020300290192459134}

FOOTPRINT_SCRIPT = """
import json, sys
import mcgompertz, mcgompertz.cli
from mcgompertz import cli

def lazy():
    return {m: m in sys.modules for m in ("scipy.optimize", "scipy.integrate")}

out = {"import": lazy()}
assert cli.main(["sample", "--model", "g", "--params", "theta=0.1,gamma=0.5",
                 "--n", "20", "--seed", "3", "--out", sys.argv[1]]) == 0
assert cli.main(["eval", "--params", "a=0.5,b=0.8,c=2,theta=0.1,gamma=0.5",
                 "--grid-points", "11", "--out", sys.argv[2]]) == 0
out["sample_eval"] = lazy()
fit = mcgompertz.fit_mle("g", cli._read_dataset("aarset"),
                         mcgompertz.OptimizerConfig(n_starts=0))
out["fit"] = lazy()
out["neg_loglik"] = fit.neg_loglik
out["estimates"] = fit.estimates
print(json.dumps(out))
"""


def _fresh(script, *argv, path=()):
    """Run `script` in a fresh interpreter with src/ and the directories
    `path` on its import path; the JSON of its last line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((os.path.join(ROOT, "src"),) + path))
    run = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    return json.loads(run.stdout.splitlines()[-1])


def test_import_footprint(tmp_path):
    out = _fresh(FOOTPRINT_SCRIPT, str(tmp_path / "draws.csv"), str(tmp_path / "grid.csv"))
    not_loaded = {"scipy.optimize": False, "scipy.integrate": False}
    assert out["import"] == not_loaded
    assert out["sample_eval"] == not_loaded
    assert out["fit"] == not_loaded
    assert out["neg_loglik"] == pytest.approx(AARSET_G_NLL, rel=1e-12)
    assert out["estimates"] == pytest.approx(AARSET_G_ESTIMATES, rel=1e-9)


FIT_COMMANDS_SCRIPT = """
import json, sys
from mcgompertz import cli

out = {}
for argv in (["fit", "--model", "mcg", "--data", "aarset"],
             ["gof", "--model", "bg", "--data", "aarset"],
             ["compare", "--model", "mcg,bg,g", "--data", "glass"]):
    out[argv[0]] = cli.main(argv + ["--starts", "1", "--out", sys.argv[1]])
out["subpackages"] = sorted(
    name for name, module in sys.modules.items()
    if name.startswith("scipy.") and name.count(".") == 1
    and not name.split(".")[1].startswith("_") and hasattr(module, "__path__"))
print(json.dumps(out))
"""


def test_fitting_commands_load_only_scipy_special(tmp_path):
    # fit, gof and compare run through cli.main in a fresh interpreter:
    # the only scipy subpackage they load is the special functions
    out = _fresh(FIT_COMMANDS_SCRIPT, str(tmp_path / "out.json"))
    assert (out["fit"], out["gof"], out["compare"]) == (0, 0, 0)
    assert out["subpackages"] == ["scipy.special"]


def _load_tracing():
    """perfbench/tracing.py as a private module, the way the benchmark's
    traced run uses it (it imports the library itself)."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_the_optimizer():
    # the tracer keys spans by name: a `minimize` defined in a traced
    # module would share the optimizer's span and leave its layer empty
    tracing = _load_tracing()
    untraced = inference.minimize
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.phase = "pass"
        inference.fit_mle("g", _read_dataset("aarset"), OptimizerConfig(n_starts=0))
        tracer.phase = None
    finally:
        tracer.uninstall()
    assert inference.minimize is untraced
    metrics = tracer.metrics(len(tracer.name_id))
    assert metrics["inference.minimize.self_s"] > 0.0
    assert metrics["inference.nfev_per_fit"] > 0.0


TRACED_FIT_SCRIPT = """
import json
import tracing
from mcgompertz import inference
from mcgompertz.cli import _read_dataset

def summary(fit):
    return (fit.estimates, fit.std_errors, fit.neg_loglik, fit.info_matrix.tobytes(),
            fit.trace, fit.winner)

data = _read_dataset("aarset")
untraced = summary(inference.fit_mle("bg", data))
tracer = tracing.Tracer()
tracer.install()
try:
    tracer.phase = "pass"
    fit = inference.fit_mle("bg", data)
    tracer.phase = None
finally:
    tracer.uninstall()
metrics = tracer.metrics(len(tracer.name_id))
spans = {(tracer.names[i], tracer.layers[i]) for i in set(tracer.name_id)}
print(json.dumps({
    "same_fit": summary(fit) == untraced,
    "nfev_counted": tracer.counts["pass"]["nfev"],
    "nfev_traced": sum(r.nfev for r in fit.trace),
    "minimize_span": ("inference.minimize", "minimize") in spans,
    "minimize_self_s": metrics["inference.minimize.self_s"],
}))
"""


def test_traced_fit_in_a_fresh_interpreter():
    # the benchmark's traced run imports `tracing` from perfbench/; traced,
    # a fit is unchanged, its minimize call has a span of its own, and the
    # tracer counts every evaluation the fit's trace records
    out = _fresh(TRACED_FIT_SCRIPT, path=(os.path.join(ROOT, "perfbench"),))
    assert out["same_fit"]
    assert out["nfev_counted"] == out["nfev_traced"] == 252
    assert out["minimize_span"]
    assert out["minimize_self_s"] > 0.0


def test_tracer_sees_the_inverse():
    # the inverse's layer metrics read spans named specfun.inc_beta_inv_log
    # and the incomplete-beta evaluations under them: quantile and a shape
    # curve must reach the inverse, and its deep solve the log-argument
    # incomplete beta, through their public names
    tracing = _load_tracing()
    glass = core.McGParams(0.4500793196655103, 0.042314322674387124, 219.49017482882707,
                           7.149867624426224e-06, 8.090210587209212)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.phase = "pass"
        core.quantile(glass, np.array([1e-9, 0.5, 1.0 - 1e-10]))
        shape.shape_curves("moors", [0.5, 1.0, 2.0], 0.5, 0.8, 0.1, 0.5)
        tracer.phase = None
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(len(tracer.name_id))
    assert metrics["specfun.inc_beta_inv_log.ns_per_point"] > 0.0
    assert metrics["specfun.inc_beta_reg.points_per_draw"] > 0.0
    # one inverse call per quantile call, the curve grid included
    calls = Counter(tracer.names[nid] for nid in tracer.name_id)
    assert calls["core.quantile"] == calls["specfun.inc_beta_inv_log"] == 2
