"""Start-up cost: what `import mcgompertz` loads, and the benchmark's view of
the fitter once `scipy.optimize` is imported on the first fit.

The package loads numpy and `scipy.special` only.  `scipy.optimize` is
imported by the first `fit_mle`, and `scipy.integrate` only where a panel
quadrature warns.  The footprint test runs in a fresh interpreter, since
this one has long since imported both.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from mcgompertz import inference
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


def test_import_footprint(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT,
         str(tmp_path / "draws.csv"), str(tmp_path / "grid.csv")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    out = json.loads(run.stdout.splitlines()[-1])
    not_loaded = {"scipy.optimize": False, "scipy.integrate": False}
    assert out["import"] == not_loaded
    assert out["sample_eval"] == not_loaded
    assert out["fit"]["scipy.optimize"]
    assert out["neg_loglik"] == pytest.approx(AARSET_G_NLL, rel=1e-12)
    assert out["estimates"] == pytest.approx(AARSET_G_ESTIMATES, rel=1e-9)


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
