"""Benchmark runner for mcgompertz.

    python3 perfbench/run.py --workload casestudy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke            # each workload once, tiny, checks only

Run from the root of a source checkout; the library is imported from ./src.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
(see NOTES.md).  A table with every figure, its unit and sample count, and the
failed/attempted counts is printed first; the last line is one JSON object
with keys correct, attempted, failed and metrics.  A record of the run,
with library versions, git SHA and nproc, goes to .perfbench/results/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# one thread for every numeric library, set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 5  # timed fresh-interpreter set-ups per run, after one untimed

# Times the set-up, then the calibration kernel in the same fresh process.
SETUP_PROBE = """
import time
t0 = time.perf_counter()
import mcgompertz
import inputs
inputs.load_datasets()
setup = time.perf_counter() - t0
import workloads
print(setup, workloads.kernel_seconds(3))
"""

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}
TABLE_UNITS = dict(END_TO_END_UNITS, op_ms_p90="ms", pass_wall_s="s", setup_wall_s="s", kernel_ms="ms", fits_per_s="1/s",
                   draws_per_s="1/s", evals_per_s="1/s", integrals_per_s="1/s")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("casestudy", "simulate", "quadrature"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run each workload (or --workload) once at a tiny size; "
                         "exit 0 iff every correctness check passes")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    return args


def setup_times(runs, cal_seconds):
    """Time for a fresh interpreter to import mcgompertz and load both
    built-in datasets, as (wall, scaled) lists; the first run is untimed
    (bytecode cache).  Each probe is scaled by the calibration kernel run in
    the same process right after it (median of three)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, BENCH]))
    wall, scaled = [], []
    for i in range(runs + 1):
        res = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        setup, kernel = (float(v) for v in res.stdout.split()[-2:])
        if i:
            wall.append(setup)
            scaled.append(setup * cal_seconds / kernel)
    return wall, scaled


def git_sha():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def environment():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def print_failures(tally):
    for kind, (attempted, failed) in sorted(tally.by_kind().items()):
        print(f"failures  {kind:<10} {failed}/{attempted}")
    if tally.known:
        print(f"failures  of which {tally.known} from documented known defects (NOTES.md)")
    for problem in tally.problems[:20]:
        print(f"UNEXPECTED {problem}")


def smoke(args):
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    ok = True
    for name in names:
        wl = make_workload(workloads, name, args.seed, smoke=True)
        tally = wl.check(workloads.run_pass(wl).outputs)
        print(f"smoke {name}: {'ok' if not tally.problems else 'FAILED'}")
        print_failures(tally)
        ok = ok and not tally.problems
    return 0 if ok else 1


def make_workload(workloads, name, seed, smoke=False):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.Simulate:
        return cls(seed, smoke, out_dir=os.path.join(OUT, "tmp"))
    return cls(seed, smoke)


def measure(args):
    """Untraced run: set-up probes, one warm-up, then whole passes until
    --seconds have elapsed (at least one, and at least the workload's
    min_passes).  Every pass is checked; work that passes repeat is counted
    once (see Tally.fold)."""
    import workloads

    setup_wall, setups = setup_times(SETUP_RUNS, workloads.CAL_SECONDS)
    wl = make_workload(workloads, args.workload, args.seed)
    wl.warmup()
    passes = []
    tally = None
    t_end = time.perf_counter() + args.seconds
    while len(passes) < wl.min_passes or time.perf_counter() < t_end:
        passes.append(workloads.run_pass(wl))
        checked = wl.check(passes[-1].outputs)
        if tally is None:
            tally = checked
        else:
            tally.fold(checked, f"pass {len(passes)}")
        passes[-1].outputs = None  # keep memory flat across passes
    figures = workloads.summarize(wl, passes)
    figures["setup_s"] = statistics.median(setups)
    figures["setup_wall_s"] = statistics.median(setup_wall)
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"setup_s": len(setups), "setup_wall_s": len(setups), "op_ms_p50": figures["ops"],
               "op_ms_p90": figures["op_samples"], "peak_rss_mb": 1,
               "kernel_ms": figures["kernel_runs"]}
    for name, unit in TABLE_UNITS.items():
        if name in figures:
            n = samples.get(name, figures["passes"])
            print(f"metric    {name:<16} {figures[name]:>14.6g} {unit:<5} n={n}")
    metrics = {k: {"value": figures[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return tally, metrics, dict(figures, setup_runs_s=setup_wall, setup_runs_scaled_s=setups,
                                op_labels=[op.label for op in wl.ops],
                                passes_op_wall_s=[p.op_wall for p in passes],
                                passes_kernel_s=[p.kernel for p in passes])


def measure_traced(args):
    """Traced run: one untraced pass, one traced pass plus the layer probe."""
    import tracing
    import workloads
    from inputs import load_datasets

    wl = make_workload(workloads, args.workload, args.seed)
    data = load_datasets()
    wl.warmup()
    untraced = workloads.run_pass(wl, sample_during_ops=False)
    tally = wl.check(untraced.outputs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.phase = "pass"
        traced = workloads.run_pass(wl, sample_during_ops=False)
        pass_end = len(tracer.name_id)
        tracer.phase = "probe"
        workloads.layer_probe(data, os.path.join(OUT, "tmp"))
        tracer.phase = None
    finally:
        tracer.uninstall()
    layer = tracer.metrics(pass_end)
    layer.update(workloads.call_costs(data))
    layer["trace.overhead_ratio"] = traced.seconds / untraced.seconds
    tracer.write(os.path.join(OUT, f"spans-{args.workload}.tsv.gz"))
    tally.fold(wl.check(traced.outputs), "traced pass")
    for name, value in layer.items():
        print(f"layer     {name:<40} {value:>14.6g} {tracing.unit(name)}")
    print(f"spans     {len(tracer.name_id)} written to .perfbench/spans-{args.workload}.tsv.gz")
    metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in layer.items()}
    return tally, metrics, dict(layer, untraced_pass_wall_s=untraced.wall_seconds,
                                traced_pass_wall_s=traced.wall_seconds)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mcgompertz", "__init__.py")):
        print(f"error: no mcgompertz sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH]
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    if args.smoke:
        return smoke(args)

    env = environment()
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
          + " threads=1")
    tally, metrics, record = (measure_traced if args.trace else measure)(args)
    print_failures(tally)
    counts = tally.by_kind().values()
    result = {
        "correct": not tally.problems,
        "attempted": sum(a for a, _ in counts),
        "failed": sum(f for _, f in counts),
        "metrics": metrics,
    }
    record.update(env=env, args=vars(args), result=result,
                  failures={f"{k}@{label}": v for (k, label), v in tally.counts.items()},
                  problems=tally.problems)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "results", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
