"""The benchmark workloads: casestudy, simulate and quadrature.

A workload is a fixed list of ops built from the seed.  One pass runs every op
once and times each; `check` then verifies the pass's outputs (untimed) and
tallies attempted and failed units of work.  Library functions are looked up
through their modules at call time, so the per-layer tracer sees every call.
NOTES.md says why each workload exists and which layers it loads.
"""

import math
import os
import random
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import mcgompertz
from mcgompertz import cli, core, expansions, family, inference, orderstats, selection, shape

from inputs import EVAL_GRID, NLL_TOL, PANEL, QUAD_REF, QUAD_RTOL, REF_NLL, load_datasets

ROUNDTRIP_TOL = 1e-8  # core.quantile's documented bound |cdf(Q(t)) - t|
NESTED = ("bg", "kumg", "mce")
# Known defect (NOTES.md, "Known defects"): the inverse incomplete beta
# returns ln V = -0 in the deep upper tail when b is tiny, so the quantile is
# inf there or misses the round trip.  A failed draw is put down to it only
# inside the tail where it was measured (1 - u up to 1.7e-3 at aarset_mcg and
# 8.5e-6 at aarset_mce over 2e6 draws each), and a round-trip miss only up to
# TAIL_MISS_MAX (8.5e-6 measured).  Any other failed draw is unexpected.
KNOWN_TAIL = {"aarset_mcg": 2e-3, "aarset_mce": 1e-5}  # largest 1 - u that may fail
TAIL_MISS_MAX = 1e-5


def panel_params(model, values):
    if model == "mce":
        return family.McEParams(*values)
    return core.McGParams(*values)


def params_text(model, values):
    names = ("a", "b", "c", "theta", "gamma")[:len(values)]
    return ",".join(f"{k}={v!r}" for k, v in zip(names, values))


@dataclass
class Op:
    label: str
    kind: str  # unit of work the op produces: fits, draws, points, cli_rows, integrals
    run: object
    units: int = 1


@dataclass
class Tally:
    """attempted/failed per (unit kind, label).  `known` counts the failures
    that match a documented defect (NOTES.md, "Known defects"); they stay in
    `failed`.  `problems` describes every other failure."""

    counts: dict = field(default_factory=dict)
    known_at: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def known(self):
        return sum(self.known_at.values())

    def add(self, kind, label, attempted, failed, known=0, why=""):
        a, f = self.counts.get((kind, label), (0, 0))
        self.counts[(kind, label)] = (a + int(attempted), f + int(failed))
        self.known_at[(kind, label)] = self.known_at.get((kind, label), 0) + int(known)
        if failed > known:
            self.problems.append(f"{kind}@{label}: {int(failed - known)} failed {why}".rstrip())

    def fold(self, other, where):
        """Fold in the check of another pass.  A (kind, label) already
        tallied is the same work on the same inputs, so it is counted once
        however many passes repeat it, and a run's counts do not depend on
        how many passes fit in it; a repeat whose failures differ is a
        problem.  Known-defect counts are folded the same way."""
        for key, (a2, f2) in sorted(other.counts.items()):
            if key not in self.counts:
                self.counts[key] = (a2, f2)
                self.known_at[key] = other.known_at.get(key, 0)
                continue
            a, f = self.counts[key]
            if (a2, f2) != (a, f):
                self.problems.append(f"{key[0]}@{key[1]}: {where} failed {f2}/{a2}, "
                                     f"an earlier pass {f}/{a}")
            self.counts[key] = (max(a, a2), max(f, f2))
            self.known_at[key] = max(self.known_at.get(key, 0), other.known_at.get(key, 0))
        self.problems.extend([p for p in other.problems if p not in self.problems])

    def by_kind(self):
        out = {}
        for (kind, _), (a, f) in self.counts.items():
            a0, f0 = out.get(kind, (0, 0))
            out[kind] = (a0 + a, f0 + f)
        return out


def _close(value, ref, rtol=QUAD_RTOL):
    return math.isfinite(value) and abs(value - ref) <= rtol * max(1.0, abs(ref))


# --------------------------------------------------------------------------
# casestudy: the paper's tables through the README library path


class Casestudy:
    """fit_mle + gof_report + lrt for mcg, bg, kumg, mce on aarset and glass."""

    name = "casestudy"
    min_passes = 1

    def __init__(self, seed, smoke=False):
        # no smaller size: the ops are the reference fits themselves
        self.data = load_datasets()
        rng = random.Random(seed)
        order = list(self.data)
        rng.shuffle(order)
        self.ops = []
        self.fits = {}
        for label in order:
            nested = list(NESTED)
            rng.shuffle(nested)
            for model in ["mcg"] + nested:
                self.ops.append(Op(f"{label}.{model}", "fits", self._op(label, model)))

    def _op(self, label, model):
        data = self.data[label]

        def run():
            fit = mcgompertz.fit_mle(model, data)
            if model == "mcg":
                self.fits[label] = fit
                return fit, mcgompertz.gof_report(fit, data), None
            full = self.fits[label]
            return fit, mcgompertz.gof_report(fit, data, full_fit=full), mcgompertz.lrt(full, fit)

        return run

    def warmup(self):
        data = self.data["aarset"]
        fit = mcgompertz.fit_mle("g", data, mcgompertz.OptimizerConfig(n_starts=0))
        mcgompertz.gof_report(fit, data)

    def check(self, outputs):
        tally = Tally()
        for op, out in zip(self.ops, outputs):
            dataset, model = op.label.split(".")
            if isinstance(out, Exception):
                tally.add("fits", op.label, 1, 1, why=f"raised {out!r}")
                continue
            fit, report, test = out
            ok = fit.neg_loglik <= REF_NLL[dataset][model] + NLL_TOL
            ok = ok and math.isfinite(report.ks_stat) and 0.0 <= report.ks_pvalue <= 1.0
            if test is not None:
                full_nll = self.fits[dataset].neg_loglik
                stat, df, pvalue = test
                ok = ok and stat == 2.0 * (fit.neg_loglik - full_nll) and df >= 1
                ok = ok and 0.0 <= pvalue <= 1.0 and report.lrt_stat == stat
            tally.add("fits", op.label, 1, 0 if ok else 1, why=f"nll={fit.neg_loglik!r}")
        return tally


# --------------------------------------------------------------------------
# simulate: large-array sampling and evaluation over the frozen panel


def uniforms(n, seed):
    """The deviates core.sample transforms: a centred 53-bit grid (see its
    docstring), reproduced here so each draw's round trip can be checked."""
    grid = np.random.default_rng(seed).integers(0, 1 << 53, size=int(n))
    return (grid + 0.5) * (1.0 / (1 << 53))


class Simulate:
    """Parametric-bootstrap style: at every panel point, draw a replicate with
    `sample`, evaluate cdf, survival and log_pdf on it, and run `mcg sample`
    and `mcg eval` in-process.  Pass k draws replicate k mod REPLICATES, each
    seeded from `--seed`, the point and its index, and a run makes at least
    REPLICATES passes, so every run checks the same REPLICATES replicates.

    The sizes are the README's: `sample(p, 1000, seed=42)`, `mcg sample
    --n 1000` and `mcg eval --grid-points 50`.  `check` must run right after
    the pass it checks: it rebuilds that pass's replicate seeds."""

    name = "simulate"
    REPLICATES = 4
    min_passes = REPLICATES

    def __init__(self, seed, smoke=False, out_dir=".perfbench/tmp"):
        self.n = 100 if smoke else 1000
        self.grid_points = 10 if smoke else 50
        self.seed = seed
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.ops = []
        self.replicate = {}  # label -> number of the replicate last drawn
        self.draws = {}  # label -> finite draws of that replicate
        self.eval_ref = {}
        for i, (label, model, values) in enumerate(PANEL):
            self._add_point(i, label, model, values, panel_params(model, values))

    def draw_seed(self, i, label):
        """Seed of the current replicate at panel point i."""
        r = self.replicate[label] % self.REPLICATES
        return int(np.random.SeedSequence([self.seed, i, r]).generate_state(1)[0])

    def _fns(self, p):
        if isinstance(p, family.McEParams):
            return (lambda *a: family.exp_limit_sample(*a), lambda *a: family.exp_limit_cdf(*a),
                    lambda *a: family.exp_limit_survival(*a), lambda *a: family.exp_limit_log_pdf(*a))
        return (lambda *a: mcgompertz.sample(*a), lambda *a: mcgompertz.cdf(*a),
                lambda *a: mcgompertz.survival(*a), lambda *a: mcgompertz.log_pdf(*a))

    def _add_point(self, i, label, model, values, p):
        sample, cdf, survival, log_pdf = self._fns(p)
        self.replicate[label] = -1

        def run_sample():
            self.replicate[label] += 1
            d = sample(p, self.n, self.draw_seed(i, label))
            self.draws[label] = d[np.isfinite(d)]
            return d

        self.ops.append(Op(f"{label}.sample", "draws", run_sample, self.n))
        for fname, fn in (("cdf", cdf), ("survival", survival), ("log_pdf", log_pdf)):
            self.ops.append(Op(f"{label}.{fname}", "points",
                               lambda fn=fn: fn(p, self.draws[label])))

        # CLI round trips: `mcg sample` of the same replicate, and `mcg eval`
        # on a grid spanning Q(0.01)..Q(0.99) of the point
        text = params_text(model, values)
        lo, hi = EVAL_GRID[label]
        sample_path = os.path.join(self.out_dir, f"{label}.sample.csv")
        eval_path = os.path.join(self.out_dir, f"{label}.eval.csv")
        eval_argv = ["eval", "--model", model, "--params", text, "--grid-min", repr(lo),
                     "--grid-max", repr(hi), "--grid-points", str(self.grid_points),
                     "--out", eval_path]
        self.ops.append(Op(f"{label}.cli_sample", "cli_rows", lambda: (sample_path, cli.main([
            "sample", "--model", model, "--params", text, "--n", str(self.n),
            "--seed", str(self.draw_seed(i, label)), "--out", sample_path])), self.n))
        self.ops.append(Op(f"{label}.cli_eval", "cli_rows",
                           lambda: (eval_path, cli.main(eval_argv)), self.grid_points))
        try:
            self.eval_ref[label] = self._eval_table(p, np.linspace(lo, hi, self.grid_points))
        except Exception:  # the rows then count as failed in check()
            self.eval_ref[label] = None

    @staticmethod
    def _eval_table(p, grid):
        if isinstance(p, family.McEParams):
            pdf = family.exp_limit_pdf(p, grid)
            cdf = family.exp_limit_cdf(p, grid)
            return np.column_stack([grid, pdf, cdf, pdf / family.exp_limit_survival(p, grid)])
        return np.column_stack([grid, core.pdf(p, grid), core.cdf(p, grid), core.hazard(p, grid)])

    def warmup(self):
        for op in self.ops:
            op.run()

    def check(self, outputs):
        tally = Tally()
        out = {op.label: o for op, o in zip(self.ops, outputs)}
        for i, (label, _, _) in enumerate(PANEL):
            self._check_point(tally, i, label, out)
        return tally

    def _check_point(self, tally, i, label, out):
        # the draws and what is computed from them are tallied per replicate
        rep = f"{label}#{self.replicate[label] % self.REPLICATES}"
        draws = out[f"{label}.sample"]
        evals = [out[f"{label}.{f}"] for f in ("cdf", "survival", "log_pdf")]
        if any(isinstance(o, Exception) for o in [draws] + evals):
            tally.add("draws", rep, self.n, self.n, why="raised")
            tally.add("points", rep, 3 * self.n, 3 * self.n, why="raised")
        else:
            u = uniforms(self.n, self.draw_seed(i, label))
            finite = np.isfinite(draws)
            cdf, survival, log_pdf = (np.asarray(v) for v in evals)
            miss = np.zeros(self.n)
            miss[finite] = np.abs(cdf - u[finite])
            failed = ~finite | (miss > ROUNDTRIP_TOL)
            known = failed & (1.0 - u <= KNOWN_TAIL.get(label, -1.0)) & (miss <= TAIL_MISS_MAX)
            tally.add("draws", rep, self.n, failed.sum(), known.sum(),
                      "(non-finite or round trip)")
            bad = 0
            for v in (cdf, survival):
                bad += (~np.isfinite(v) | (v < 0.0) | (v > 1.0)).sum()
            bad += (~np.isfinite(log_pdf)).sum()
            tally.add("points", rep, 3 * finite.sum(), bad)

        ref = draws if not isinstance(draws, Exception) else np.full(self.n, np.nan)
        rows = self._read_cli(out[f"{label}.cli_sample"], "value", 1)
        if rows is None or rows.shape[0] != ref.size:
            tally.add("cli_rows", rep, ref.size, ref.size, why="mcg sample failed")
        else:
            same = (rows[:, 0] == ref) | (np.isnan(rows[:, 0]) & np.isnan(ref))
            tally.add("cli_rows", rep, ref.size, (~same).sum(), why="mcg sample differs")

        ref = self.eval_ref[label]
        rows = self._read_cli(out[f"{label}.cli_eval"], "y,pdf,cdf,hazard", 4)
        if ref is None or rows is None or rows.shape != ref.shape:
            tally.add("cli_rows", label, self.grid_points, self.grid_points, why="mcg eval failed")
        else:
            ok = np.all(np.isfinite(rows), axis=1)
            ok &= np.all(np.abs(rows - ref) <= 1e-12 * np.abs(ref), axis=1)
            ok[0] &= abs(rows[0, 2] - 0.01) <= ROUNDTRIP_TOL
            ok[-1] &= abs(rows[-1, 2] - 0.99) <= ROUNDTRIP_TOL
            tally.add("cli_rows", label, self.grid_points, (~ok).sum(), why="mcg eval differs")

    @staticmethod
    def _read_cli(out, header, width):
        if isinstance(out, Exception) or out[1] != 0:
            return None
        path = out[0]
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != header:
            return None
        return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]]).reshape(-1, width)


# --------------------------------------------------------------------------
# quadrature: scalar-call numeric integration


def quadrature_ops(smoke=False):
    """(name, callable) for every quadrature op; shared with freeze_refs.py."""
    ops = []
    c_grid = np.linspace(0.5, 5.0, 10)
    for label, model, values in PANEL[:1] if smoke else PANEL[:3]:
        p = core.McGParams(*values)
        ops += [(f"{label}.moment{k}", lambda p=p, k=k: shape.moment_numeric(p, k))
                for k in (1, 2, 3, 4)]
        ops += [
            (f"{label}.mgf", lambda p=p: shape.mgf_numeric(p, p.gamma)),
            (f"{label}.shannon", lambda p=p: shape.shannon_numeric(p)),
            (f"{label}.shannon_closed", lambda p=p: shape.shannon_closed(p)),
            (f"{label}.renyi", lambda p=p: shape.renyi_numeric(p, 0.5)),
            (f"{label}.os_moment",
             lambda p=p: orderstats.os_moment(p, orderstats.OrderSpec(2, 5), 1)),
            (f"{label}.moment_series", lambda p=p: expansions.moment_series(p, 1)),
            (f"{label}.mgf_series", lambda p=p: expansions.mgf_series(p, p.gamma)),
        ]
        for measure in ("bowley", "moors"):
            ops.append((f"{label}.{measure}", lambda p=p, m=measure: [
                row["value"] for row in shape.shape_curves(m, c_grid, p.a, p.b, p.theta, p.gamma)]))
    return ops


def check_quadrature(name, value, ref):
    """True when an op's output matches its frozen reference."""
    kind = ref["kind"]
    if kind == "value":
        return _close(value, ref["value"])
    if kind == "curve":
        return len(value) == len(ref["value"]) and all(map(_close, value, ref["value"]))
    if kind == "closed":  # shannon_closed: (value, fidelity_ok)
        return _close(value[0], ref["value"]) and value[1] == ref["flag"]
    if kind == "series":  # moment_series (value, converged); mgf_series (value, summed, faithful)
        flags = tuple(value[1:])
        if flags != tuple(ref["flags"]):
            return False
        return not flags[0] or _close(value[0], ref["value"])
    raise ValueError(f"unknown reference kind {kind!r} for {name}")


class Quadrature:
    """Moments, mgf, entropies, an order-statistic moment, series and shape
    curves at the first three panel points."""

    name = "quadrature"
    min_passes = 1

    def __init__(self, seed, smoke=False):
        ops = quadrature_ops(smoke)
        random.Random(seed).shuffle(ops)
        self.ops = [Op(name, "integrals", fn) for name, fn in ops]

    def warmup(self):
        for op in self.ops:
            op.run()

    def check(self, outputs):
        tally = Tally()
        for op, out in zip(self.ops, outputs):
            if isinstance(out, Exception):
                tally.add("integrals", op.label, 1, 1, why=f"raised {out!r}")
                continue
            ref = QUAD_REF[op.label]
            ok = check_quadrature(op.label, out, ref)
            # known defect: renyi_numeric stops at the last panel cut, so its
            # value may equal the integral truncated there, and nothing else
            known = not ok and "truncated" in ref and _close(out, ref["truncated"])
            tally.add("integrals", op.label, 1, 0 if ok else 1, int(known), f"got {out!r}")
        return tally


WORKLOADS = {w.name: w for w in (Casestudy, Simulate, Quadrature)}


# --------------------------------------------------------------------------
# running passes


# Machine-speed calibration.  The 2-vCPU host this benchmark was tuned on shares
# its cores with other tenants, and its speed drifts by up to 60% between
# 10-second windows.  Each op is therefore timed between two runs of a fixed
# calibration kernel, and, in untraced runs, the kernel also runs every
# SAMPLE_EVERY seconds inside the op (from a SIGALRM handler; its time is
# subtracted from the op's).  The op's time is rescaled to a machine on which
# the kernel takes CAL_SECONDS: scaled = wall * CAL_SECONDS / mean(kernel
# runs before, during and after the op).  Wall times are kept and reported
# beside the scaled ones.
CAL_SECONDS = 0.010


def calibration_kernel():
    """Fixed numpy work in the two forms the library spends its time in:
    per-call overhead on small arrays (scalar quadrature callbacks, 50-point
    likelihoods) and ufuncs over large arrays (sampling).  Pure-interpreter
    loops were tried and tracked the library's slowdowns worse."""
    small = np.linspace(0.1, 3.0, 50)
    above = 0
    for _ in range(1500):
        small = np.log1p(np.exp(-small)) + 0.5
        above += bool(np.any(small > 1.0))
    big = np.linspace(0.1, 3.0, 20000)
    for _ in range(60):
        big = np.log1p(np.exp(-big)) + 0.5
    return above + small[0] + big[0]


def kernel_seconds(repeat=1):
    """Duration of one calibration run (median of `repeat` back-to-back runs)."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


SAMPLE_EVERY = 0.2


class SpeedSamples:
    """Runs the calibration kernel every SAMPLE_EVERY seconds while active,
    recording each run's duration and the time the handler took."""

    def __init__(self):
        self.kernel = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        calibration_kernel()
        self.kernel.append(time.perf_counter() - t0)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class Pass:
    op_wall: list  # seconds per op, as measured (calibration time taken out)
    op_scaled: list  # seconds per op, rescaled by the calibration kernel
    op_units: list  # units of work each op produced
    outputs: list
    kernel: list  # calibration kernel durations

    @property
    def seconds(self):
        return sum(self.op_scaled)

    @property
    def wall_seconds(self):
        return sum(self.op_wall)


def run_pass(workload, sample_during_ops=True):
    """Run every op once and time it (see the calibration notes above); an op
    that raises yields its exception.  Traced runs pass
    sample_during_ops=False, so no kernel time lands inside library spans."""
    p = Pass([], [], [], [], [])
    before = kernel_seconds()
    p.kernel.append(before)
    for op in workload.ops:
        samples = SpeedSamples()
        t0 = time.perf_counter()
        try:
            if sample_during_ops:
                with samples:
                    out = op.run()
            else:
                out = op.run()
        except Exception as exc:  # counted as a failed op by check()
            out = exc
        wall = time.perf_counter() - t0 - samples.spent
        after = kernel_seconds()
        speed = statistics.mean([before, after] + samples.kernel)
        p.op_wall.append(wall)
        p.op_scaled.append(wall * CAL_SECONDS / speed)
        p.op_units.append(np.size(out) if op.kind == "points" and not isinstance(out, Exception)
                          else op.units)
        p.outputs.append(out)
        p.kernel.extend(samples.kernel + [after])
        before = after
    return p


# unit kind -> throughput figure reported for the workloads that have it
RATES = {"fits": "fits_per_s", "draws": "draws_per_s", "points": "evals_per_s",
         "integrals": "integrals_per_s"}


def summarize(workload, passes):
    """End-to-end figures over the measured passes (scaled times).

    op_ms_p50 is taken over the op list, each op's latency being its median
    over the passes, so it does not shift with how many passes fit in the
    run.  op_ms_p90 is over every op sample, and only given from 100 up."""
    op_ms = [1e3 * statistics.median(times) for times in zip(*(p.op_scaled for p in passes))]
    samples = [1e3 * t for p in passes for t in p.op_scaled]
    out = {
        "pass_s": statistics.median(p.seconds for p in passes),
        "op_ms_p50": statistics.median(op_ms),
        "pass_wall_s": statistics.median(p.wall_seconds for p in passes),
        "kernel_ms": 1e3 * statistics.median(k for p in passes for k in p.kernel),
        "kernel_runs": sum(len(p.kernel) for p in passes),
        "passes": len(passes),
        "ops": len(op_ms),
        "op_samples": len(samples),
    }
    if len(samples) >= 100:  # a 90th percentile with at least ten samples beyond it
        out["op_ms_p90"] = statistics.quantiles(samples, n=10, method="inclusive")[8]
    for kind, metric in RATES.items():
        units = seconds = 0.0
        for p in passes:
            for op, s, n in zip(workload.ops, p.op_scaled, p.op_units):
                if op.kind == kind:
                    units += n
                    seconds += s
        if seconds:
            out[metric] = units / seconds
    return out


# --------------------------------------------------------------------------
# traced-run extras


def layer_probe(data, out_dir):
    """One small fixed call into every traced layer.

    Run after the traced pass of every workload, so each layer has a measured
    time on each workload even when the workload's own ops bypass it.
    """
    p = core.McGParams(*PANEL[0][2])
    fitted = core.McGParams(*PANEL[1][2])
    ys = np.linspace(0.05, 5.0, 64)
    core.quantile(p, np.linspace(0.01, 0.99, 64))
    core.cdf(p, ys)
    core.log_pdf(p, 1.0)
    e = family.make_submodel("mce", dict(zip("abc", PANEL[3][2][:3]), theta=PANEL[3][2][3]))
    family.exp_limit_cdf(e, ys)
    aarset = data["aarset"]
    inference.log_likelihood("mcg", fitted, aarset)
    inference.score("mcg", fitted, aarset)
    inference.loglik_hessian("mcg", fitted, aarset)
    inference.fit_mle("e", aarset, mcgompertz.OptimizerConfig(n_starts=0))
    selection.ks_test(aarset, lambda y: core.cdf(fitted, y))
    shape.moment_numeric(p, 1)
    orderstats.os_cdf(p, orderstats.OrderSpec(2, 5), ys)
    expansions.mixture_cdf(p, 1.0)
    cli.main(["eval", "--params", params_text("mcg", PANEL[0][2]), "--grid-points", "8",
              "--out", os.path.join(out_dir, "probe.eval.csv")])


def call_costs(data, calls=40, batches=5):
    """Per-call cost of the public likelihood, score and Hessian on aarset at
    its frozen mcg optimum (untraced): median over batches, in microseconds."""
    fitted = core.McGParams(*PANEL[1][2])
    aarset = data["aarset"]
    out = {}
    for name, fn in (("loglik", inference.log_likelihood), ("score", inference.score),
                     ("hessian", inference.loglik_hessian)):
        fn("mcg", fitted, aarset)
        per_call = []
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn("mcg", fitted, aarset)
            per_call.append((time.perf_counter() - t0) / calls)
        out[f"inference.{name}_us_per_call"] = 1e6 * statistics.median(per_call)
    return out
