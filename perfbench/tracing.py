"""Per-layer tracing installed from outside the library.

Every public function of each `mcgompertz` module is wrapped in a span, and
the wrapper is bound under every module attribute that refers to the original
function, so callers that resolve the name at call time (`core.inc_beta_inv_log`,
`shape.log_pdf`, `selection.mcg_cdf`, ...) go through it.  `scipy.optimize.minimize`
as bound in `mcgompertz.inference` gets its own span, with the objective and
gradient callbacks it receives wrapped as inference spans, so the optimizer's
own time is separable from the library code it drives.

Spans are kept in memory as flat arrays (name, parent, start, end, points) and
written out once at the end.  A layer's self time is the summed duration of its
spans minus the part covered by their direct child spans.
"""

import functools
import gzip
import inspect
import os
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

import mcgompertz
from mcgompertz import cli, core, expansions, family, inference, orderstats, selection, shape, specfun

LAYERS = (specfun, core, family, expansions, shape, orderstats, inference, selection, cli)
# `errata` is a static catalog no workload calls; it is not traced.

# Parameters that carry evaluation points; a span records how many it got.
_POINT_PARAMS = ("y", "t", "log_y", "u", "x")
_SPECFUN_POINT_PARAMS = _POINT_PARAMS + ("p",)

_SHAPE_INTEGRALS = ("moment_numeric", "mgf_numeric", "shannon_numeric", "renyi_numeric")


def unit(metric):
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ns_per_point"):
        return "ns"
    if ".us_per_" in metric or metric.endswith("_us_per_call"):
        return "us"
    return {"cli.bytes_out": "bytes", "trace.overhead_ratio": "ratio"}.get(metric, "count")


def _layer(module):
    return module.__name__.rsplit(".", 1)[-1]


def _point_getter(fn, layer):
    """How to read the number of evaluation points from a call's arguments."""
    params = list(inspect.signature(fn).parameters)
    if fn.__name__.endswith("sample") and "n" in params:
        i = params.index("n")
        return lambda args, kwargs: int(args[i] if len(args) > i else kwargs["n"])
    names = _SPECFUN_POINT_PARAMS if layer == "specfun" else _POINT_PARAMS
    for i, name in enumerate(params):
        if name in names:
            return lambda args, kwargs: int(np.size(args[i] if len(args) > i else kwargs[name]))
    return None


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.names = []
        self.layers = []
        self._ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.points = array("q")
        self._stack = [-1]
        self.counts = {"pass": Counter(), "probe": Counter()}  # by phase
        self.phase = None  # "pass" or "probe" while counting
        self._restore = []

    def _nid(self, name, layer):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def span(self, name, layer, fn, points=None):
        """Wrap fn so that each call records one span."""
        nid = self._nid(name, layer)
        name_id, parent, start, end, pts = self.name_id, self.parent, self.start, self.end, self.points
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            pts.append(points(args, kwargs) if points is not None else 0)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()

        return traced

    # -- installation ---------------------------------------------------

    def _rebind(self, original, wrapper):
        for mod in (mcgompertz,) + LAYERS:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        for mod in LAYERS:
            layer = _layer(mod)
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self.span(f"{layer}.{name}", layer, fn, _point_getter(fn, layer))
                if name == "ks_test":
                    wrapper = self._count_cdf_calls(wrapper)
                elif mod is cli and name == "main":
                    wrapper = self._count_cli_bytes(wrapper)
                self._rebind(fn, wrapper)
        self._rebind(inference.minimize, self._traced_minimize(inference.minimize))

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _count_cdf_calls(self, ks_test):
        def counted(data, cdf_fn):
            def cdf_counted(y):
                if self.phase:
                    self.counts[self.phase]["ks_cdf_calls"] += 1
                return cdf_fn(y)

            if self.phase:
                self.counts[self.phase]["ks_tests"] += 1
            return ks_test(data, cdf_counted)

        return counted

    def _count_cli_bytes(self, main):
        def counted(argv=None):
            code = main(argv)
            if self.phase and argv and "--out" in argv:
                path = argv[argv.index("--out") + 1]
                if os.path.exists(path):
                    self.counts[self.phase]["cli_bytes_out"] += os.path.getsize(path)
            return code

        return counted

    def _traced_minimize(self, minimize):
        objective_nid = ("inference.objective", "inference")
        gradient_nid = ("inference.gradient", "inference")
        spanned = self.span("inference.minimize", "minimize", minimize)

        def traced_minimize(fun, x0, *args, jac=None, **kwargs):
            fun = self.span(*objective_nid, fun)
            if callable(jac):
                jac = self.span(*gradient_nid, jac)
            res = spanned(fun, x0, *args, jac=jac, **kwargs)
            if self.phase:
                c = self.counts[self.phase]
                c["nfev"] += int(getattr(res, "nfev", 0) or 0)
                c["njev"] += int(getattr(res, "njev", 0) or 0)
                c["nit"] += int(getattr(res, "nit", 0) or 0)
            return res

        return traced_minimize

    # -- results --------------------------------------------------------

    def metrics(self, pass_end):
        """Per-layer metrics.  Spans with index < pass_end belong to the
        traced pass; later ones to the layer probe.  Times and per-point or
        per-call rates use every span; counts use the pass alone, or the
        probe alone where the pass never reaches the code counted."""
        n = len(self.name_id)
        nid = np.frombuffer(self.name_id, dtype=np.int64)
        par = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)).astype(float) * 1e-9
        pts = np.frombuffer(self.points, dtype=np.int64).astype(float)
        in_pass = np.arange(n) < pass_end
        names = np.array(self.names + ["<root>"])
        layers = np.array(self.layers + ["<root>"])
        span_name = names[nid]
        span_layer = layers[nid]
        parent_nid = np.where(par >= 0, nid[par], len(self.names))  # root -> "<root>"
        parent_name = names[parent_nid]
        parent_layer = layers[parent_nid]
        covered = np.zeros(n)
        has_parent = par >= 0
        np.add.at(covered, par[has_parent], dur[has_parent])
        self_time = dur - covered

        def self_s(layer):
            return float(self_time[span_layer == layer].sum())

        def rate(mask, scale):
            total = pts[mask].sum()
            return float(dur[mask].sum() / total * scale) if total else 0.0

        def ratio(num, den):
            return float(num / den) if den else 0.0

        def count(num_den):
            """num / den over the traced pass, else over the probe;
            num_den(span mask, counters) gives the pair."""
            for phase, mask in (("pass", in_pass), ("probe", ~in_pass)):
                num, den = num_den(mask, self.counts[phase])
                if num and den:
                    return float(num / den)
            return 0.0

        # ancestor flag: span sits under an inference.fit_mle span
        under_fit = np.zeros(n, dtype=bool)
        is_fit = span_name == "inference.fit_mle"
        for i in range(n):
            p = par[i]
            if p >= 0:
                under_fit[i] = under_fit[p] or is_fit[p]

        inv = span_name == "specfun.inc_beta_inv_log"
        beta_eval = np.isin(span_name, ("specfun.inc_beta_reg", "specfun.inc_beta_reg_logx"))
        core_top = (span_layer == "core") & (parent_layer != "core") & (pts > 0)
        core_eval = core_top & ~np.isin(span_name, ("core.sample", "core.quantile"))
        exp_top = (np.char.startswith(span_name, "family.exp_limit_")
                   & ~np.char.startswith(parent_name, "family.exp_limit_"))
        scalar = core_top & (pts == 1)
        return {
            "specfun.self_s": self_s("specfun"),
            "specfun.inc_beta_inv_log.ns_per_point": rate(inv, 1e9),
            "specfun.inc_beta_reg_logx.ns_per_point": rate(span_name == "specfun.inc_beta_reg_logx", 1e9),
            "specfun.inc_beta_reg.points_per_draw": count(lambda m, c: (
                pts[beta_eval & (parent_name == "specfun.inc_beta_inv_log") & m].sum(),
                pts[inv & m].sum())),
            "core.self_s": self_s("core"),
            "core.ns_per_point": rate(core_eval & (pts > 1), 1e9),
            "core.scalar_calls": int(count(lambda m, c: ((scalar & m).sum(), 1))),
            "core.us_per_scalar_call": ratio(dur[scalar].sum() * 1e6, scalar.sum()),
            "family.make_submodel.calls_per_fit": count(lambda m, c: (
                ((span_name == "family.make_submodel") & under_fit & m).sum(),
                (is_fit & m).sum())),
            "family.exp_limit.ns_per_point": rate(exp_top, 1e9),
            "inference.self_s": self_s("inference"),
            "inference.minimize.self_s": self_s("minimize"),
            "inference.nfev_per_fit": count(lambda m, c: (c["nfev"], (is_fit & m).sum())),
            "inference.njev_per_fit": count(lambda m, c: (c["njev"], (is_fit & m).sum())),
            "inference.nit_per_fit": count(lambda m, c: (c["nit"], (is_fit & m).sum())),
            "selection.self_s": self_s("selection"),
            "selection.ks_test.cdf_calls_per_test": count(
                lambda m, c: (c["ks_cdf_calls"], c["ks_tests"])),
            "shape.self_s": self_s("shape"),
            "orderstats.self_s": self_s("orderstats"),
            "expansions.self_s": self_s("expansions"),
            "shape.integrand_evals_per_integral": count(lambda m, c: (
                pts[(span_name == "core.log_pdf") & (parent_layer == "shape") & m].sum(),
                (np.isin(span_name, [f"shape.{f}" for f in _SHAPE_INTEGRALS]) & m).sum())),
            "cli.self_s": self_s("cli"),
            "cli.bytes_out": int(count(lambda m, c: (c["cli_bytes_out"], 1))),
        }

    def write(self, path):
        """Write every span as one tab-separated line (gzip)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tlayer\tstart_ns\tend_ns\tpoints\n")
            for i in range(len(self.name_id)):
                k = self.name_id[i]
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[k]}\t{self.layers[k]}\t"
                         f"{self.start[i]}\t{self.end[i]}\t{self.points[i]}\n")
