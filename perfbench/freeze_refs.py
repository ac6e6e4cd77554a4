"""Recompute the quadrature workload's references with mpmath and compare.

    PYTHONPATH=src python3 perfbench/freeze_refs.py

For every quadrature op this evaluates the same quantity independently in
mpmath (30 digits, tanh-sinh quadrature in u = ln y, quantiles by root finding
on mpmath's regularized incomplete beta), prints the library value beside it,
and prints a QUAD_REF block for inputs.py holding the mpmath values.  Series
ops have no independent value: their reference is the library's convergence
flags, plus the value when a flag says it is usable.  Renyi ops also get the
integral truncated at Q(1 - 1e-10), where the library's quadrature panel
stops.  Run it again only when the panel or the op list changes.
"""

import math
import os
import pprint
import sys

import mpmath as mp
import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from mcgompertz import core  # noqa: E402
from mcgompertz.shape import _PANEL_CUTS  # noqa: E402

from inputs import PANEL  # noqa: E402
from workloads import quadrature_ops  # noqa: E402

mp.mp.dps = 30


class Law:
    """A McG parameter point in mpmath arithmetic."""

    def __init__(self, p):
        self.p = p
        self.a, self.b, self.c, self.th, self.ga = (mp.mpf(v) for v in (p.a, p.b, p.c, p.theta, p.gamma))
        self.alpha = self.a / self.c
        self.lead = mp.log(self.c) + mp.log(self.th) - mp.log(mp.beta(self.alpha, self.b))
        # breakpoints only steer the quadrature; the integrand is all mpmath.
        # Each quantile panel is split in 8 so sharp cliffs (tiny b) resolve.
        u = sorted({float(mp.log(y)) for y in core.quantile(p, np.array(_PANEL_CUTS))
                    if np.isfinite(y)})
        fine = [lo + (hi - lo) * k / 8 for lo, hi in zip(u[:-1], u[1:]) for k in range(8)]
        self.cuts = [-mp.inf] + [mp.mpf(v) for v in fine + u[-1:]] + [mp.inf]

    def w(self, y):
        return self.th / self.ga * mp.expm1(self.ga * y)

    def ln_g(self, w):
        # ln G = ln(1 - e^-w), without rounding G to 1 in the upper tail
        return mp.log(-mp.expm1(-w)) if w < 1 else mp.log1p(-mp.exp(-w))

    def log_pdf(self, y):
        w = self.w(y)
        ln_g = self.ln_g(w)
        return (self.lead + self.ga * y - w + (self.a - 1) * ln_g
                + (self.b - 1) * mp.log(-mp.expm1(self.c * ln_g)))

    def cdf_sf(self, y):
        # Above G^c = 1/2 the survival goes through the complement 1 - G^c,
        # formed by expm1, so neither side is lost where G^c rounds to 1.
        c_ln_g = self.c * self.ln_g(self.w(y))
        if c_ln_g < -mp.log(2):
            F = mp.betainc(self.alpha, self.b, 0, mp.exp(c_ln_g), regularized=True)
            return F, 1 - F
        S = mp.betainc(self.b, self.alpha, 0, -mp.expm1(c_ln_g), regularized=True)
        return 1 - S, S

    def tail_quantile(self, s):
        """y with survival S(y) = s, by bisection in ln y."""
        lo = mp.log(core.quantile(self.p, 0.5))
        hi = lo + 1
        while self.cdf_sf(mp.exp(hi))[1] > s:
            hi += 1
        for _ in range(120):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if self.cdf_sf(mp.exp(mid))[1] > s else (lo, mid)
        return mp.exp((lo + hi) / 2)

    def quad(self, g, upper=mp.inf):
        """Integral of g(u, y = e^u) du over u < ln(upper).  Where w(y)
        exceeds e^50 the density is below exp(-b e^50) and g is taken as 0,
        which also keeps mpmath from expanding astronomically large powers."""
        log_rate = mp.log(self.th / self.ga)

        def f(u):
            y = mp.exp(u)
            return 0 if log_rate + self.ga * y > 50 else g(u, y)

        top = mp.log(upper) if upper < mp.inf else mp.inf
        cuts = [u for u in self.cuts if u < top] + [top]
        value, err = mp.quad(f, cuts, error=True, maxdegree=10)
        if err > mp.mpf(1e-12) * max(1, abs(value)):
            raise ArithmeticError(f"mpmath quadrature error estimate {err} for {value}")
        return value

    def integrate(self, log_integrand, upper=mp.inf):
        """Integral over y < upper of exp(log_integrand(y))."""
        return self.quad(lambda u, y: mp.exp(u + log_integrand(y)), upper)

    def moment(self, k):
        return self.integrate(lambda y: k * mp.log(y) + self.log_pdf(y))

    def mgf(self, t):
        return self.integrate(lambda y: t * y + self.log_pdf(y))

    def shannon(self):
        def g(u, y):
            log_f = self.log_pdf(y)
            return -mp.exp(u + log_f) * log_f

        return self.quad(g)

    def renyi(self, rho, upper=mp.inf):
        return mp.log(self.integrate(lambda y: rho * self.log_pdf(y), upper)) / (1 - rho)

    def os_moment(self, i, n, s):
        lb = mp.log(mp.beta(i, n - i + 1))

        def log_integrand(y):
            F, S = self.cdf_sf(y)
            return s * mp.log(y) + self.log_pdf(y) + (i - 1) * mp.log(F) + (n - i) * mp.log(S) - lb

        return self.integrate(log_integrand)

    def shannon_closed(self):
        a, b, c, th, ga = self.a, self.b, self.c, self.th, self.ga

        def zeta(r, s):
            return mp.digamma(r + s) - mp.digamma(r)

        value = (mp.log(mp.beta(a / c, b)) - mp.log(c * th) - th / ga - ga * self.moment(1)
                 + th / ga * self.mgf(ga) + (a - 1) * zeta(a, b) + (b - 1) * zeta(b, a))
        reference = self.shannon()
        return value, bool(abs(value - reference) <= mp.mpf(1e-4) * max(1, abs(reference)))


def quantile(p, t):
    law = Law(p)
    return mp.findroot(lambda y: law.cdf_sf(y)[0] - t, mp.mpf(core.quantile(p, t)),
                       tol=mp.mpf(10) ** -25)


def curve(measure, params, c_grid):
    out = []
    for c in c_grid:
        p = core.McGParams(params.a, params.b, float(c), params.theta, params.gamma)
        if measure == "bowley":
            q1, q2, q3 = (quantile(p, t) for t in (0.25, 0.5, 0.75))
            out.append((q3 - 2 * q2 + q1) / (q3 - q1))
        else:
            o = [quantile(p, k / 8.0) for k in range(1, 8)]
            out.append((o[6] - o[4] + o[2] - o[0]) / (o[5] - o[1]))
    return out


def reference(name, law, lib):
    """(reference dict, independent value or None) for one op."""
    what = name.split(".", 1)[1]
    if what.startswith("moment") and what[-1].isdigit():
        return {"kind": "value"}, law.moment(int(what[-1]))
    if what == "mgf":
        return {"kind": "value"}, law.mgf(law.ga)
    if what == "shannon":
        return {"kind": "value"}, law.shannon()
    if what == "renyi":
        # also the integral cut where shape's panel stops, Q(1 - 1e-10): the
        # value renyi_numeric gives when the tail beyond that cut matters
        cut = law.tail_quantile(mp.mpf(1) - mp.mpf(_PANEL_CUTS[-1]))
        truncated = float(law.renyi(mp.mpf("0.5"), cut))
        return {"kind": "value", "truncated": truncated}, law.renyi(mp.mpf("0.5"))
    if what == "os_moment":
        return {"kind": "value"}, law.os_moment(2, 5, 1)
    if what == "shannon_closed":
        value, flag = law.shannon_closed()
        return {"kind": "closed", "flag": flag}, value
    if what in ("moment_series", "mgf_series"):
        flags = list(lib[1:])
        if flags[0]:
            exact = law.moment(1) if what == "moment_series" else law.mgf(law.ga)
            return {"kind": "series", "flags": flags}, exact
        return {"kind": "series", "flags": flags}, None
    if what in ("bowley", "moors"):
        return {"kind": "curve"}, curve(what, law.p, np.linspace(0.5, 5.0, 10))
    raise ValueError(name)


def main():
    laws = {label: Law(core.McGParams(*values)) for label, model, values in PANEL[:3]}
    refs = {}
    worst = 0.0
    for name, fn in quadrature_ops():
        lib = fn()
        ref, exact = reference(name, laws[name.split(".")[0]], lib)
        if exact is not None:
            if isinstance(exact, list):
                ref["value"] = [float(v) for v in exact]
                lib_values = lib
            else:
                ref["value"] = float(exact)
                lib_values = [lib[0] if isinstance(lib, tuple) else lib]
                exact = [exact]
            rel = max(abs(float(lv) - float(e)) / max(1.0, abs(float(e)))
                      for lv, e in zip(lib_values, exact))
            worst = max(worst, rel if math.isfinite(rel) else math.inf)
            print(f"# {name:<28} lib={lib_values[0]!r:<24} mpmath={float(exact[0])!r:<24} rel={rel:.2e}",
                  file=sys.stderr)
        else:
            print(f"# {name:<28} lib={lib!r} (flags only)", file=sys.stderr)
        if "truncated" in ref:
            rel = abs(lib - ref["truncated"]) / max(1.0, abs(ref["truncated"]))
            print(f"# {name:<28} truncated at Q(1-1e-10): mpmath={ref['truncated']!r} rel={rel:.2e}",
                  file=sys.stderr)
        if ref["kind"] == "closed" and lib[1] != ref["flag"]:
            print(f"# {name}: library flag {lib[1]} differs from mpmath {ref['flag']}", file=sys.stderr)
        refs[name] = ref
    print(f"# worst relative disagreement library vs mpmath: {worst:.2e}", file=sys.stderr)
    print("QUAD_REF = " + pprint.pformat(refs, width=99))


if __name__ == "__main__":
    main()
