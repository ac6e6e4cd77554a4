"""Numeric engines for moments, MGF, entropies, and quantile shape measures.

Quadrature is the authority for every expectation here.  Integrals run in the
log of the observation variable: the density can spike like y^{a-1} at the
origin, and adaptive quadrature on such power-law panels in the linear
variable can return confidently wrong values, while the same panel in
u = ln y is a smooth exponential that integrates cleanly.  Panels are split
at fixed quantiles of the distribution itself.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .core import log_pdf, quantile
from .specfun import digamma, log_beta

_PANEL_CUTS = (1e-9, 1e-3, 1e-2, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-10)


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive-quadrature budget for the numeric engines."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0 and self.max_subdivisions >= 1):
            raise ValueError("tolerances must be positive and max_subdivisions >= 1")


def _panel_quad(p, integrand, q):
    """Integrate integrand(u, y, lp) du over the whole line u = ln y.

    integrand receives u, y = e^u, and lp = log f(y) and returns the
    du-integrand (the e^u Jacobian included by the caller).  Points where y
    underflows to zero or overflows, or lp is not finite, contribute
    nothing: every engine here integrates only when its integrand vanishes
    at both ends.  The pieces are split at the quantiles _PANEL_CUTS, and
    the last one runs from ln Q(1 - 1e-10) to +inf, so no tail is dropped.
    """

    def f(u):
        if u > 709.0:  # e^u overflows a double past ~709.78
            return 0.0
        y = math.exp(u)
        if y == 0.0:
            return 0.0
        lp = log_pdf(p, y)
        if not math.isfinite(lp):
            return 0.0
        return integrand(u, y, lp)

    cuts = np.log(quantile(p, np.array(_PANEL_CUTS))).tolist()
    edges = [-math.inf] + cuts + [math.inf]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(
            f, lo, hi, epsabs=q.abs_tol, epsrel=q.rel_tol, limit=q.max_subdivisions
        )
        total += val
    return total


def _panel_integral(p, log_integrand, q):
    """_panel_quad of exp(log_integrand(u, y, lp))."""

    def integrand(u, y, lp):
        v = log_integrand(u, y, lp)
        return math.exp(v) if v > -700.0 else 0.0

    return _panel_quad(p, integrand, q)


def moment_numeric(p, k, q=None):
    """k-th raw moment E[Y^k] by panelized adaptive quadrature."""
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    q = q or QuadratureSpec()
    return _panel_integral(p, lambda u, y, lp: (k + 1.0) * u + lp, q)


def mgf_numeric(p, t, q=None):
    """Moment generating function E[e^{tY}] by quadrature.

    The density tail decays like exp(-(theta b/gamma) e^{gamma y}), so the
    integral is finite for every real t.
    """
    q = q or QuadratureSpec()
    return _panel_integral(p, lambda u, y, lp: u + t * y + lp, q)


def shannon_numeric(p, q=None):
    """Shannon differential entropy -E[log f(Y)] by quadrature."""
    q = q or QuadratureSpec()

    def integrand(u, y, lp):
        return -math.exp(u + lp) * lp if u + lp >= -700.0 else 0.0

    return _panel_quad(p, integrand, q)


def shannon_closed(p, q=None):
    """Shannon entropy assembled from the displayed closed form.

    Returns (value, fidelity_ok).  The closed form combines log B(a/c, b),
    the base-rate terms, and digamma differences zeta(r, s) = psi(r+s) -
    psi(r) applied as (a-1) zeta(a, b) + (b-1) zeta(b, a).  Those digamma
    arguments ignore the 1/c rescaling of the generator exponent, so the
    expression is exact at c = 1 and drifts otherwise; the value is always
    checked against shannon_numeric and the flag reports agreement to 1e-4
    relative.  E[Y] and M_Y(gamma) have no closed form and come from the
    numeric engines.
    """
    q = q or QuadratureSpec()
    a, b, c, th, ga = p.a, p.b, p.c, p.theta, p.gamma

    def zeta(r, s):
        return digamma(r + s) - digamma(r)

    mean = moment_numeric(p, 1, q)
    mgf_at_gamma = mgf_numeric(p, ga, q)
    value = (
        log_beta(a / c, b)
        - math.log(c * th)
        - th / ga
        - ga * mean
        + (th / ga) * mgf_at_gamma
        + (a - 1.0) * zeta(a, b)
        + (b - 1.0) * zeta(b, a)
    )
    reference = shannon_numeric(p, q)
    scale = max(1.0, abs(reference))
    fidelity_ok = abs(value - reference) <= 1e-4 * scale
    return value, fidelity_ok


def renyi_numeric(p, rho, q=None):
    """Renyi entropy (1-rho)^{-1} ln integral of f^rho.

    The integrand behaves like y^{rho(a-1)} at the origin, so the integral
    requires rho*(a-1) > -1; outside that region the spike is non-integrable
    and a ValueError is raised instead of returning a divergent quadrature
    result.
    """
    if rho <= 0.0 or rho == 1.0:
        raise ValueError("rho must be positive and different from 1")
    if rho * (p.a - 1.0) <= -1.0:
        raise ValueError(
            "integral of f^rho diverges at the origin: need rho*(a-1) > -1, "
            f"got rho={rho} with a={p.a}"
        )
    q = q or QuadratureSpec()
    total = _panel_integral(p, lambda u, y, lp: u + rho * lp, q)
    return math.log(total) / (1.0 - rho)


def bowley(q_fn):
    """Quartile skewness [Q(3/4) - 2Q(1/2) + Q(1/4)] / [Q(3/4) - Q(1/4)]."""
    q1, q2, q3 = q_fn(0.25), q_fn(0.5), q_fn(0.75)
    spread = q3 - q1
    if spread == 0.0:
        raise ValueError("degenerate quantile function: Q(3/4) equals Q(1/4)")
    return (q3 - 2.0 * q2 + q1) / spread


def moors(q_fn):
    """Octile kurtosis [Q(7/8) - Q(5/8) + Q(3/8) - Q(1/8)] / [Q(6/8) - Q(2/8)]."""
    o = [q_fn(k / 8.0) for k in range(1, 8)]
    spread = o[5] - o[1]
    if spread == 0.0:
        raise ValueError("degenerate quantile function: Q(6/8) equals Q(2/8)")
    return (o[6] - o[4] + o[2] - o[0]) / spread


def shape_curves(measure, c_grid, a, b, theta, gamma):
    """Shape measure as a function of c with the other parameters held fixed.

    Returns one row per grid point: dicts with keys c, measure, value, a, b,
    theta, gamma.
    """
    from .core import McGParams

    if measure not in ("bowley", "moors"):
        raise ValueError("measure must be 'bowley' or 'moors'")
    fn = bowley if measure == "bowley" else moors
    rows = []
    for c in c_grid:
        params = McGParams(a, b, float(c), theta, gamma)
        value = fn(lambda t: quantile(params, t))
        rows.append(
            {
                "c": float(c),
                "measure": measure,
                "value": float(value),
                "a": a,
                "b": b,
                "theta": theta,
                "gamma": gamma,
            }
        )
    return rows


def curves_to_csv(rows):
    """Render shape_curves rows as CSV text with a fixed column order."""
    lines = ["c,measure,value,a,b,theta,gamma"]
    for r in rows:
        lines.append(
            f"{r['c']!r},{r['measure']},{r['value']!r},{r['a']!r},{r['b']!r},"
            f"{r['theta']!r},{r['gamma']!r}"
        )
    return "\n".join(lines) + "\n"
