"""Numeric engines for moments, MGF, entropies, and quantile shape measures.

Every expectation here is an integral computed by one vectorized adaptive
quadrature engine, `_panel_quad`.  It integrates in the log of the
observation variable: the density can spike like y^{a-1} at the origin,
and such power laws are hard to integrate in the linear variable, while in
u = ln y they are smooth exponentials.  Panels are split at fixed
quantiles of the distribution itself.  Each refinement round evaluates a
Gauss-Kronrod 7/15 rule on every live subinterval at once, so the density
is called on whole node arrays, a few times per integral.
"""

import math
import warnings

import numpy as np

from .core import log_pdf, quantile
from .specfun import digamma_diff, log_beta

_PANEL_CUTS = (1e-9, 1e-3, 1e-2, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-10)
# below the smallest normal double y = e^u is quantized (subnormal) or 0:
# such points count as underflowed and contribute nothing
_U_TINY = math.log(np.finfo(float).tiny)

# Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK qk15): the Kronrod abscissae
# in decreasing order with their weights, and the Gauss weights of every
# second abscissa, the centre last
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
_W_KRONROD = np.concatenate([_WK[:-1], _WK[::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[1::2] = np.concatenate([_WG[:-1], _WG[::-1]])
_W_ERROR = _W_KRONROD - _W_GAUSS


# the target error of a whole integral is max(_ABS_TOL, _REL_TOL |I|);
# _MAX_SUBDIVISIONS caps the subintervals of each panel
_ABS_TOL = 1e-10
_REL_TOL = 1e-8
_MAX_SUBDIVISIONS = 200


def _at_nodes(p, integrand, u):
    """integrand(u, y, lp) on the node array u, zero where y = e^u
    underflows (u < _U_TINY) or overflows (u > 709) or lp = log f(y) is
    not finite."""
    with np.errstate(under="ignore"):
        y = np.exp(np.clip(u, _U_TINY, 709.0))
    ok = (u >= _U_TINY) & (u <= 709.0)
    y = np.where(ok, y, 1.0)
    lp = log_pdf(p, y)
    ok &= np.isfinite(lp)
    with np.errstate(all="ignore"):
        vals = integrand(u, y, lp)
    return np.where(ok, vals, 0.0)


def _panel_quad(p, integrand):
    """Integrate integrand(u, y, lp) du over the whole line u = ln y.

    integrand receives node arrays u, y = e^u and lp = log f(y) and returns
    the du-integrand (the e^u Jacobian included by the caller) as an array.
    Points where y underflows (below the smallest normal double) or
    overflows (u > 709), or lp is not finite, contribute nothing: every
    engine here integrates only when its integrand vanishes at both ends.

    The line is split into panels at the quantiles _PANEL_CUTS.  The two
    end panels, (-inf, ln Q(1e-9)) and (ln Q(1 - 1e-10), +inf), are mapped
    onto s in [0, 1) by u = u0 -/+ s/(1 - s), so no tail is dropped; the
    lower one stops at _U_TINY, below which nothing contributes.  Each
    round applies the Gauss-Kronrod 7/15 rule (Piessens et al., QUADPACK,
    1983) to every live subinterval of every panel at once: one array call
    to the integrand, and so to log_pdf, per round.  |K15 - G7| is the
    error estimate.  As in quadgk (Shampine 2008), a subinterval is
    accepted when its error is within its length's share of the target
    max(_ABS_TOL, _REL_TOL |I|), and the others are bisected; the loop ends
    when the summed error meets the target or every subinterval is
    accepted.  A panel whose bisections would take it past
    _MAX_SUBDIVISIONS is accepted as it stands, and an IntegrationWarning
    says so.
    """
    with np.errstate(divide="ignore"):
        cuts = np.maximum(np.log(quantile(p, np.array(_PANEL_CUTS))), _U_TINY)
    n_panels = cuts.size + 1
    # per panel: -1 for the lower tail, +1 for the upper, 0 in between
    side = np.zeros(n_panels)
    side[0], side[-1] = -1.0, 1.0
    anchor = np.zeros(n_panels)
    anchor[0], anchor[-1] = cuts[0], cuts[-1]
    depth = cuts[0] - _U_TINY
    lo = np.concatenate([[0.0], cuts[:-1], [0.0]])
    hi = np.concatenate([[depth / (1.0 + depth)], cuts[1:], [1.0]])
    panel = np.arange(n_panels)
    share = 2.0 / (hi - lo).sum()
    count = np.ones(n_panels, dtype=int)
    total = err_done = 0.0
    exhausted = False
    while lo.size:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        s = mid[:, None] + half[:, None] * _NODES
        sd = side[panel][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(sd == 0.0, s, anchor[panel][:, None] + sd * s / (1.0 - s))
            jac = np.where(sd == 0.0, 1.0, 1.0 / (1.0 - s) ** 2)
        f = _at_nodes(p, integrand, u.ravel()).reshape(u.shape) * jac
        est = half * (f @ _W_KRONROD)
        err = np.abs(half * (f @ _W_ERROR))
        tol = max(_ABS_TOL, _REL_TOL * abs(total + est.sum()))
        if err_done + err.sum() <= tol:
            total += est.sum()
            err_done += err.sum()
            break
        refine = err > tol * share * half
        grown = count + np.bincount(panel[refine], minlength=n_panels)
        full = grown > _MAX_SUBDIVISIONS
        if full.any():
            exhausted = True
            refine &= ~full[panel]
            grown[full] = count[full]
        count = grown
        total += est[~refine].sum()
        err_done += err[~refine].sum()
        lo = np.concatenate([lo[refine], mid[refine]])
        hi = np.concatenate([mid[refine], hi[refine]])
        panel = np.concatenate([panel[refine], panel[refine]])
    if exhausted:
        from scipy.integrate import IntegrationWarning

        warnings.warn(
            f"a panel would exceed max_subdivisions={_MAX_SUBDIVISIONS}; "
            f"estimated error {err_done:.3g}",
            IntegrationWarning,
            stacklevel=2,
        )
    return float(total)


def _panel_integral(p, log_integrand):
    """_panel_quad of exp(log_integrand(u, y, lp)), zero where the log
    integrand is <= -700."""

    def integrand(u, y, lp):
        v = log_integrand(u, y, lp)
        return np.where(v > -700.0, np.exp(v), 0.0)

    return _panel_quad(p, integrand)


def moment_numeric(p, k):
    """k-th raw moment E[Y^k] by panelized adaptive quadrature."""
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    return _panel_integral(p, lambda u, y, lp: (k + 1.0) * u + lp)


def mgf_numeric(p, t):
    """Moment generating function E[e^{tY}] by quadrature.

    The density tail decays like exp(-(theta b/gamma) e^{gamma y}), so the
    integral is finite for every real t.
    """
    return _panel_integral(p, lambda u, y, lp: u + t * y + lp)


def shannon_numeric(p):
    """Shannon differential entropy -E[log f(Y)] by quadrature."""

    def integrand(u, y, lp):
        return np.where(u + lp >= -700.0, -np.exp(u + lp) * lp, 0.0)

    return _panel_quad(p, integrand)


def shannon_closed(p):
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
    a, b, c, th, ga = p.a, p.b, p.c, p.theta, p.gamma
    mean = moment_numeric(p, 1)
    mgf_at_gamma = mgf_numeric(p, ga)
    value = (
        log_beta(a / c, b)
        - math.log(c * th)
        - th / ga
        - ga * mean
        + (th / ga) * mgf_at_gamma
        + (a - 1.0) * digamma_diff(a, b)
        + (b - 1.0) * digamma_diff(b, a)
    )
    reference = shannon_numeric(p)
    scale = max(1.0, abs(reference))
    fidelity_ok = abs(value - reference) <= 1e-4 * scale
    return value, fidelity_ok


def renyi_numeric(p, rho):
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
    total = _panel_integral(p, lambda u, y, lp: u + rho * lp)
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
    if measure == "bowley":
        fn, ts = bowley, (0.25, 0.5, 0.75)
    else:
        fn, ts = moors, tuple(k / 8.0 for k in range(1, 8))
    rows = []
    for c in c_grid:
        params = McGParams(a, b, float(c), theta, gamma)
        qs = dict(zip(ts, quantile(params, np.array(ts)).tolist()))
        value = fn(qs.__getitem__)
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
