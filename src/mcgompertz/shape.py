"""Numeric engines for moments, MGF, entropies, and quantile shape measures.

Every expectation here is an integral computed by one vectorized adaptive
quadrature engine, `_panel_quad`.  It integrates in the log of the
observation variable: the density can spike like y^{a-1} at the origin,
and such power laws are hard to integrate in the linear variable, while in
u = ln y they are smooth exponentials.  Panels are split at fixed
quantiles of the distribution itself.  Each refinement round evaluates a
Gauss-Kronrod 7/15 rule on every live subinterval at once, so the density
is called on whole node arrays, once per round; the first round's mesh is
fine enough that most integrals take that round alone.  The engine also
takes a stack of integrands, which share the cuts, the node arrays, the
density calls and the refinement while each keeps its own error target:
shannon_closed takes E[Y], M(gamma) and its Shannon reference from one
such pass.  The targets scale with the integrand: max(1e-10 int |f|,
1e-8 |int f|), so an integral of 1e-35 is held to the same relative
accuracy as one of 1.  Nothing is cached beyond one call.
"""

import math
import warnings

import numpy as np

from .core import McGParams, log_pdf, quantile
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


# the target error of each integral (each row of a stack) is
# max(_ABS_TOL int |f|, _REL_TOL |I|); the first round splits each panel into
# _FIRST_SPLIT equal subintervals, and _MAX_SUBDIVISIONS caps the
# subintervals of each panel, those first ones included
_ABS_TOL = 1e-10
_REL_TOL = 1e-8
_FIRST_SPLIT = 4
_MAX_SUBDIVISIONS = 200


def _at_nodes(p, integrand, u):
    """integrand(u, y, lp) on the node array u, zero where y = e^u
    underflows (u < _U_TINY) or overflows (u > 709) or lp = log f(y) is
    not finite."""
    with np.errstate(under="ignore"):
        y = np.exp(u.clip(_U_TINY, 709.0))
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
    the du-integrand (the e^u Jacobian included by the caller) as an array
    of u's shape, or a stack of R such integrands as an (R,) + u.shape
    array.  Points where y underflows (below the smallest normal double) or
    overflows (u > 709), or lp is not finite, contribute nothing: every
    engine here integrates only when its integrand vanishes at both ends.
    Returns a float, or for a stack an (R,) array of the R integrals.

    The line is split into panels at the quantiles _PANEL_CUTS.  The two
    end panels, (-inf, ln Q(1e-9)) and (ln Q(1 - 1e-10), +inf), are mapped
    onto s in [0, 1) by u = u0 -/+ s/(1 - s), so no tail is dropped; the
    lower one stops at _U_TINY, below which nothing contributes.  The
    first round splits each panel into _FIRST_SPLIT equal subintervals in
    its variable (u, or s on the end panels).  Each round applies the
    Gauss-Kronrod 7/15 rule (Piessens et al., QUADPACK, 1983) to every live
    subinterval of every panel at once: one array call to the integrand,
    and so to log_pdf, per round, whatever R.  |K15 - G7| is the error
    estimate.  Each row r has its own target
    max(_ABS_TOL int |f_r|, _REL_TOL |I_r|), with int |f_r| summed by the
    same Kronrod rule: both terms scale with the integrand, so the target
    is free of its scale, and the first keeps a target where the row's
    signed parts cancel to I_r ~ 0.  As in quadgk (Shampine 2008), a
    subinterval is accepted when, in every row, its error is within its
    length's share of that row's target, and the others are bisected for
    all rows together; the loop ends when every row's summed error meets
    its target or every subinterval is accepted.  A one-row stack thus
    gives bit for bit the single integrand's value.  A panel whose
    bisections would take it past _MAX_SUBDIVISIONS subintervals, its
    _FIRST_SPLIT first ones included, is accepted as it stands, and an
    IntegrationWarning gives the estimated error of the row furthest past
    its target.
    """
    with np.errstate(divide="ignore"):
        cuts = np.maximum(np.log(quantile(p, np.array(_PANEL_CUTS))), _U_TINY)
    n_panels = cuts.size + 1
    # per panel: -1 for the lower tail, +1 for the upper, 0 in between
    side = np.zeros(n_panels)
    side[0], side[-1] = -1.0, 1.0
    # where the tail maps start, cuts[0] below and cuts[-1] above (the
    # middle panels' entries are not used)
    anchor = np.concatenate((cuts[:1], cuts))
    depth = cuts[0] - _U_TINY
    lo = np.zeros(n_panels)
    lo[1:-1] = cuts[:-1]
    hi = np.ones(n_panels)
    hi[1:-1] = cuts[1:]
    hi[0] = depth / (1.0 + depth)
    share = 2.0 / (hi - lo).sum()
    frac = np.arange(_FIRST_SPLIT + 1) / _FIRST_SPLIT
    edges = lo[:, None] * (1.0 - frac) + hi[:, None] * frac
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    panel = np.arange(n_panels).repeat(_FIRST_SPLIT)
    # the panels of each round's bisections; a panel has _FIRST_SPLIT + its
    # bisections subintervals, and their total n_splits bounds every
    # panel's, so they are counted per panel only once that bound could pass
    # the cap
    splits = []
    n_splits = 0
    total = err_done = mag_done = 0.0
    exhausted = False
    while lo.size:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        s = mid[:, None] + half[:, None] * _NODES
        sd = side[panel][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = sd == 0.0
            rest = 1.0 - s
            u = np.where(inner, s, anchor[panel][:, None] + sd * s / rest)
            jac = np.where(inner, 1.0, 1.0 / rest**2)
        vals = _at_nodes(p, integrand, u.ravel())
        # (subintervals, nodes), or (rows, subintervals, nodes) for a stack,
        # whose per-row sums, targets and totals are (rows, 1) columns
        stacked = vals.ndim > 1
        f = vals.reshape(vals.shape[:-1] + u.shape) * jac
        est = half * (f @ _W_KRONROD)
        mag = half * (np.abs(f) @ _W_KRONROD)
        err = np.abs(half * (f @ _W_ERROR))
        tol = np.maximum(_ABS_TOL * (mag_done + mag.sum(-1, keepdims=stacked)),
                         _REL_TOL * abs(total + est.sum(-1, keepdims=stacked)))
        if np.count_nonzero(err_done + err.sum(-1, keepdims=stacked) <= tol) == np.size(tol):
            total += est.sum(-1, keepdims=stacked)
            err_done += err.sum(-1, keepdims=stacked)
            mag_done += mag.sum(-1, keepdims=stacked)
            break
        refine = err > tol * share * half
        if stacked:
            refine = refine.any(0)
        split = panel[refine]
        if _FIRST_SPLIT + n_splits + split.size > _MAX_SUBDIVISIONS:
            grown = _FIRST_SPLIT + np.bincount(np.concatenate(splits + [split]), minlength=n_panels)
            full = grown > _MAX_SUBDIVISIONS
            if full.any():
                exhausted = True
                refine &= ~full[panel]
                split = panel[refine]
        splits.append(split)
        n_splits += split.size
        keep = ~refine
        total += est.compress(keep, -1).sum(-1, keepdims=stacked)
        err_done += err.compress(keep, -1).sum(-1, keepdims=stacked)
        mag_done += mag.compress(keep, -1).sum(-1, keepdims=stacked)
        bisected = mid[refine]
        lo = np.concatenate([lo[refine], bisected])
        hi = np.concatenate([bisected, hi[refine]])
        panel = np.concatenate([split, split])
    total, err_done = np.reshape(total, -1), np.reshape(err_done, -1)
    if exhausted:
        from scipy.integrate import IntegrationWarning

        # a row with no error (an all-zero one, whose target is 0) is not past it
        target = np.maximum(_ABS_TOL * np.reshape(mag_done, -1), _REL_TOL * np.abs(total))
        past = np.divide(err_done, target, out=np.zeros_like(err_done), where=err_done > 0.0)
        worst = np.argmax(past)
        row = f" in row {worst}" if stacked else ""
        warnings.warn(
            f"a panel would exceed max_subdivisions={_MAX_SUBDIVISIONS}; "
            f"estimated error {err_done[worst]:.3g}{row}",
            IntegrationWarning,
            stacklevel=2,
        )
    return total if stacked else float(total[0])


def _exp_or_zero(v):
    """e^v, and 0 where v <= -700."""
    return np.where(v > -700.0, np.exp(v), 0.0)


def _panel_integral(p, log_integrand):
    """_panel_quad of exp(log_integrand(u, y, lp)), zero where the log
    integrand is <= -700."""
    return _panel_quad(p, lambda u, y, lp: _exp_or_zero(log_integrand(u, y, lp)))


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


def _shannon_integrand(u, y, lp):
    return np.where(u + lp >= -700.0, -np.exp(u + lp) * lp, 0.0)


def shannon_numeric(p):
    """Shannon differential entropy -E[log f(Y)] by quadrature."""
    return _panel_quad(p, _shannon_integrand)


def shannon_closed(p):
    """Shannon entropy assembled from the displayed closed form.

    Returns (value, fidelity_ok).  The closed form combines log B(a/c, b),
    the base-rate terms, and digamma differences zeta(r, s) = psi(r+s) -
    psi(r) applied as (a-1) zeta(a, b) + (b-1) zeta(b, a).  Those digamma
    arguments ignore the 1/c rescaling of the generator exponent, so the
    expression is exact at c = 1 and drifts otherwise; the value is always
    checked against shannon_numeric and the flag reports agreement to 1e-4
    relative.  E[Y] and M_Y(gamma) have no closed form; they and the
    reference are the three rows of one stacked panel quadrature, with
    the integrands of moment_numeric, mgf_numeric and shannon_numeric.
    """
    a, b, c, th, ga = p.a, p.b, p.c, p.theta, p.gamma

    def integrands(u, y, lp):
        return np.stack([
            _exp_or_zero(2.0 * u + lp),
            _exp_or_zero(u + ga * y + lp),
            _shannon_integrand(u, y, lp),
        ])

    mean, mgf_at_gamma, reference = _panel_quad(p, integrands).tolist()
    value = (
        log_beta(a / c, b)
        - math.log(c * th)
        - th / ga
        - ga * mean
        + (th / ga) * mgf_at_gamma
        + (a - 1.0) * digamma_diff(a, b)
        + (b - 1.0) * digamma_diff(b, a)
    )
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
    theta, gamma.  The quantiles of the whole grid come from one quantile
    call over a column of c values.  A grid point that is not a valid c
    raises the error McGParams gives it, after the rows before it.
    """
    if measure not in ("bowley", "moors"):
        raise ValueError("measure must be 'bowley' or 'moors'")
    if measure == "bowley":
        fn, ts = bowley, (0.25, 0.5, 0.75)
    else:
        fn, ts = moors, tuple(k / 8.0 for k in range(1, 8))
    # each c is checked on its own, so a bad one raises McGParams's error
    # after the rows before it, as it would in a loop over the grid
    cs, bad = [], None
    for c in c_grid:
        try:
            cs.append(McGParams(a, b, float(c), theta, gamma).c)
        except (TypeError, ValueError) as exc:
            bad = exc
            break
    rows = []
    if cs:
        grid = McGParams(a, b, np.array(cs)[:, None], theta, gamma)
        for c, row in zip(cs, quantile(grid, np.array(ts)).tolist()):
            qs = dict(zip(ts, row))
            rows.append(
                {
                    "c": c,
                    "measure": measure,
                    "value": float(fn(qs.__getitem__)),
                    "a": a,
                    "b": b,
                    "theta": theta,
                    "gamma": gamma,
                }
            )
    if bad is not None:
        raise bad
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
