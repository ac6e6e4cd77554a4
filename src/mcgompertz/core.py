"""Distribution functions for the McDonald generator over a lifetime base.

The family arises by passing a base cdf G(y) = 1 - exp(-w(y)) through the
McDonald (GB1) generator F = I(G^c; a/c, b) where I is the regularized
incomplete beta function.  The base enters only through its cumulative
hazard w(y), ln w'(y) and the inverse y(w): the Gompertz base has
w = (theta/gamma)(e^{gamma y} - 1) (McGParams), and its gamma -> 0 limit,
the exponential base, has w = theta*y (McEParams).  The limit is the same
base class at gamma = 0, branched where the closed form is 0/0, rather
than a tiny gamma, at which (e^{gamma y} - 1)/gamma cancels
catastrophically in doubles.  Every tail-sensitive quantity is
assembled in log space: device-lifetime data push w(y) across hundreds of
orders of magnitude, and the generator argument G^c can underflow while
the cdf is still macroscopically far from 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import (
    _LOG_Y_DEEP,
    _at,
    _float_or_array,
    _log1mexp,
    inc_beta_inv_log,
    inc_beta_reg_logx,
    log_beta,
)

__all__ = [
    "GompertzBase",
    "McGParams",
    "McEParams",
    "base_cdf",
    "base_pdf",
    "pdf",
    "log_pdf",
    "cdf",
    "survival",
    "cdf_survival",
    "hazard",
    "reversed_hazard",
    "quantile",
    "sample",
    "density_limit_at_zero",
]

# beyond this point exp(-w) underflows and the generator factors are
# evaluated through their leading asymptotics instead
_W_DEEP = 700.0
# cap on the terms of the survival series in hazard: its term ratio
# (b + alpha + n) x/(b + 1 + n) tends to x = 1 - G^c < 1
_SERIES_TERMS = 5000
# a derived half of the cdf below this is read from its own argument:
# one minus the other keeps it only to ~1e-12 relative
_DIRECT = 1e-4


def _check_positive(obj, names):
    # a field may be a column of values, one per start of a batched fit
    for name in names:
        v = getattr(obj, name)
        ok = v.min() > 0 and v.max() < math.inf if isinstance(v, np.ndarray) else 0 < v < math.inf
        if not ok:
            raise ValueError(f"{name} must be positive and finite")


def _trusted(cls, *values):
    """An instance of the parameter dataclass `cls` holding `values`, built
    without the check of its __post_init__: for the rates of a checked
    McGParams, and for the points of a fit after its checked starts."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


@dataclass(frozen=True)
class GompertzBase:
    """Gompertz base law: cdf 1 - exp(-(theta/gamma)(e^{gamma y} - 1)).  At
    gamma = 0, which only McEParams builds, it is the exponential base
    1 - exp(-theta*y): w, y(w) and w's partials, 0/0 there, take its forms."""

    theta: float
    gamma: float

    def __post_init__(self):
        _check_positive(self, ("theta", "gamma"))

    def _exponential(self):
        # gamma = 0 comes as a float, never as a column of rates
        return not isinstance(self.gamma, np.ndarray) and self.gamma == 0.0

    def w(self, y):
        """Cumulative hazard (theta/gamma)(e^{gamma y} - 1); +inf when it
        overflows, which downstream code treats as G = 1 exactly."""
        with np.errstate(over="ignore"):
            return self._w(y)

    def _w(self, y):
        """w(y) under the caller's errstate, as a likelihood pass takes it."""
        if self._exponential():
            return self.theta * y
        return (self.theta / self.gamma) * np.expm1(self.gamma * y)

    def log_dw(self, y):
        """ln w'(y) = ln theta + gamma y."""
        return np.log(self.theta) + self.gamma * y

    def y_of_w(self, w):
        """The y with w(y) = w."""
        if self._exponential():
            return w / self.theta
        return np.log1p((self.gamma / self.theta) * w) / self.gamma

    def w_partials(self, y, w):
        """The partials of w(y) in the rates (theta, gamma) per observation,
        and those of ln w'(y) summed over the observations, given w = w(y):
        (dw, d2w, dlw, d2lw) of shapes (..., 2, n), (..., 2, 2, n), (..., 2)
        and (..., 2, 2), where the leading axes are those of (S, 1) rate
        columns (one row per start) and absent for float rates.  Overflow
        gives inf, under the caller's errstate.

        At gamma = 0 they are taken in theta alone: (dw, None, dlw, d2lw) of
        shapes (..., 1, n), (..., 1) and (..., 1, 1), with None for the
        second partials of w = theta*y, which vanish."""
        theta, gamma = self.theta, self.gamma
        if self._exponential():
            dw = np.broadcast_to(y, w.shape[:-1] + (1,) + w.shape[-1:])
            # the partials 1/theta and -1/theta^2 of ln w' = ln theta per
            # observation, in C order like every per-observation array, so
            # a row's sum does not depend on the number of rows
            inv = 1.0 / theta
            lw = np.empty(w.shape[:-1] + (2,) + w.shape[-1:])
            lw[..., 0, :] = inv
            lw[..., 1, :] = -inv / theta
            lw = lw.sum(axis=-1)
            return dw, None, lw[..., :1], lw[..., 1:, None]
        gy = gamma * y
        egy = np.exp(gy)
        s = gy * egy - egy + 1.0
        w_tg = s / gamma**2
        w_gg = theta * (gy**2 * egy - 2.0 * s) / gamma**3
        lead = w.shape[:-1]
        dw = np.empty(lead + (2,) + w.shape[-1:])
        dw[..., 0, :] = w / theta
        dw[..., 1, :] = theta * w_tg
        d2w = np.zeros(lead + (2,) + dw.shape[-2:])
        d2w[..., 0, 1, :] = d2w[..., 1, 0, :] = w_tg
        d2w[..., 1, 1, :] = w_gg
        # the nonzero partials of ln w' = ln theta + gamma y per observation,
        # 1/theta, y and -1/theta^2, summed in one pass
        lw = np.empty(lead + (3,) + w.shape[-1:])
        lw[..., 0, :] = 1.0 / theta
        lw[..., 1, :] = y
        lw[..., 2, :] = -1.0 / theta**2
        lw = lw.sum(axis=-1)
        d2lw = np.zeros(lead + (2, 2))
        d2lw[..., 0, 0] = lw[..., 2]
        return dw, d2w, lw[..., :2], d2lw


@dataclass(frozen=True)
class McGParams:
    """McDonald generator shapes (a, b, c) over a Gompertz base (theta,
    gamma).  All five parameters are strictly positive and finite."""

    a: float
    b: float
    c: float
    theta: float
    gamma: float

    def __post_init__(self):
        _check_positive(self, ("a", "b", "c", "theta", "gamma"))

    @property
    def base(self) -> GompertzBase:
        return _trusted(GompertzBase, self.theta, self.gamma)


@dataclass(frozen=True)
class McEParams:
    """Exponential-base analogue of McGParams: shapes a, b, c over rate
    theta, whose base is GompertzBase at gamma = 0.  All four parameters
    are strictly positive and finite."""

    a: float
    b: float
    c: float
    theta: float

    def __post_init__(self):
        _check_positive(self, ("a", "b", "c", "theta"))

    @property
    def base(self) -> GompertzBase:
        return _trusted(GompertzBase, self.theta, 0.0)


def _checked_y(y):
    arr = np.asarray(y, dtype=float)
    # NaN fails both comparisons
    if arr.size and not (arr.min() >= 0.0 and arr.max() < math.inf):
        raise ValueError("y must be nonnegative and finite")
    return arr


def base_cdf(base, y):
    """G(y) = 1 - exp(-w(y)); 0 at y = 0, 1 once w(y) overflows."""
    arr = _checked_y(y)
    with np.errstate(under="ignore"):
        out = -np.expm1(-base.w(arr))
    return _float_or_array(out)


def base_pdf(base, y):
    """g(y) = w'(y) exp(-w(y)), the base density."""
    arr = _checked_y(y)
    with np.errstate(under="ignore"):
        out = np.exp(base.log_dw(arr) - base.w(arr))
    return _float_or_array(out)


def _log_terms(p, y):
    """The log-space pass of a call at a checked array y: (w, ln G, ln V,
    ln(1 - V), deep), V = G^c, with w broadcast against (m, 1) shape
    columns where its shape differs.  deep marks w > 700, or is None where
    no point is that deep; there e^{-w} underflows, ln(1 - V) is its
    asymptote ln c - w, ln V read back from it.

    Like every private helper of a pass, it enters no errstate of its own:
    each public function that runs a pass (`log_pdf`, `pdf`,
    `cdf_survival`, `hazard`, `reversed_hazard`, `inference.score` and
    `loglik_hessian`, and the fit's driver) runs all of it under one
    np.errstate(all="ignore"), since overflow to inf, underflow to 0 and
    ln 0 = -inf are values the pass is built on.  The arguments are
    checked there too: y by _checked_y, and (a/c, b) once, by `log_beta`
    (_log_b) or, in the fit's pass, by `specfun._psi_sum_differences`."""
    w = p.base._w(y)
    if any(isinstance(v, np.ndarray) for v in (p.a, p.b, p.c)):
        shape = np.broadcast(w, p.a, p.b, p.c).shape
        w = w if shape == w.shape else np.broadcast_to(w, shape)
    ln_g = _log1mexp(w)
    ln_v = p.c * ln_g
    ln_1mv = _log1mexp(-ln_v)
    deep = None
    if w.size and w.max() > _W_DEEP:
        deep = w > _W_DEEP
        ln_1mv = np.where(deep, _log_each(p.c) - w, ln_1mv)
        ln_v = np.where(deep, _log1mexp(-ln_1mv), ln_v)
    return w, ln_g, ln_v, ln_1mv, deep


def _log_b(p):
    """ln B(a/c, b) of the fields of `p`, in their shape (floats or (S, 1)
    columns), checked by `log_beta`."""
    return log_beta(p.a / p.c, p.b)


def _log_pdf_terms(p, y, log_b):
    """ln f(y) on a checked array y with the pass it is built on: (ln f,
    w, ln G, ln V, ln(1 - V), deep), as _log_terms, given log_b, ln B(a/c,
    b) in the shape of the fields (_log_b).

    The fields of `p` may be floats or (S, 1) columns, one row per start
    of a batched fit; the arrays then have shape (S, n).  Where deep,
    ln f is built on the asymptote ln c - w of ln(1 - G^c).
    """
    a, b, c = p.a, p.b, p.c
    log_c = np.log(c)
    lead = log_c - log_b + p.base.log_dw(y)
    # (b - 1) ln(1 - G^c) and b w overflow only where the density is far
    # below the smallest double, and -inf is then the exact ln f
    w, ln_g, ln_v, ln_1mv, deep = _log_terms(p, y)
    out = lead - w + (a - 1.0) * ln_g + (b - 1.0) * ln_1mv
    if deep is not None:
        out = np.where(deep, lead + (b - 1.0) * log_c - b * w, out)
    if w.size and w.min() == 0.0:
        at_zero = np.where(a < 1.0, math.inf, np.where(a == 1.0, lead, -math.inf))
        out = np.where(w == 0.0, at_zero, out)
    return out, w, ln_g, ln_v, ln_1mv, deep


def log_pdf(p, y):
    """ln f(y), assembled entirely in log space: -inf where the density
    vanishes, +inf at y = 0 when a < 1 (the boundary spike), and past
    w = 700, where e^{-w} underflows, built on the asymptote ln c - w of
    ln(1 - G^c).  The w = 0 and w > 700 forms are patched in only where
    they occur."""
    with np.errstate(all="ignore"):
        return _float_or_array(_log_pdf_terms(p, _checked_y(y), _log_b(p))[0])


def pdf(p, y):
    """f(y) = exp(log_pdf); +inf at y = 0 when a < 1."""
    with np.errstate(all="ignore"):
        return _float_or_array(np.exp(_log_pdf_terms(p, _checked_y(y), _log_b(p))[0]))


def _log_each(v):
    """ln v by math.log, element by element for an array, in its shape: a
    column of shapes then gives bit for bit what its floats do."""
    if isinstance(v, np.ndarray):
        return np.array([math.log(x) for x in v.ravel().tolist()]).reshape(v.shape)
    return math.log(v)


def _halves(p, ln_v, ln_1mv):
    """(F, S) from the pass's ln V and ln(1 - V), V = G^c, to whose shape
    the fields of `p` broadcast.

    F = I(V; a/c, b) and S = I(1 - V; b, a/c) by one rule: the half whose
    argument is at most 1/2 is read from its log, which may underflow, by
    the log-argument incomplete beta, and the other is one minus it or,
    below 1e-4, read from its own argument too, so each half is exact
    where it is the smaller.  At w = 0, F = 0 and S = 1.
    """
    shapes = ((p.a / p.c, p.b), (p.b, p.a / p.c))
    ln_x = (np.asarray(ln_v), np.asarray(ln_1mv))
    halves = (np.empty_like(ln_x[0]), np.empty_like(ln_x[0]))

    def read(side, on, ln):
        halves[side][on] = inc_beta_reg_logx(ln[on], *(_at(v, on) for v in shapes[side]))

    lower = ln_x[0] <= -math.log(2.0)
    for side, on in enumerate((lower, ~lower)):
        if np.count_nonzero(on):
            read(side, on, ln_x[side])
            halves[1 - side][on] = 1.0 - halves[side][on]
    for side, on in enumerate((~lower, lower)):
        on = on & (halves[side] < _DIRECT)
        if np.count_nonzero(on):
            # where the other's argument x is below e^{-690}, 1 - x rounds: read
            # this half at x = e^{-690} and carry 1 - it down to x as x^q
            cut = on & (ln_x[1 - side] < _LOG_Y_DEEP)
            read(side, on, np.where(cut, _log1mexp(-_LOG_Y_DEEP), ln_x[side]))
            carry = _at(shapes[side][1], cut) * (ln_x[1 - side][cut] - _LOG_Y_DEEP)
            halves[side][cut] = -np.expm1(np.log1p(-halves[side][cut]) + carry)
    return halves


def _log_pdf_halves(p, y):
    """ln f, both halves (F, S) and the pass (w, ln G, ln V, ln(1 - V))
    they are read from, at a checked array y."""
    lp, *terms, _ = _log_pdf_terms(p, y, _log_b(p))
    return lp, _halves(p, *terms[2:]), terms


def cdf_survival(p, y):
    """(F(y), 1 - F(y)) from one log-space pass, each exact where it is the
    smaller: a half below 1e-4 is read directly, never as one minus the other.

    G^c may be log-small (the fitted fiber shapes push it below e^{-1000}
    at observed data) and 1 - G^c may underflow (tiny b puts the upper
    quantiles past w = 700); both are handled in log space, so F keeps
    relative precision in the lower tail and S in the deep upper tail,
    on either side of G^c = 1/2.  The fields of `p` may be
    (m, 1) columns, as for log_pdf: row i of the result then equals bit
    for bit what the floats of row i give.
    """
    with np.errstate(all="ignore"):
        terms = _log_terms(p, _checked_y(y))
        F, S = _halves(p, *terms[2:4])
    return _float_or_array(F), _float_or_array(S)


def cdf(p, y):
    """F(y) = I(G(y)^c; a/c, b); see cdf_survival."""
    return cdf_survival(p, y)[0]


def survival(p, y):
    """1 - F(y), keeping relative precision in the deep upper tail; see
    cdf_survival."""
    return cdf_survival(p, y)[1]


def _ratio_by_series(lp, on, pa, q, ln_x, q_ln_1mx):
    """exp(ln f - ln I_x(pa, q)) at the points `on`, from ln f, ln x and
    q ln(1 - x), x < 1, for f over a half I_x(pa, q) that underflows.

    ln I_x(pa, q) = pa ln x + q ln(1 - x) - ln pa - ln B(pa, q)
    + ln sum_n (pa + q)_n/(pa + 1)_n x^n (DLMF 8.17.8), summed term by
    term, is finite there.  Raises where the sum, convergent for every
    x < 1, has not converged.
    """
    pa, q, ln_x, q_ln_1mx = (_at(v, on) for v in (pa, q, ln_x, q_ln_1mx))
    x = np.exp(ln_x)
    term = np.ones_like(x)
    total = np.ones_like(x)
    for n in range(_SERIES_TERMS):
        term = term * ((pa + q + n) / (pa + 1.0 + n)) * x
        total = total + term
        if np.all(term <= 1e-17 * total):
            break
    else:
        raise ValueError("incomplete beta series did not converge")
    ln_i = pa * ln_x + q_ln_1mx - _log_each(pa) - log_beta(pa, q) + np.log(total)
    return np.exp(lp[on] - ln_i)


def hazard(p, y):
    """f/(1-F), from one log-space pass.

    Where (a + c) e^{-w} <= 1e-16 this is the asymptote b*w'(y): the
    relative correction to it is of that order, so it is exact in double
    precision and stays finite where the survival underflows.  Elsewhere,
    where the survival underflows (large b), ln S = ln I(1 - G^c; b, a/c)
    is summed as a series (_ratio_by_series), finite on either side of
    G^c = 1/2; that series raises only where it does not converge.
    """
    return _float_or_array(_pdf_cdf_hazard(p, y)[2])


def _pdf_cdf_hazard(p, y):
    """(f, F, hazard) as arrays from one log-space pass under one errstate,
    bit for bit what pdf, cdf and hazard give: `hazard` takes the third,
    `mcg eval` all three."""
    arr = _checked_y(y)
    with np.errstate(all="ignore"):
        lp, (F, S), (w, ln_g, _, ln_1mv) = _log_pdf_halves(p, arr)
        f = np.exp(lp)
        tail = (p.a + p.c) * np.exp(-w) <= 1e-16
        out = np.where(tail, p.b * np.exp(p.base.log_dw(arr)), f / S)
        under = (S == 0.0) & ~tail
        if np.any(under):
            out[under] = _ratio_by_series(lp, under, p.b, p.a / p.c, ln_1mv, p.a * ln_g)
    return f, F, out


def reversed_hazard(p, y):
    """f/F, from one log-space pass; inf where it exceeds the largest
    double.  Where F underflows (large a/c), ln F = ln I(G^c; a/c, b) is
    summed as a series, the mirror of hazard's.  Raises where w(y) = 0,
    as at y = 0, where the cdf is 0, and where that series does not
    converge."""
    with np.errstate(all="ignore"):
        lp, (F, _), (w, _, ln_v, ln_1mv) = _log_pdf_halves(p, _checked_y(y))
        if w.size and w.min() == 0.0:
            raise ValueError("reversed hazard undefined: cdf is 0")
        out = np.asarray(np.exp(lp) / F)
        under = F == 0.0
        if np.any(under):
            out[under] = _ratio_by_series(lp, under, p.a / p.c, p.b, ln_v, p.b * ln_1mv)
    return _float_or_array(out)


def _w_of_t(a, b, c, t):
    """Base cumulative hazards w with I(G^c; a/c, b) = t, G = 1 - e^{-w}.

    V = I^{-1}(t; a/c, b) enters only through ln V and ln(1 - V), which
    the inverse returns together, each exact where it is the side nearer
    0: tiny a/c (V underflows) and tiny b (1 - V underflows) stay exact.
    w = -ln(1 - V^(1/c)), except where 1 - V < e^{-700}: there the
    inverse of the survival asymptote, w = ln c - ln(1 - V), is exact and
    avoids subnormal intermediates.

    a, b and c are floats or (m, 1) columns, and t broadcasts against
    them: w has the broadcast shape, and row i of an (m, k) result equals
    bit for bit what the floats of row i give at the same t.
    """
    ln_v, ln_1mv = inc_beta_inv_log(t, a / c, b)
    with np.errstate(divide="ignore", under="ignore"):
        # an array also for a 0-d t, so the deep points can be patched
        w = np.asarray(-_log1mexp(-ln_v / c))
    deep = ln_1mv < -_W_DEEP
    if np.count_nonzero(deep):
        w[deep] = _log_each(np.broadcast_to(c, w.shape)[deep]) - np.asarray(ln_1mv)[deep]
    return w


def quantile(p, t):
    """Q(t) for t in (0, 1): invert the beta stage in log space, then
    the base in closed form.

    Finite for every t in (0, 1), including the deep upper tail of tiny b
    and the underflowing lower tail of tiny a/c; NaN is rejected.
    |cdf(Q(t)) - t| <= 1e-8 throughout.

    The fields of `p` may be (m, 1) columns, as for log_pdf; t of shape
    (k,) then gives an (m, k) array whose row i equals bit for bit the
    quantiles of the floats of row i, all from one inverse call.
    """
    arr = np.asarray(t, dtype=float)
    if np.count_nonzero((arr > 0.0) & (arr < 1.0)) < arr.size:
        raise ValueError("quantile requires t in (0, 1)")
    return _float_or_array(p.base.y_of_w(_w_of_t(p.a, p.b, p.c, arr)))


def sample(p, n: int, seed: int):
    """n inverse-transform draws, deterministic for a fixed seed.

    Uniform deviates are taken strictly inside (0, 1) by centering a
    53-bit integer grid, then pushed through the quantile transform.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 1 << 53, size=int(n))
    u = (grid + 0.5) * (1.0 / (1 << 53))
    return np.asarray(quantile(p, u))


def density_limit_at_zero(p):
    """lim_{y -> 0+} f(y), which is pdf(p, 0): c w'(0)/B(1/c, b) at
    a = 1, 0 above, +inf below.  (The density always decays to 0 as y -> inf.)"""
    return pdf(p, 0.0)
