"""Distribution functions for the McDonald generator over a lifetime base.

The family arises by passing a base cdf G(y) = 1 - exp(-w(y)) through the
McDonald (GB1) generator F = I(G^c; a/c, b) where I is the regularized
incomplete beta function.  The base enters only through its cumulative
hazard w(y), ln w'(y) and the inverse y(w): the Gompertz base has
w = (theta/gamma)(e^{gamma y} - 1) (McGParams), and its gamma -> 0 limit,
the exponential base, has w = theta*y (McEParams).  The limit gets its own
parameter type instead of a tiny gamma, because (e^{gamma y} - 1)/gamma
cancels catastrophically in doubles.  Every tail-sensitive quantity is
assembled in log space: device-lifetime data push w(y) across hundreds of
orders of magnitude, and the generator argument G^c can underflow while
the cdf is still macroscopically far from 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import (
    Tolerance,
    _as_float_array,
    _maybe_scalar,
    beta_fn,
    inc_beta_inv_log,
    inc_beta_reg,
    inc_beta_reg_logx,
    log1mexp,
    log_beta,
)

__all__ = [
    "GompertzBase",
    "ExpBaseParams",
    "McGParams",
    "McEParams",
    "base_cdf",
    "base_pdf",
    "pdf",
    "log_pdf",
    "cdf",
    "survival",
    "hazard",
    "reversed_hazard",
    "quantile",
    "sample",
    "density_limit_at_zero",
]

# beyond this point exp(-w) underflows and the generator factors are
# evaluated through their leading asymptotics instead
_W_DEEP = 700.0
# cap on the terms of the survival series in hazard: with x <= 1/2 the
# term ratio (b + alpha + n) x/(b + 1 + n) is below 3/4 once n > 2 alpha
_SERIES_TERMS = 5000


def _check_positive(obj, names):
    for name in names:
        v = getattr(obj, name)
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class GompertzBase:
    """Gompertz base law: cdf 1 - exp(-(theta/gamma)(e^{gamma y} - 1))."""

    theta: float
    gamma: float

    def __post_init__(self):
        _check_positive(self, ("theta", "gamma"))

    def w(self, y):
        """Cumulative hazard (theta/gamma)(e^{gamma y} - 1); +inf when it
        overflows, which downstream code treats as G = 1 exactly."""
        with np.errstate(over="ignore"):
            return (self.theta / self.gamma) * np.expm1(self.gamma * y)

    def log_dw(self, y):
        """ln w'(y) = ln theta + gamma y."""
        return math.log(self.theta) + self.gamma * y

    def y_of_w(self, w):
        """The y with w(y) = w."""
        return np.log1p((self.gamma / self.theta) * w) / self.gamma


@dataclass(frozen=True)
class ExpBaseParams:
    """Exponential base, the gamma -> 0 limit of the Gompertz base:
    cdf 1 - exp(-theta*y)."""

    theta: float

    def __post_init__(self):
        _check_positive(self, ("theta",))

    def w(self, y):
        """Cumulative hazard theta*y."""
        return self.theta * y

    def log_dw(self, y):
        """ln w'(y) = ln theta at every y."""
        return np.full(np.shape(y), math.log(self.theta))

    def y_of_w(self, w):
        """The y with w(y) = w."""
        return w / self.theta


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
        return GompertzBase(self.theta, self.gamma)


@dataclass(frozen=True)
class McEParams:
    """Exponential-base analogue of McGParams: shapes a, b, c over rate
    theta.  All four parameters are strictly positive and finite."""

    a: float
    b: float
    c: float
    theta: float

    def __post_init__(self):
        _check_positive(self, ("a", "b", "c", "theta"))

    @property
    def base(self) -> ExpBaseParams:
        return ExpBaseParams(self.theta)


def _checked_y(y):
    arr, scalar = _as_float_array(y)
    # NaN fails both comparisons
    if arr.size and not (arr.min() >= 0.0 and arr.max() < math.inf):
        raise ValueError("y must be nonnegative and finite")
    return arr, scalar


def base_cdf(base, y):
    """G(y) = 1 - exp(-w(y)); 0 at y = 0, 1 once w(y) overflows."""
    arr, scalar = _checked_y(y)
    with np.errstate(under="ignore"):
        out = -np.expm1(-base.w(arr))
    return _maybe_scalar(out, scalar)


def base_pdf(base, y):
    """g(y) = w'(y) exp(-w(y)), the base density."""
    arr, scalar = _checked_y(y)
    with np.errstate(under="ignore"):
        out = np.exp(base.log_dw(arr) - base.w(arr))
    return _maybe_scalar(out, scalar)


def log_pdf(p, y):
    """ln f(y), assembled entirely in log space.

    Returns -inf where the density vanishes and +inf at y = 0 when
    a < 1 (the boundary spike).  The three regimes are w = 0 (the
    boundary itself), moderate w (all factors representable via
    log1p/expm1 complements), and w > 700 where exp(-w) underflows and
    ln(1 - (1-t)^c) is replaced by its asymptote ln c - w.  The moderate
    form is evaluated on the whole array and the other two patched in
    only where they occur: the likelihood sums this on every objective
    call of a fit.
    """
    arr, scalar = _checked_y(y)
    a, b, c = p.a, p.b, p.c
    base = p.base
    lead = math.log(c) - log_beta(a / c, b) + base.log_dw(arr)
    w = base.w(arr)
    with np.errstate(under="ignore", invalid="ignore"):
        ln_g = log1mexp(w)
        out = lead - w + (a - 1.0) * ln_g + (b - 1.0) * log1mexp(-c * ln_g)
    deep = w > _W_DEEP
    if deep.any():
        out = np.where(deep, lead + (b - 1.0) * math.log(c) - b * w, out)
    zero = w == 0.0
    if zero.any():
        at_zero = math.inf if a < 1.0 else (lead if a == 1.0 else -math.inf)
        out = np.where(zero, at_zero, out)
    return _maybe_scalar(out, scalar)


def pdf(p, y):
    """f(y) = exp(log_pdf); +inf at y = 0 when a < 1."""
    val = log_pdf(p, y)
    with np.errstate(over="ignore", under="ignore"):
        out = np.exp(val)
    return out


def _cdf_survival_w(a, b, c, w):
    """(F, S) at base cumulative hazards w > 0, where G = 1 - e^{-w}.

    F = I(G^c; a/c, b) is routed through the log-argument incomplete beta
    so G^c may underflow without losing the value.  Where G^c > 1/2 the
    complement 1 - G^c is formed by expm1 and fed to the swapped-argument
    incomplete beta, so S keeps relative precision in the upper tail;
    past w = 700, where e^{-w} underflows, ln(1 - G^c) is its asymptote
    ln c - w.  Each side is one minus the other.
    """
    alpha = a / c
    with np.errstate(under="ignore"):
        u = c * log1mexp(w)
    F = np.empty_like(w)
    S = np.empty_like(w)
    lo = u <= -math.log(2.0)
    deep = ~lo & (w > _W_DEEP)
    mid = ~lo & ~deep
    F[lo] = inc_beta_reg_logx(u[lo], alpha, b)
    S[lo] = 1.0 - F[lo]
    with np.errstate(under="ignore"):
        S[mid] = inc_beta_reg(-np.expm1(u[mid]), b, alpha)
    S[deep] = inc_beta_reg_logx(math.log(c) - w[deep], b, alpha)
    F[~lo] = 1.0 - S[~lo]
    return F, S


def cdf(p, y):
    """F(y) = I(G(y)^c; a/c, b), exact where G^c underflows and where
    1 - G^c does."""
    arr, scalar = _checked_y(y)
    w = p.base.w(arr)
    out = np.zeros_like(w)
    pos = w > 0.0
    out[pos] = _cdf_survival_w(p.a, p.b, p.c, w[pos])[0]
    return _maybe_scalar(out, scalar)


def survival(p, y):
    """1 - F(y), keeping relative precision in the deep upper tail.

    G^c may be log-small (the fitted fiber shapes push it below e^{-1000}
    at observed data) and 1 - G^c may underflow (tiny b puts the upper
    quantiles past w = 700); both are handled in log space.
    """
    arr, scalar = _checked_y(y)
    w = p.base.w(arr)
    out = np.ones_like(w)
    pos = w > 0.0
    out[pos] = _cdf_survival_w(p.a, p.b, p.c, w[pos])[1]
    return _maybe_scalar(out, scalar)


def _log_survival_series(a, b, c, w):
    """ln S at base cumulative hazards w where x = 1 - G^c <= 1/2.

    ln I_x(b, alpha) = b ln x + alpha ln(1 - x) - ln b - ln B(b, alpha)
    + ln sum_n (b + alpha)_n/(b + 1)_n x^n with alpha = a/c (DLMF 8.17.8),
    summed term by term: it stays finite where S underflows (large b).
    Raises where x > 1/2 or the sum has not converged.
    """
    alpha = a / c
    ln_g = log1mexp(w)
    ln_x = log1mexp(-c * ln_g)
    if np.any(ln_x > -math.log(2.0)):
        raise ValueError("hazard undefined: survival underflows to 0")
    x = np.exp(ln_x)
    term = np.ones_like(x)
    total = np.ones_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(_SERIES_TERMS):
            term = term * ((b + alpha + n) / (b + 1.0 + n)) * x
            total = total + term
            if np.all(term <= 1e-17 * total):
                break
        else:
            raise ValueError("hazard undefined: survival series did not converge")
    return b * ln_x + a * ln_g - math.log(b) - log_beta(b, alpha) + np.log(total)


def hazard(p, y):
    """f/(1-F).

    Where (a + c) e^{-w} <= 1e-16 this is the asymptote b*w'(y): the
    relative correction to it is of that order, so it is exact in double
    precision and stays finite where the survival underflows.  Elsewhere,
    where the survival underflows (large b), it is exp(ln f - ln S) with
    ln S from _log_survival_series, which raises where that series does
    not apply.
    """
    arr, scalar = _checked_y(y)
    base = p.base
    w = base.w(arr)
    with np.errstate(under="ignore"):
        tail = (p.a + p.c) * np.exp(-w) <= 1e-16
    s = np.asarray(survival(p, arr))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.where(tail, p.b * np.exp(base.log_dw(arr)), np.asarray(pdf(p, arr)) / s)
    under = (s == 0.0) & ~tail
    if np.any(under):
        ln_s = _log_survival_series(p.a, p.b, p.c, w[under])
        out[under] = np.exp(np.asarray(log_pdf(p, arr[under])) - ln_s)
    return _maybe_scalar(out, scalar)


def reversed_hazard(p, y):
    """f/F.  Raises where the cdf is exactly zero (y = 0 included)."""
    f_val = np.asarray(cdf(p, y))
    if np.any(f_val == 0.0):
        raise ValueError("reversed hazard undefined: cdf is 0")
    return pdf(p, y) / _maybe_scalar(f_val, np.ndim(y) == 0)


def _w_of_t(a, b, c, t, tol):
    """Base cumulative hazards w with I(G^c; a/c, b) = t, G = 1 - e^{-w}.

    V = I^{-1}(t; a/c, b) enters only through logs: ln V where V <= 1/2,
    so tiny a/c (V underflows) stays exact, and ln(1 - V) =
    ln I^{-1}(1 - t; b, a/c) above, so tiny b (1 - V underflows) does too.
    Where 1 - V < e^{-700} the inverse of the survival asymptote,
    w = ln c - ln(1 - V), is exact and avoids subnormal intermediates.
    """
    alpha = a / c
    w = np.empty_like(t)
    hi = t > inc_beta_reg(0.5, alpha, b)
    with np.errstate(divide="ignore", under="ignore"):
        if np.any(~hi):
            ln_v = np.asarray(inc_beta_inv_log(t[~hi], alpha, b, tol))
            w[~hi] = -log1mexp(-ln_v / c)
        if np.any(hi):
            ln_1mv = np.asarray(inc_beta_inv_log(1.0 - t[hi], b, alpha, tol))
            w_mid = -log1mexp(-log1mexp(-ln_1mv) / c)
            w[hi] = np.where(ln_1mv < -_W_DEEP, math.log(c) - ln_1mv, w_mid)
    return w


def quantile(p, t, tol: Tolerance | None = None):
    """Q(t) for t in (0, 1): invert the beta stage in log space, then
    the base in closed form.

    Finite for every t in (0, 1), including the deep upper tail of tiny b
    and the underflowing lower tail of tiny a/c; NaN is rejected.
    |cdf(Q(t)) - t| <= 1e-8 throughout.
    """
    arr, scalar = _as_float_array(t)
    if arr.size and not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("quantile requires t in (0, 1)")
    w = _w_of_t(p.a, p.b, p.c, arr.ravel(), tol).reshape(arr.shape)
    return _maybe_scalar(p.base.y_of_w(w), scalar)


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
    """lim_{y -> 0+} f(y): c w'(0)/B(1/c, b) at a = 1, 0 above, +inf
    below.  (The density always decays to 0 as y -> inf.)"""
    if p.a < 1.0:
        return math.inf
    if p.a > 1.0:
        return 0.0
    return math.exp(p.base.log_dw(0.0)) * p.c / beta_fn(1.0 / p.c, p.b)
