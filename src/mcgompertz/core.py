"""Distribution functions for the five-parameter McDonald-Gompertz law.

The family arises by passing a Gompertz base cdf
G(y) = 1 - exp(-(theta/gamma)(e^{gamma y} - 1)) through the McDonald
(GB1) generator F = I(G^c; a/c, b) where I is the regularized
incomplete beta function.  Every tail-sensitive quantity is assembled
in log space: device-lifetime data push gamma*y high enough that the
intermediate w(y) = (theta/gamma)(e^{gamma y} - 1) spans hundreds of
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
    "McGParams",
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


@dataclass(frozen=True)
class GompertzBase:
    """Gompertz base law: cdf 1 - exp(-(theta/gamma)(e^{gamma y} - 1))."""

    theta: float
    gamma: float

    def __post_init__(self):
        for name in ("theta", "gamma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite")


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
        for name in ("a", "b", "c", "theta", "gamma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite")

    @property
    def base(self) -> GompertzBase:
        return GompertzBase(self.theta, self.gamma)


def _checked_y(y):
    arr, scalar = _as_float_array(y)
    arr = arr.astype(float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
        raise ValueError("y must be nonnegative and finite")
    return arr, scalar


def _w_of(theta, gamma, y):
    # w(y) = (theta/gamma)(e^{gamma y} - 1); +inf when it overflows,
    # which downstream code treats as G = 1 exactly
    with np.errstate(over="ignore"):
        return (theta / gamma) * np.expm1(gamma * y)


def base_cdf(base: GompertzBase, y):
    """G(y) for the Gompertz base; 0 at y = 0, 1 once w(y) overflows."""
    arr, scalar = _checked_y(y)
    w = _w_of(base.theta, base.gamma, arr)
    with np.errstate(under="ignore"):
        out = -np.expm1(-w)
    return _maybe_scalar(out, scalar)


def base_pdf(base: GompertzBase, y):
    """g(y) = theta e^{gamma y} exp(-w(y)), the Gompertz density."""
    arr, scalar = _checked_y(y)
    gy = base.gamma * arr
    w = _w_of(base.theta, base.gamma, arr)
    with np.errstate(under="ignore"):
        out = base.theta * np.exp(gy - w)
    return _maybe_scalar(out, scalar)


def log_pdf(p: McGParams, y):
    """ln f(y), assembled entirely in log space.

    Returns -inf where the density vanishes and +inf at y = 0 when
    a < 1 (the boundary spike).  The three regimes are w = 0 (the
    boundary itself), moderate w (all factors representable via
    log1p/expm1 complements), and w > 700 where exp(-w) underflows and
    ln(1 - (1-t)^c) is replaced by its asymptote ln c - w.
    """
    arr, scalar = _checked_y(y)
    a, b, c = p.a, p.b, p.c
    lead = math.log(c) + math.log(p.theta) - log_beta(a / c, b)
    gy = p.gamma * arr
    w = _w_of(p.theta, p.gamma, arr)
    out = np.empty_like(w)
    zero = w == 0.0
    deep = w > _W_DEEP
    mid = ~zero & ~deep
    if np.any(mid):
        wm = w[mid]
        with np.errstate(under="ignore"):
            ln_g = log1mexp(wm)
            ln_k = log1mexp(-c * ln_g)
        out[mid] = lead + gy[mid] - wm + (a - 1.0) * ln_g + (b - 1.0) * ln_k
    if np.any(deep):
        out[deep] = lead + gy[deep] + (b - 1.0) * math.log(c) - b * w[deep]
    if np.any(zero):
        if a < 1.0:
            out[zero] = math.inf
        elif a == 1.0:
            out[zero] = lead
        else:
            out[zero] = -math.inf
    return _maybe_scalar(out, scalar)


def pdf(p: McGParams, y):
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


def cdf(p: McGParams, y):
    """F(y) = I(G(y)^c; a/c, b), exact where G^c underflows and where
    1 - G^c does."""
    arr, scalar = _checked_y(y)
    w = _w_of(p.theta, p.gamma, arr)
    out = np.zeros_like(w)
    pos = w > 0.0
    out[pos] = _cdf_survival_w(p.a, p.b, p.c, w[pos])[0]
    return _maybe_scalar(out, scalar)


def survival(p: McGParams, y):
    """1 - F(y), keeping relative precision in the deep upper tail.

    G^c may be log-small (the fitted fiber shapes push it below e^{-1000}
    at observed data) and 1 - G^c may underflow (tiny b puts the upper
    quantiles past w = 700); both are handled in log space.
    """
    arr, scalar = _checked_y(y)
    w = _w_of(p.theta, p.gamma, arr)
    out = np.ones_like(w)
    pos = w > 0.0
    out[pos] = _cdf_survival_w(p.a, p.b, p.c, w[pos])[1]
    return _maybe_scalar(out, scalar)


def hazard(p: McGParams, y):
    """f/(1-F).  Past w = 700 this is the asymptote b*theta*e^{gamma y}
    (exact to O(e^{-w})), so it stays finite where the survival
    underflows; elsewhere raises where the survival underflows to zero."""
    arr, scalar = _checked_y(y)
    w = _w_of(p.theta, p.gamma, arr)
    deep = w > _W_DEEP
    s = np.asarray(survival(p, arr))
    if np.any((s == 0.0) & ~deep):
        raise ValueError("hazard undefined: survival underflows to 0")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.where(
            deep, p.b * p.theta * np.exp(p.gamma * arr), np.asarray(pdf(p, arr)) / s
        )
    return _maybe_scalar(out, scalar)


def reversed_hazard(p: McGParams, y):
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


def quantile(p: McGParams, t, tol: Tolerance | None = None):
    """Q(t) for t in (0, 1): invert the beta stage in log space, then
    the Gompertz base in closed form.

    Finite for every t in (0, 1), including the deep upper tail of tiny b
    and the underflowing lower tail of tiny a/c.
    |cdf(Q(t)) - t| <= 1e-8 throughout.
    """
    arr, scalar = _as_float_array(t)
    arr = arr.astype(float)
    if arr.size and (np.any(arr <= 0.0) | np.any(arr >= 1.0)):
        raise ValueError("quantile requires t in (0, 1)")
    w = _w_of_t(p.a, p.b, p.c, arr.ravel(), tol).reshape(arr.shape)
    out = np.log1p((p.gamma / p.theta) * w) / p.gamma
    return _maybe_scalar(out, scalar)


def sample(p: McGParams, n: int, seed: int):
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


def density_limit_at_zero(p: McGParams):
    """lim_{y -> 0+} f(y): theta*c/B(1/c, b) at a = 1, 0 above, +inf
    below.  (The density always decays to 0 as y -> inf.)"""
    if p.a < 1.0:
        return math.inf
    if p.a > 1.0:
        return 0.0
    return p.theta * p.c / beta_fn(1.0 / p.c, p.b)
