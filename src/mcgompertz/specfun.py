"""Log-domain special functions over ``scipy.special``.

Everything transcendental the rest of the package consumes is reached
through here: log-gamma and beta, digamma/trigamma, the regularized
incomplete beta and its inverse (plain and log-domain variants), the
regularized upper incomplete gamma, the exponential integral E1, and the
asymptotic Kolmogorov survival function.

The kernels are scipy's (Boost.Math backs the incomplete beta and its
inverse).  This module adds input validation, scalars-in/scalars-out, and
the three pieces scipy has no form for: ``log1mexp``, the incomplete beta
at arguments whose exponential underflows (ln y < -690), and the inverse
solved in u = ln y where the preimage underflows.  ``Tolerance`` controls
that last solve, the one loop left here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sps

__all__ = [
    "Tolerance",
    "log_gamma",
    "digamma",
    "trigamma",
    "beta_fn",
    "log_beta",
    "log1mexp",
    "inc_beta_reg",
    "inc_beta_reg_logx",
    "inc_beta_inv",
    "inc_beta_inv_log",
    "inc_gamma_upper_reg",
    "expint_e1",
    "kolmogorov_sf",
]

# below this ln y the leading power-series term of I_y(a, b) is exact to
# working precision (its corrections are O(y)); scipy would see y = 0
_LOG_Y_DEEP = -690.0
# preimages with ln y below this are solved in u = ln y (or ln(1 - y))
_U_DEEP = -30.0


@dataclass(frozen=True)
class Tolerance:
    """Iteration control for the log-domain inverse.

    abs_tol bounds the accepted error in p; max_iter caps the Newton
    iterations.  rel_tol is kept for callers that carry it along.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_iter: int = 300

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


_DEFAULT_TOL = Tolerance()


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, (arr.ndim == 0)


def _maybe_scalar(arr, scalar):
    return float(arr) if scalar else arr


def _positive_finite(x, name):
    arr, scalar = _as_float_array(x)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} requires finite x > 0")
    return arr, scalar


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    arr, scalar = _positive_finite(x, "log_gamma")
    return _maybe_scalar(sps.gammaln(arr), scalar)


def log_beta(a, b):
    """ln B(a, b) for a, b > 0, accurate when one argument dwarfs the other.

    With the smaller argument at most 1 and the larger above 1e4, `betaln`
    loses up to ~1e-9 absolute to cancellation between its gammaln terms;
    there ln B(lo, hi) = ln Gamma(lo) - ln (hi)_lo, with the Pochhammer
    symbol (hi)_lo = Gamma(hi + lo)/Gamma(hi) from `poch`, which is exact
    to ~1e-16 relative only above 1e4 (its asymptotic branch).
    """
    if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)):
        raise ValueError("log_beta requires finite a, b > 0")
    lo, hi = min(a, b), max(a, b)
    if lo <= 1.0 and hi > 1e4:
        return float(sps.gammaln(lo) - math.log(sps.poch(hi, lo)))
    return float(sps.betaln(a, b))


def beta_fn(a, b):
    """Complete beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b)."""
    return math.exp(log_beta(a, b))


def digamma(x):
    """psi(x) for x > 0."""
    arr, scalar = _positive_finite(x, "digamma")
    return _maybe_scalar(sps.digamma(arr), scalar)


def trigamma(x):
    """psi'(x) for x > 0."""
    arr, scalar = _positive_finite(x, "trigamma")
    return _maybe_scalar(sps.polygamma(1, arr), scalar)


def log1mexp(u):
    """ln(1 - exp(-u)) for u > 0, stable at both ends (Maechler 2012)."""
    arr, scalar = _as_float_array(u)
    arr = arr.astype(float)
    out = np.empty_like(arr)
    small = arr < math.log(2.0)
    with np.errstate(divide="ignore"):
        out[small] = np.log(-np.expm1(-arr[small]))
        out[~small] = np.log1p(-np.exp(-arr[~small]))
    return _maybe_scalar(out, scalar)


def inc_beta_reg(y, a, b):
    """Regularized incomplete beta I_y(a, b) for y in [0, 1], a, b > 0."""
    y_arr, _ = _as_float_array(y)
    if np.any(np.asarray(a) <= 0) or np.any(np.asarray(b) <= 0):
        raise ValueError("inc_beta_reg requires a, b > 0")
    if np.any((y_arr < 0) | (y_arr > 1)):
        raise ValueError("inc_beta_reg requires y in [0, 1]")
    out = sps.betainc(a, b, y_arr)
    return _maybe_scalar(out, np.ndim(out) == 0)


def inc_beta_reg_logx(log_y, a, b):
    """I_{exp(log_y)}(a, b) accepting log_y <= 0; stays accurate when
    exp(log_y) underflows and when exp(log_y) would round to 1.

    Deep below the underflow threshold the leading power-series term
    I ~ exp(a*log_y - ln a - ln B(a,b)) is exact to working precision
    (corrections are O(exp(log_y))).  Above ln(1/2) the complement
    1 - exp(log_y) is recovered via expm1 before it can quantize to
    ulps of 1, so the upper tail keeps full relative precision too.
    """
    arr, scalar = _as_float_array(log_y)
    arr = arr.astype(float)
    if np.any(arr > 0):
        raise ValueError("inc_beta_reg_logx requires log_y <= 0")
    out = np.empty_like(arr)
    tiny = arr < _LOG_Y_DEEP
    upper = arr > -math.log(2.0)
    mid = ~tiny & ~upper
    out[mid] = sps.betainc(a, b, np.exp(arr[mid]))
    out[upper] = sps.betaincc(b, a, -np.expm1(arr[upper]))
    if np.any(tiny):
        lead = a * arr[tiny] - math.log(a) - log_beta(a, b)
        out[tiny] = np.exp(np.minimum(lead, 0.0))
    return _maybe_scalar(out, scalar)


def inc_beta_inv(p, a, b, tol: Tolerance | None = None):
    """Inverse of inc_beta_reg in y, for p in [0, 1].

    The exponential of inc_beta_inv_log on the interior; solutions within
    one ulp of 0 or 1 (extreme shapes) saturate there.
    """
    p_arr, scalar = _as_float_array(p)
    if np.any((p_arr < 0) | (p_arr > 1)):
        raise ValueError("inc_beta_inv requires p in [0, 1]")
    if a <= 0 or b <= 0:
        raise ValueError("inc_beta_inv requires a, b > 0")
    out = np.where(p_arr >= 1.0, 1.0, 0.0)
    inner = (p_arr > 0.0) & (p_arr < 1.0)
    if np.any(inner):
        with np.errstate(under="ignore"):
            out[inner] = np.exp(inc_beta_inv_log(p_arr[inner], a, b, tol))
    return _maybe_scalar(out, scalar)


def inc_beta_inv_log(p, a, b, tol: Tolerance | None = None):
    """ln of the inverse incomplete beta, for p in (0, 1).

    Accurate even when the inverse underflows (tiny a, small p): the
    solve then runs in u = ln y from the leading-order start
    u0 = (ln p + ln a + ln B)/a.  Where the preimage lies above 1/2 the
    complement inverse gives ln y = log1p(-I^{-1}_{1-p}(b, a)).
    Elsewhere the inverse is scipy's betaincinv.
    """
    tol = tol or _DEFAULT_TOL
    p_arr, scalar = _as_float_array(p)
    if np.any((p_arr <= 0) | (p_arr >= 1)):
        raise ValueError("inc_beta_inv_log requires p in (0, 1)")
    if a <= 0 or b <= 0:
        raise ValueError("inc_beta_inv_log requires a, b > 0")
    flat = p_arr.ravel().astype(float)
    out = np.empty_like(flat)
    lbeta = log_beta(a, b)
    u_low = (np.log(flat) + math.log(a) + lbeta) / a
    u_high = (np.log1p(-flat) + math.log(b) + lbeta) / b
    deep_low = u_low < _U_DEEP
    deep_high = (u_high < _U_DEEP) & ~deep_low
    # route on where the solution sits, not on p: with lopsided shapes
    # even p near 1 can have a preimage below 0.5
    lower_half = ~(deep_low | deep_high) & (flat < sps.betainc(a, b, 0.5))
    upper_half = ~(deep_low | deep_high | lower_half)
    if np.any(deep_low):
        out[deep_low] = _beta_inv_log_deep(flat[deep_low], u_low[deep_low], a, b, tol)
    if np.any(deep_high):
        lnz = _beta_inv_log_deep(1.0 - flat[deep_high], u_high[deep_high], b, a, tol)
        with np.errstate(under="ignore"):
            out[deep_high] = np.log1p(-np.exp(lnz))
    out[lower_half] = np.log(sps.betaincinv(a, b, flat[lower_half]))
    out[upper_half] = np.log1p(-sps.betaincinv(b, a, 1.0 - flat[upper_half]))
    return _maybe_scalar(out.reshape(p_arr.shape), scalar)


def _beta_inv_log_deep(p, u0, a, b, tol):
    # in the deep region I(e^u) ~ exp(a u - ln a - ln B), so u0 is a
    # near-exact start and dI/du = a I to the same accuracy; Newton in u
    # is safeguarded by a bisection bracket
    lbeta = log_beta(a, b)
    n = p.size
    res = np.empty_like(p)
    lo = u0 - 10.0 / a - 1.0
    hi = np.zeros(n)
    x = u0.copy()
    idx = np.arange(n)
    for _ in range(tol.max_iter):
        f = np.asarray(inc_beta_reg_logx(x, a, b)) - p[idx]
        above = f > 0
        hi[idx] = np.where(above, np.minimum(hi[idx], x), hi[idx])
        lo[idx] = np.where(above, lo[idx], np.maximum(lo[idx], x))
        done = (np.abs(f) <= tol.abs_tol) | (
            (hi[idx] - lo[idx]) <= 1e-14 * np.abs(lo[idx])
        )
        if np.any(done):
            res[idx[done]] = x[done]
            keep = ~done
            idx, x, f = idx[keep], x[keep], f[keep]
            if idx.size == 0:
                return res
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            log_dIdu = a * x + (b - 1.0) * log1mexp(-x) - lbeta
            xn = x - f * np.exp(-log_dIdu)
        bad = ~np.isfinite(xn) | (xn <= lo[idx]) | (xn >= hi[idx])
        xn[bad] = 0.5 * (lo[idx][bad] + hi[idx][bad])
        x = xn
    res[idx] = x
    return res


def inc_gamma_upper_reg(s, x):
    """Regularized upper incomplete gamma Q(s, x), s > 0, x >= 0."""
    if s <= 0:
        raise ValueError("inc_gamma_upper_reg requires s > 0")
    if x < 0:
        raise ValueError("inc_gamma_upper_reg requires x >= 0")
    return float(sps.gammaincc(s, x))


def expint_e1(x):
    """Exponential integral E1(x) for x > 0."""
    if x <= 0:
        raise ValueError("expint_e1 requires x > 0")
    return float(sps.exp1(x))


def kolmogorov_sf(d, n):
    """Asymptotic Kolmogorov survival probability for statistic d at
    sample size n: 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 n d^2)."""
    if n < 1:
        raise ValueError("kolmogorov_sf requires n >= 1")
    if d <= 0.0:
        return 1.0
    return float(sps.kolmogorov(math.sqrt(n) * d))
