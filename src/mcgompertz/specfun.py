"""Log-domain special functions over ``scipy.special``.

Everything transcendental the rest of the package consumes is reached
through here: log-gamma and beta, digamma/trigamma, the regularized
incomplete beta and its inverse (plain and log-domain variants), the
regularized upper incomplete gamma, the exponential integral E1, and the
asymptotic Kolmogorov survival function.

The kernels are scipy's (Boost.Math backs the incomplete beta and its
inverse).  This module adds input validation, scalars-in/scalars-out, and
the pieces scipy has no form for: ``log1mexp``, the incomplete beta at
arguments whose exponential underflows (ln y < -690), the inverse solved
in u = ln y where the preimage underflows, and the differences that
cancel when taken from scipy's values: ln B(a, b) with one argument
dwarfing the other, psi(x + h) - psi(x) and psi'(x + h) - psi'(x) at
large x.  The last three share one table of Bernoulli numbers.
``Tolerance`` controls the inverse solve.
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
    "digamma_diff",
    "trigamma_diff",
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
# Bernoulli numbers B_2, B_4, ..., B_16 for the Stirling-type asymptotic
# series of ln Gamma, psi and psi'
_BERNOULLI_2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
# from this argument on, 4 terms of the psi/psi' series are exact to ~1e-16
_PSI_ASYMPTOTIC = 100.0


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
    # one ufunc pass (NaN fails both comparisons); the np.any/np.all
    # wrappers cost ~15 us on the 0-d arrays of scalar calls
    if not ((arr > 0) & (arr < math.inf)).all():
        raise ValueError(f"{name} requires finite x > 0")
    return arr, scalar


def _over_columns(fn, x, h):
    """fn(x, h) for a special function `fn` of two floats, called once per
    element where x or h is an array (the (S, 1) parameter columns of a
    batched fit, S small); with float arguments it is fn itself.

    The per-element loop keeps one implementation per special function
    and leaves the float callers' cost untouched: vectorizing log_beta
    or digamma_diff would cost them ~10x per call.
    """
    if not (isinstance(x, np.ndarray) or isinstance(h, np.ndarray)):
        return fn(x, h)
    return np.frompyfunc(fn, 2, 1)(x, h).astype(float)


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    arr, scalar = _positive_finite(x, "log_gamma")
    return _maybe_scalar(sps.gammaln(arr), scalar)


def log_beta(a, b):
    """ln B(a, b) for a, b > 0, accurate when one argument dwarfs the other.

    With the smaller argument at most 1 and the larger at least 10, `betaln`
    cancels between its gammaln terms (~2e-11 absolute lost at 1e3-1e4,
    up to ~1e-9 at 1e6).  There ln B(lo, hi) = ln Gamma(lo) - ln (hi)_lo, with the log Pochhammer
    symbol ln Gamma(hi + lo) - ln Gamma(hi) from the difference of the two
    Stirling series taken term by term in log1p(lo/hi): 8 Bernoulli terms
    leave ~1e-16 at hi = 10, and nothing in it cancels.
    """
    if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)):
        raise ValueError("log_beta requires finite a, b > 0")
    lo, hi = min(a, b), max(a, b)
    if lo <= 1.0 and hi >= 10.0:
        t = math.log1p(lo / hi)
        log_poch = (hi - 0.5) * t + lo * math.log(hi + lo) - lo
        for k, b2k in enumerate(_BERNOULLI_2K, start=1):
            m = 2 * k - 1
            log_poch += b2k / (2 * k * m) * hi**-m * math.expm1(-m * t)
        return float(sps.gammaln(lo)) - log_poch
    return float(sps.betaln(a, b))


def beta_fn(a, b):
    """Complete beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b)."""
    return math.exp(log_beta(a, b))


def digamma(x):
    """psi(x) for x > 0."""
    arr, scalar = _positive_finite(x, "digamma")
    return _maybe_scalar(sps.digamma(arr), scalar)


def trigamma(x):
    """psi'(x) for x > 0: the Hurwitz zeta(2, x), which is what
    `polygamma(1, x)` evaluates, without its Python-level dispatch."""
    arr, scalar = _positive_finite(x, "trigamma")
    return _maybe_scalar(sps.zeta(2, arr), scalar)


def _check_diff_args(x, h, name):
    if not (x > 0 and h > 0 and math.isfinite(x) and math.isfinite(h)):
        raise ValueError(f"{name} requires finite x, h > 0")


def digamma_diff(x, h):
    """psi(x + h) - psi(x) for x, h > 0, without the cancellation of the
    direct difference when h << x.

    From x = 100 on, the difference of the two asymptotic series is taken
    term by term: log1p(h/x) + h/(2x(x + h)) - sum B_2k/(2k) x^-2k
    expm1(-2k log1p(h/x)).  Below that the direct difference keeps
    ~1e-16 * |psi(x)| absolute.
    """
    _check_diff_args(x, h, "digamma_diff")
    if x < _PSI_ASYMPTOTIC:
        return float(sps.digamma(x + h) - sps.digamma(x))
    t = math.log1p(h / x)
    out = t + h / (2.0 * x * (x + h))
    for k, b2k in enumerate(_BERNOULLI_2K[:4], start=1):
        out -= b2k / (2 * k) * x ** (-2 * k) * math.expm1(-2 * k * t)
    return out


def trigamma_diff(x, h):
    """psi'(x + h) - psi'(x) for x, h > 0, cancellation-free from x = 100
    on like digamma_diff: -h/(x(x + h)) + expm1(-2t)/(2x^2) + sum B_2k
    x^-(2k+1) expm1(-(2k+1) t) with t = log1p(h/x)."""
    _check_diff_args(x, h, "trigamma_diff")
    if x < _PSI_ASYMPTOTIC:
        return float(sps.zeta(2, x + h) - sps.zeta(2, x))
    t = math.log1p(h / x)
    out = -h / (x * (x + h)) + 0.5 * math.expm1(-2.0 * t) / (x * x)
    for k, b2k in enumerate(_BERNOULLI_2K[:4], start=1):
        out += b2k * x ** (-2 * k - 1) * math.expm1(-(2 * k + 1) * t)
    return out


def log1mexp(u):
    """ln(1 - exp(-u)) for u > 0, stable at both ends (Maechler 2012).

    Both branches are evaluated on the whole array and the stable one is
    picked per point: cheaper than masked assignment on the arrays the
    likelihood passes.
    """
    arr, scalar = _as_float_array(u)
    with np.errstate(divide="ignore"):
        out = np.where(
            arr < math.log(2.0), np.log(-np.expm1(-arr)), np.log1p(-np.exp(-arr))
        )
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
    """Exponential integral E1(x) for x > 0, of a float or elementwise of
    an array."""
    if np.any(np.asarray(x) <= 0):
        raise ValueError("expint_e1 requires x > 0")
    return sps.exp1(x) if np.ndim(x) else float(sps.exp1(x))


def kolmogorov_sf(d, n):
    """Asymptotic Kolmogorov survival probability for statistic d at
    sample size n: 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 n d^2)."""
    if n < 1:
        raise ValueError("kolmogorov_sf requires n >= 1")
    if d <= 0.0:
        return 1.0
    return float(sps.kolmogorov(math.sqrt(n) * d))
