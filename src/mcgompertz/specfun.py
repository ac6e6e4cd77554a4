"""Log-domain special functions over ``scipy.special``.

Everything transcendental the rest of the package consumes is reached
through here: ln B, the digamma and trigamma differences, the regularized
incomplete beta (plain and log-domain) and its log-domain inverse, the
regularized upper incomplete gamma, and the asymptotic Kolmogorov
survival function.

The kernels are scipy's (Boost.Math backs the incomplete beta and its
inverse).  Every function takes floats or broadcasting arrays, and its
result is a Python float exactly when it is 0-d.  Shapes are used as
given: the per-shape constants of the incomplete beta and its inverse
(ln a, ln b, ln B, I_{1/2}(a, b)) are taken once per element of the
shapes as passed, floats as floats and (m, 1) columns as columns, and
broadcast against the points.  This module adds what scipy has no form
for: ``log1mexp``, the incomplete beta where its argument underflows
(ln y < -690), the inverse solved in u = ln y where the preimage
underflows, and the differences that cancel when taken from scipy's
values: ln B(a, b) with one argument dwarfing the other, and
psi(x + h) - psi(x) and psi'(x + h) - psi'(x) at large x: Bernoulli
series, run only where needed.

The validation and the errstate sit at the public entry points, once per
call; the private helpers run under their caller's (``_log1mexp`` under
the one of a `core` function or of the fit's driver).  A likelihood pass
takes ln B(a/c, b), both psi differences both ways and psi'(a/c + b)
from one call, ``_psi_sum_differences``, with one check of (a/c, b) and
psi and psi' at a/c + b taken once.
"""

import math

import numpy as np
import scipy.special as sps

__all__ = [
    "digamma_diff",
    "trigamma_diff",
    "log_beta",
    "log1mexp",
    "inc_beta_reg",
    "inc_beta_reg_logx",
    "inc_beta_inv_log",
    "inc_gamma_upper_reg",
    "kolmogorov_sf",
]

# below this ln y the leading power-series term of I_y(a, b) is exact to
# working precision (its corrections are O(y)); scipy would see y = 0
_LOG_Y_DEEP = -690.0
# preimages with ln y below this are solved in u = ln y (or ln(1 - y))
_U_DEEP = -30.0
# Bernoulli numbers B_2, B_4, ..., B_16 for the Stirling-type asymptotic
# series of ln Gamma, psi and psi', whose tails in ln (hi)_lo, psi(x + h) -
# psi(x) and psi'(x + h) - psi'(x) are (coefficients, -powers) pairs
_BERNOULLI_2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_2K = np.arange(2.0, 17.0, 2.0)
_POCH_TAIL = (_BERNOULLI_2K / (_2K * (_2K - 1.0)), 1.0 - _2K)
_PSI_TAIL = (-(_BERNOULLI_2K[:4] / _2K[:4]), -_2K[:4])
_PSI1_TAIL = (np.array((0.5,) + _BERNOULLI_2K[:4]), np.r_[-2.0, -1.0 - _2K[:4]])
# from this argument on, 4 terms of the psi/psi' series are exact to ~1e-16
_PSI_ASYMPTOTIC = 100.0
# the deep inverse solve accepts an error in p of at most _INV_ABS_TOL and
# stops after _INV_MAX_ITER Newton iterations
_INV_ABS_TOL = 1e-12
_INV_MAX_ITER = 300
# a deep start whose relative error is provably at most this is taken as
# it stands; the solve's first test, |I - p| <= _INV_ABS_TOL with p <= 1,
# would accept it too
_START_EXACT = 1e-14


def _float_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def _positive_pair(x, h, message):
    """(x, h, min, max) with x and h checked finite and > 0: scalars as
    given, compared in Python (~0.2 us, where an array pass costs ~5 us),
    else float arrays broadcast to one shape: a 0-d one is filled out with
    np.full, several times cheaper than np.broadcast_arrays."""
    if isinstance(x, np.ndarray) or isinstance(h, np.ndarray):
        x, h = np.asarray(x, dtype=float), np.asarray(h, dtype=float)
        if x.shape != h.shape:
            if not h.ndim:
                h = np.full(x.shape, h)
            elif not x.ndim:
                x = np.full(h.shape, x)
            else:
                x, h = np.broadcast_arrays(x, h)
        lo, hi = np.minimum(x, h), np.maximum(x, h)
        # NaN propagates through both and fails both comparisons
        ok = np.count_nonzero((lo > 0) & (hi < math.inf)) == x.size
    else:
        lo, hi = min(x, h), max(x, h)
        ok = 0 < x < math.inf and 0 < h < math.inf
    if not ok:
        raise ValueError(message)
    return x, h, lo, hi


def _patched(out, mask, series, x, h):
    """out, scipy's value at x and h, with series(x, h) where mask holds, run
    on those elements only (a float for scalars): without any, scipy's cost."""
    if not isinstance(out, np.ndarray):
        return float(series(x, h) if mask else out)
    if np.count_nonzero(mask):
        out[mask] = series(x[mask], h[mask])
    return out


def _bernoulli_sum(out, x, t, tail):
    """out + sum_j coef_j x^-p_j expm1(-p_j t) for tail = (coef, -p), the
    terms of each element added to it one at a time in series order."""
    coef, neg_p = tail
    x, t = np.asarray(x)[..., None], np.asarray(t)[..., None]
    terms = coef * x**neg_p * np.expm1(neg_p * t)
    for j in range(coef.size):
        out = out + terms[..., j]
    return out


def log_beta(a, b):
    """ln B(a, b) for a, b > 0, accurate when one argument dwarfs the other.

    With the smaller argument at most 1 and the larger at least 10, `betaln`
    cancels between its gammaln terms (~2e-11 absolute lost at 1e3-1e4,
    up to ~1e-9 at 1e6).  There ln B(lo, hi) = ln Gamma(lo) - ln (hi)_lo, with the log Pochhammer
    symbol ln Gamma(hi + lo) - ln Gamma(hi) from the difference of the two
    Stirling series taken term by term in log1p(lo/hi): 8 Bernoulli terms
    leave ~1e-16 at hi = 10, and nothing in it cancels.
    """
    a, b, lo, hi = _positive_pair(a, b, "log_beta requires finite a, b > 0")
    return _patched(sps.betaln(a, b), (lo <= 1.0) & (hi >= 10.0), _log_beta_lopsided, lo, hi)


def _log_beta_lopsided(lo, hi):
    t = np.log1p(lo / hi)
    log_poch = (hi - 0.5) * t + lo * np.log(hi + lo) - lo
    return sps.gammaln(lo) - _bernoulli_sum(log_poch, hi, t, _POCH_TAIL)


def digamma_diff(x, h):
    """psi(x + h) - psi(x) for x, h > 0, without the cancellation of the
    direct difference when h << x.

    From x = 100 on, the difference of the two asymptotic series is taken
    term by term: log1p(h/x) + h/(2x(x + h)) - sum B_2k/(2k) x^-2k
    expm1(-2k log1p(h/x)).  Below that the direct difference keeps
    ~1e-16 * |psi(x)| absolute.
    """
    x, h, _, _ = _positive_pair(x, h, "digamma_diff requires finite x, h > 0")
    direct = sps.digamma(x + h) - sps.digamma(x)
    return _patched(direct, x >= _PSI_ASYMPTOTIC, _digamma_diff_asymptotic, x, h)


def _digamma_diff_asymptotic(x, h, t=None):
    if t is None:
        t = np.log1p(h / x)
    return _bernoulli_sum(t + h / (2.0 * x * (x + h)), x, t, _PSI_TAIL)


def trigamma_diff(x, h):
    """psi'(x + h) - psi'(x) for x, h > 0, cancellation-free from x = 100
    on like digamma_diff: -h/(x(x + h)) + expm1(-2t)/(2x^2) + sum B_2k
    x^-(2k+1) expm1(-(2k+1) t) with t = log1p(h/x)."""
    x, h, _, _ = _positive_pair(x, h, "trigamma_diff requires finite x, h > 0")
    direct = sps.zeta(2, x + h) - sps.zeta(2, x)
    return _patched(direct, x >= _PSI_ASYMPTOTIC, _trigamma_diff_asymptotic, x, h)


def _trigamma_diff_asymptotic(x, h, t=None):
    if t is None:
        t = np.log1p(h / x)
    return _bernoulli_sum(-h / (x * (x + h)), x, t, _PSI1_TAIL)


def _psi_sum_differences(x, h):
    """log_beta(x, h), digamma_diff(x, h), digamma_diff(h, x),
    trigamma_diff(x, h), trigamma_diff(h, x) and psi'(x + h) =
    zeta(2, x + h), bit for bit, from one check and scipy's psi and psi' at
    x, h and x + h, each taken once.  Each side takes its asymptotic
    patches where its own x >= 100, from one mask and one t = log1p(h/x)
    shared by the digamma and trigamma series."""
    x, h, lo, hi = _positive_pair(x, h, "ln B and the psi differences require finite x, h > 0")
    log_b = _patched(sps.betaln(x, h), (lo <= 1.0) & (hi >= 10.0), _log_beta_lopsided, lo, hi)
    s = x + h
    psi_s, psi1_s = sps.digamma(s), sps.zeta(2, s)
    # 0-d arrays for scalars, so one masked write serves both
    out = [np.asarray(d) for d in (psi_s - sps.digamma(x), psi_s - sps.digamma(h),
                                    psi1_s - sps.zeta(2, x), psi1_s - sps.zeta(2, h))]
    for j, (u, v) in enumerate(((x, h), (h, x))):
        big = u >= _PSI_ASYMPTOTIC
        if np.count_nonzero(big):
            u, v = np.asarray(u)[big], np.asarray(v)[big]
            t = np.log1p(v / u)
            out[j][big] = _digamma_diff_asymptotic(u, v, t)
            out[j + 2][big] = _trigamma_diff_asymptotic(u, v, t)
    return (log_b, *map(_float_or_array, out), _float_or_array(psi1_s))


def log1mexp(u):
    """ln(1 - exp(-u)) for u > 0, stable at both ends (Maechler 2012).

    Both branches are evaluated on the whole array and the stable one is
    picked per point: cheaper than masked assignment on the arrays the
    likelihood passes.
    """
    with np.errstate(divide="ignore"):
        return _float_or_array(_log1mexp(np.asarray(u, dtype=float)))


def _log1mexp(u):
    """log1mexp as an array (0-d for a float), under the caller's errstate:
    u = 0 divides by zero to -inf."""
    neg = -u
    return np.where(u < math.log(2.0), np.log(-np.expm1(neg)), np.log1p(-np.exp(neg)))


def inc_beta_reg(y, a, b):
    """Regularized incomplete beta I_y(a, b) for y in [0, 1], a, b > 0."""
    y_arr = np.asarray(y, dtype=float)
    # one ufunc pass per check, counted in C (np.any costs ~8 us a call on
    # 0-d arrays); fmin skips NaN, so only a shape <= 0 raises, as before
    if np.count_nonzero(np.fmin(a, b) <= 0):
        raise ValueError("inc_beta_reg requires a, b > 0")
    if np.count_nonzero((y_arr < 0) | (y_arr > 1)):
        raise ValueError("inc_beta_reg requires y in [0, 1]")
    return _float_or_array(sps.betainc(a, b, y_arr))


def _at(v, mask):
    """v at the points where mask holds, for v that broadcasts to the shape
    of mask: a 0-d v as it is, so float shapes stay floats."""
    return np.broadcast_to(v, mask.shape)[mask] if isinstance(v, np.ndarray) and v.ndim else v


def inc_beta_reg_logx(log_y, a, b):
    """I_{exp(log_y)}(a, b) accepting log_y <= 0; stays accurate when
    exp(log_y) underflows and when exp(log_y) would round to 1.

    Deep below the underflow threshold the leading power-series term
    I ~ exp(a*log_y - ln a - ln B(a,b)) is exact to working precision
    (corrections are O(exp(log_y))).  Above ln(1/2) the complement
    1 - exp(log_y) is recovered via expm1 before it can quantize to
    ulps of 1, so the upper tail keeps full relative precision too.

    a and b are floats or arrays that broadcast against log_y, such as
    (m, 1) columns against an (m, k) log_y, or one shape per point.  Each
    point is evaluated with its own shapes, bit for bit as a call with
    those floats would; ln a and ln B are taken once per element of the
    shapes as given, so a caller that passes one shape per point pays for
    them per point.
    """
    arr = np.asarray(log_y, dtype=float)
    if np.count_nonzero(arr > 0):
        raise ValueError("inc_beta_reg_logx requires log_y <= 0")
    shape = np.broadcast(arr, a, b).shape
    if arr.shape != shape:
        arr = np.broadcast_to(arr, shape)
    out = np.empty(shape)
    tiny = arr < _LOG_Y_DEEP
    upper = arr > -math.log(2.0)
    mid = ~tiny & ~upper
    if np.count_nonzero(mid):
        out[mid] = sps.betainc(_at(a, mid), _at(b, mid), np.exp(arr[mid]))
    if np.count_nonzero(upper):
        out[upper] = sps.betaincc(_at(b, upper), _at(a, upper), -np.expm1(arr[upper]))
    if np.count_nonzero(tiny):
        lead = _at(a, tiny) * arr[tiny] - _at(np.log(a), tiny) - _at(log_beta(a, b), tiny)
        out[tiny] = np.exp(np.minimum(lead, 0.0))
    return _float_or_array(out)


def inc_beta_inv_log(p, a, b):
    """(ln y, ln(1 - y)) for the inverse incomplete beta y = I^{-1}_p(a, b),
    p in (0, 1).

    The split is made here, once per point: from p = I_{1/2}(a, b) on, y
    lies above 1/2 and the solve is for 1 - y, with I_{1-y}(b, a) = 1 - p;
    below it the solve is for y.  The other log is log1mexp of the solved
    one.  The solved side is exact even where it underflows (tiny a with
    small p, tiny b with p near 1): below e^{-30}, or where scipy fails,
    it is a Newton solve in its log from the leading-order start
    u0 = (ln p + ln a + ln B)/a; elsewhere it is scipy's betaincinv, or
    above the split its betainccinv, both of p itself.  The start needs no
    solve where DLMF 8.17.7, I_y(a, b) = y^a/(a B) 2F1(a, 1 - b; a + 1; y),
    bounds its relative error by a/(a + 1) q/(1 - q) <= 1e-14, with
    q = e^{u0}(1 + |1 - b|) < 1/2: there u0 is the answer, as the solve's
    first test would accept it, bit for bit.

    a and b are floats or arrays that broadcast against p, such as (m, 1)
    columns against an (m, k) p, or one shape per point.  Each point is
    inverted with its own shapes, bit for bit as a call with those floats
    would; ln a, ln b, ln B and the split I_{1/2}(a, b) are computed once
    per element of the shapes as given, so (m, 1) columns pay for them m
    times, whatever k, and a caller that passes one shape per point pays
    for them per point.
    """
    p_arr = np.asarray(p, dtype=float)
    if np.count_nonzero((p_arr > 0) & (p_arr < 1)) < p_arr.size:
        raise ValueError("inc_beta_inv_log requires p in (0, 1)")
    # fmin skips NaN, which log_beta then rejects
    if np.count_nonzero(np.fmin(a, b) <= 0):
        raise ValueError("inc_beta_inv_log requires a, b > 0")
    shape = np.broadcast(p_arr, a, b).shape
    if p_arr.shape != shape:
        p_arr = np.broadcast_to(p_arr, shape)
    log_a, log_b, lbeta, half = np.log(a), np.log(b), log_beta(a, b), sps.betainc(a, b, 0.5)
    # route on where the solution sits, not on p: with lopsided shapes
    # even p near 1 can have a preimage below 0.5
    upper = p_arr >= half
    # the upper side is the lower side of 1 - y under the swapped shapes,
    # and ln B is symmetric: both sides share one solve
    p_s = np.where(upper, 1.0 - p_arr, p_arr)
    a_s = np.where(upper, b, a)
    b_s = np.where(upper, a, b)
    u0 = (np.log(p_s) + np.where(upper, log_b, log_a) + lbeta) / a_s
    near = np.full(shape, math.nan)
    # scipy's inverses keep every digit of p; where 1 - p rounds to 1 above
    # the split no solve in logs could start, and betainccinv needs none
    mid = (u0 >= _U_DEEP) | (p_s == 1.0)
    for side, inverse in ((~upper, sps.betaincinv), (upper, sps.betainccinv)):
        side = side & mid
        if np.count_nonzero(side):
            near[side] = np.log(inverse(a_s[side], b_s[side], p_arr[side]))
    # the deep points, and any where scipy's inverse gives NaN, are solved in
    # logs, save those whose start is already the root
    deep = np.isnan(near)
    if np.count_nonzero(deep):
        exact = deep & _start_is_exact(u0, a_s, b_s)
        near[exact] = u0[exact]
        deep ^= exact
        if np.count_nonzero(deep):
            lbeta = np.broadcast_to(lbeta, shape)[deep]
            near[deep] = _beta_inv_log_deep(p_s[deep], u0[deep], a_s[deep], b_s[deep], lbeta)
    with np.errstate(under="ignore"):
        far = _log1mexp(-near)
    return (
        _float_or_array(np.where(upper, far, near)),
        _float_or_array(np.where(upper, near, far)),
    )


def _start_is_exact(u0, a, b):
    """Where y0 = e^{u0} solves I_y(a, b) = p to a relative 1e-14.

    By DLMF 8.17.7, I_y(a, b) = y^a/(a B(a, b)) 2F1(a, 1 - b; a + 1; y),
    and u0 makes the factor before 2F1 equal p.  Term n >= 1 of 2F1 - 1 is
    at most a/(a + 1) q^n in size, with q = y(1 + |1 - b|), since
    |(1 - b)_n|/n! <= (1 + |1 - b|)^n and a/(a + n) <= a/(a + 1); so where
    q < 1/2 the relative error of the start is at most a/(a + 1) q/(1 - q),
    tested here without the divisions against _START_EXACT.
    """
    q = np.exp(np.minimum(u0, 0.0)) * (1.0 + np.abs(1.0 - b))
    return (q < 0.5) & (a * q <= _START_EXACT * (a + 1.0) * (1.0 - q))


def _beta_inv_log_deep(p, u0, a, b, lbeta):
    """u = ln y with I_{e^u}(a, b) = p, by Newton in u from u0.

    In the deep region I(e^u) ~ exp(a u - ln a - ln B), so u0 is a
    near-exact start and dI/du = a I to the same accuracy; by DLMF 8.17.7
    the relative error of the start is at most a/(a + 1) q/(1 - q), with
    q = e^{u0}(1 + |1 - b|), and the caller takes u0 as it stands where
    that is at most 1e-14 (_start_is_exact), so only the starts this
    bound does not cover reach here.  Newton in u is safeguarded by a
    bisection bracket and stops on |I - p| <= _INV_ABS_TOL.  Every
    argument holds one value per point; the arrays shrink to the
    unconverged points.
    """
    res = np.empty_like(p)
    pos = np.arange(p.size)
    lo = u0 - 10.0 / a - 1.0
    hi = np.zeros(p.size)
    x = u0
    for _ in range(_INV_MAX_ITER):
        f = inc_beta_reg_logx(x, a, b) - p
        above = f > 0
        hi = np.where(above, np.minimum(hi, x), hi)
        lo = np.where(above, lo, np.maximum(lo, x))
        done = (np.abs(f) <= _INV_ABS_TOL) | ((hi - lo) <= 1e-14 * np.abs(lo))
        n_done = np.count_nonzero(done)
        if n_done:
            res[pos[done]] = x[done]
            if n_done == x.size:
                return res
            keep = ~done
            pos, x, f, p, a, b, lbeta, lo, hi = (
                v[keep] for v in (pos, x, f, p, a, b, lbeta, lo, hi)
            )
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            log_dIdu = a * x + (b - 1.0) * _log1mexp(-x) - lbeta
            xn = x - f * np.exp(-log_dIdu)
        bad = ~np.isfinite(xn) | (xn <= lo) | (xn >= hi)
        xn[bad] = 0.5 * (lo[bad] + hi[bad])
        x = xn
    res[pos] = x
    return res


def inc_gamma_upper_reg(s, x):
    """Regularized upper incomplete gamma Q(s, x), s > 0, x >= 0."""
    if np.count_nonzero(np.less_equal(s, 0)):
        raise ValueError("inc_gamma_upper_reg requires s > 0")
    if np.count_nonzero(np.less(x, 0)):
        raise ValueError("inc_gamma_upper_reg requires x >= 0")
    return _float_or_array(sps.gammaincc(s, x))


def kolmogorov_sf(d, n):
    """Asymptotic Kolmogorov survival probability for statistic d at
    sample size n: 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 n d^2), 1 for d <= 0."""
    if n < 1:
        raise ValueError("kolmogorov_sf requires n >= 1")
    return _float_or_array(sps.kolmogorov(math.sqrt(n) * d))
