"""Log-domain special functions over ``scipy.special``.

Everything transcendental the rest of the package consumes is reached
through here: log-gamma and beta, digamma/trigamma, the regularized
incomplete beta (plain and log-domain) and its log-domain inverse, the
regularized upper incomplete gamma, the exponential integral E1, and the
asymptotic Kolmogorov survival function.

The kernels are scipy's (Boost.Math backs the incomplete beta and its
inverse).  Every function takes floats (giving floats) or broadcasting
arrays; this module adds the validation and what scipy has no form for:
``log1mexp``, the incomplete beta where its argument underflows (ln y <
-690), the inverse solved in u = ln y where the preimage underflows, and
the differences that cancel when taken from scipy's values: ln B(a, b)
with one argument dwarfing the other, and psi(x + h) - psi(x) and psi'(x
+ h) - psi'(x) at large x: Bernoulli series, run only where needed.
"""

import math

import numpy as np
import scipy.special as sps

__all__ = [
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


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, (arr.ndim == 0)


def _maybe_scalar(arr, scalar):
    return float(arr) if scalar else arr


def _float_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def _positive_finite(x, name):
    arr, scalar = _as_float_array(x)
    # one ufunc pass (NaN fails both comparisons); the np.any/np.all
    # wrappers cost ~15 us on the 0-d arrays of scalar calls
    if not ((arr > 0) & (arr < math.inf)).all():
        raise ValueError(f"{name} requires finite x > 0")
    return arr, scalar


def _positive_pair(x, h, message):
    """(x, h, min, max) with x and h checked finite and > 0: scalars as
    given, compared in Python (~0.2 us, where an array pass costs ~5 us),
    else float arrays broadcast to one shape."""
    if isinstance(x, np.ndarray) or isinstance(h, np.ndarray):
        x, h = np.asarray(x, dtype=float), np.asarray(h, dtype=float)
        if x.shape != h.shape:
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
    a, b, lo, hi = _positive_pair(a, b, "log_beta requires finite a, b > 0")
    return _patched(sps.betaln(a, b), (lo <= 1.0) & (hi >= 10.0), _log_beta_lopsided, lo, hi)


def _log_beta_lopsided(lo, hi):
    t = np.log1p(lo / hi)
    log_poch = (hi - 0.5) * t + lo * np.log(hi + lo) - lo
    return sps.gammaln(lo) - _bernoulli_sum(log_poch, hi, t, _POCH_TAIL)


def beta_fn(a, b):
    """Complete beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b)."""
    return _float_or_array(np.exp(log_beta(a, b)))


def digamma(x):
    """psi(x) for x > 0."""
    arr, scalar = _positive_finite(x, "digamma")
    return _maybe_scalar(sps.digamma(arr), scalar)


def trigamma(x):
    """psi'(x) for x > 0: the Hurwitz zeta(2, x), which is what
    `polygamma(1, x)` evaluates, without its Python-level dispatch."""
    arr, scalar = _positive_finite(x, "trigamma")
    return _maybe_scalar(sps.zeta(2, arr), scalar)


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


def _digamma_diff_asymptotic(x, h):
    t = np.log1p(h / x)
    return _bernoulli_sum(t + h / (2.0 * x * (x + h)), x, t, _PSI_TAIL)


def trigamma_diff(x, h):
    """psi'(x + h) - psi'(x) for x, h > 0, cancellation-free from x = 100
    on like digamma_diff: -h/(x(x + h)) + expm1(-2t)/(2x^2) + sum B_2k
    x^-(2k+1) expm1(-(2k+1) t) with t = log1p(h/x)."""
    x, h, _, _ = _positive_pair(x, h, "trigamma_diff requires finite x, h > 0")
    direct = sps.zeta(2, x + h) - sps.zeta(2, x)
    return _patched(direct, x >= _PSI_ASYMPTOTIC, _trigamma_diff_asymptotic, x, h)


def _trigamma_diff_asymptotic(x, h):
    return _bernoulli_sum(-h / (x * (x + h)), x, np.log1p(h / x), _PSI1_TAIL)


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
    # one ufunc pass per check, counted in C (np.any costs ~8 us a call on
    # 0-d arrays); fmin skips NaN, so only a shape <= 0 raises, as before
    if np.count_nonzero(np.fmin(a, b) <= 0):
        raise ValueError("inc_beta_reg requires a, b > 0")
    if np.count_nonzero((y_arr < 0) | (y_arr > 1)):
        raise ValueError("inc_beta_reg requires y in [0, 1]")
    return _float_or_array(sps.betainc(a, b, y_arr))


def _points(shape, v):
    """v broadcast to `shape` as a flat float array, one value per point."""
    v = np.asarray(v, dtype=float)
    if v.shape != shape:
        full = np.empty(shape)
        full[...] = v
        v = full
    return v.ravel()


def _per_shape(a, b):
    """(a', b', run) for flat per-point shapes a and b (or two floats): one
    (a', b') per run of equal shapes and each point's run, so f(a', b')[run]
    is f at every point while f runs once per shape, not once per point."""
    a, b = np.atleast_1d(a, b)
    first = np.ones(a.size, dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return a[first], b[first], first.cumsum(dtype=np.intp) - 1


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
    those floats would; ln a and ln B are taken once per run of equal
    shapes in row-major order.
    """
    arr, scalar = _as_float_array(log_y)
    if np.count_nonzero(arr > 0):
        raise ValueError("inc_beta_reg_logx requires log_y <= 0")
    # float shapes stay floats: the cdf and survival of large samples
    # call this with one shape pair for every point
    per_point = isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
    shape = arr.shape
    if per_point:
        shape = np.broadcast(arr, a, b).shape
        arr, a, b = (_points(shape, v) for v in (arr, a, b))

    def at(s, mask):
        return s[mask] if per_point else s

    out = np.empty_like(arr)
    tiny = arr < _LOG_Y_DEEP
    upper = arr > -math.log(2.0)
    mid = ~tiny & ~upper
    if np.count_nonzero(mid):
        out[mid] = sps.betainc(at(a, mid), at(b, mid), np.exp(arr[mid]))
    if np.count_nonzero(upper):
        out[upper] = sps.betaincc(at(b, upper), at(a, upper), -np.expm1(arr[upper]))
    if np.count_nonzero(tiny):
        a_t, b_t = at(a, tiny), at(b, tiny)
        a_r, b_r, run = _per_shape(a_t, b_t)
        lead = a_t * arr[tiny] - np.log(a_r)[run] - log_beta(a_r, b_r)[run]
        out[tiny] = np.exp(np.minimum(lead, 0.0))
    return _maybe_scalar(out.reshape(shape), scalar and not shape)


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
    above the split its betainccinv, both of p itself.

    a and b are floats or arrays that broadcast against p, such as (m, 1)
    columns against an (m, k) p, or one shape per point.  Each point is
    inverted with its own shapes, bit for bit as a call with those floats
    would; ln a, ln b, ln B and the split I_{1/2}(a, b) are computed once
    per run of equal shapes in row-major order, so a caller that groups
    its points by shape pays for them once per shape, not per point.
    """
    p_arr, scalar = _as_float_array(p)
    if np.count_nonzero((p_arr > 0) & (p_arr < 1)) < p_arr.size:
        raise ValueError("inc_beta_inv_log requires p in (0, 1)")
    shape = np.broadcast(p_arr, a, b).shape
    flat, a, b = (_points(shape, v) for v in (p_arr, a, b))
    if np.count_nonzero(a <= 0) or np.count_nonzero(b <= 0):
        raise ValueError("inc_beta_inv_log requires a, b > 0")
    a_r, b_r, run = _per_shape(a, b)
    log_a, log_b, lbeta, half = (
        v[run] for v in (np.log(a_r), np.log(b_r), log_beta(a_r, b_r), sps.betainc(a_r, b_r, 0.5))
    )
    # route on where the solution sits, not on p: with lopsided shapes
    # even p near 1 can have a preimage below 0.5
    upper = flat >= half
    # the upper side is the lower side of 1 - y under the swapped shapes,
    # and ln B is symmetric: both sides share one solve
    p_s = np.where(upper, 1.0 - flat, flat)
    a_s = np.where(upper, b, a)
    b_s = np.where(upper, a, b)
    u0 = (np.log(p_s) + np.where(upper, log_b, log_a) + lbeta) / a_s
    near = np.full_like(flat, math.nan)
    # scipy's inverses keep every digit of p; where 1 - p rounds to 1 above
    # the split no solve in logs could start, and betainccinv needs none
    mid = (u0 >= _U_DEEP) | (p_s == 1.0)
    for side, inverse in ((~upper, sps.betaincinv), (upper, sps.betainccinv)):
        side = side & mid
        if np.count_nonzero(side):
            near[side] = np.log(inverse(a_s[side], b_s[side], flat[side]))
    # the deep points, and any where scipy's inverse gives NaN, are solved in logs
    deep = np.isnan(near)
    if np.count_nonzero(deep):
        near[deep] = _beta_inv_log_deep(p_s[deep], u0[deep], a_s[deep], b_s[deep], lbeta[deep])
    with np.errstate(under="ignore"):
        far = log1mexp(-near)
    scalar = scalar and not shape
    return (
        _maybe_scalar(np.where(upper, far, near).reshape(shape), scalar),
        _maybe_scalar(np.where(upper, near, far).reshape(shape), scalar),
    )


def _beta_inv_log_deep(p, u0, a, b, lbeta):
    # in the deep region I(e^u) ~ exp(a u - ln a - ln B), so u0 is a
    # near-exact start and dI/du = a I to the same accuracy; Newton in u
    # is safeguarded by a bisection bracket.  Every argument holds one
    # value per point; the arrays shrink to the unconverged points.
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
            log_dIdu = a * x + (b - 1.0) * log1mexp(-x) - lbeta
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


def expint_e1(x):
    """Exponential integral E1(x) for x > 0."""
    if np.count_nonzero(np.less_equal(x, 0)):
        raise ValueError("expint_e1 requires x > 0")
    return _float_or_array(sps.exp1(x))


def kolmogorov_sf(d, n):
    """Asymptotic Kolmogorov survival probability for statistic d at
    sample size n: 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 n d^2), 1 for d <= 0."""
    if n < 1:
        raise ValueError("kolmogorov_sf requires n >= 1")
    return _float_or_array(sps.kolmogorov(math.sqrt(n) * d))
