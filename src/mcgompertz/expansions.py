"""Series expansions: mixture weights, truncated cdf/pdf, series moments/MGF.

Everything here is a truncated series with an explicit convergence verdict.
The exact routines in core and the quadrature engines in shape are the
authorities; these expansions exist to make the mixture structure usable
(order-statistic series, component moments) and are never allowed to feed
downstream results silently when their flags are off.

The mixture weights use an iterative product for the generalized binomial
coefficient instead of a gamma-function ratio: the ratio form has poles at
integer b, exactly where the interesting sub-models live, while the product
continues through them and terminates the series in finitely many terms.

The weight, component-moment and mgf series are evaluated as term arrays, one
row per series: the binomial terms come from a cumulative product, the running
sums from a cumulative sum, and each row's stop index from the same stop rule
a term-by-term loop would apply, so values and flags are those of that loop.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import McGParams, base_cdf, base_pdf
from .shape import mgf_numeric
from .specfun import log_beta

_OUTER_CAUCHY_TOL = 1e-6
_NORMALIZATION_TOL = 1e-10
_FIDELITY_REL_TOL = 1e-3
# every truncated series takes at most _MAX_TERMS + 1 terms and stops at a
# term within _TERM_TOL (relative to its partial sum where that exceeds 1)
_MAX_TERMS = 200
_TERM_TOL = 1e-12


@dataclass(frozen=True)
class SeriesState:
    """A truncated series: coefficients, where it stopped, and a verdict.

    coeffs holds terms 0..truncation, so it always has truncation+1 entries;
    a converged verdict implies the last stored term met the tolerance.
    """

    coeffs: tuple
    truncation: int
    last_term: float
    converged: bool
    tol: float

    def __post_init__(self):
        if len(self.coeffs) != self.truncation + 1:
            raise ValueError("coeffs must have truncation+1 entries")
        if self.converged and abs(self.last_term) > self.tol:
            raise ValueError("converged state requires |last_term| <= tol")


def _binom_rows(x, n):
    """Signed generalized binomial terms s_i = (-1)^i C(x, i), i = 0..n-1,
    along a new last axis of x.

    Built by the cumulative product s_i = s_{i-1} (i - (x + 1)) / i, which
    stays finite when x is a nonnegative integer (the row simply turns to
    zeros).
    """
    x = np.asarray(x, dtype=float)[..., None]
    i = np.arange(1.0, n)
    s = np.empty(x.shape[:-1] + (n,))
    s[..., 0] = 1.0
    np.subtract(i, x + 1.0, out=s[..., 1:])
    s[..., 1:] /= i
    return np.cumprod(s, axis=-1, out=s)


def _first(mask):
    """Each row's first True index (the last index where there is none),
    and whether there is one."""
    hit = mask.any(axis=-1)
    return np.where(hit, mask.argmax(axis=-1), mask.shape[-1] - 1), hit


def _stopped_sums(terms, first, finite=True, growth=False):
    """Partial sums of the rows of terms, each summed to where it stops.

    A row stops at its first index i where, in this order:
      - the term is not finite, when finite is set (failed);
      - i >= first and |t_i| <= _TERM_TOL max(1, |t_0 + ... + t_i|)
        (summed);
      - i >= 3 and |t_i| > |t_{i-1}|, when growth is set (failed).
    Returns (sums, summed, failed): a row that is neither ran out of terms
    and holds its full sum.
    """
    running = np.cumsum(terms, axis=-1)
    size = np.abs(terms)
    bound = np.abs(running)
    np.maximum(bound, 1.0, out=bound)
    bound *= _TERM_TOL
    small = size <= bound
    small[:, :first] = False
    bad = ~np.isfinite(terms) if finite else np.zeros_like(small)
    ends = bad | small
    if growth:
        ends[:, 3:] |= size[:, 3:] > size[:, 2:-1]
    stop, hit = _first(ends)
    at = np.arange(len(terms)), stop
    ok = hit & ~bad[at] & small[at]
    return running[at], ok, hit & ~ok


def mixture_weights_p(p):
    """Weights p_j of the cdf mixture F(y) = sum_j p_j G(y)^{a+jc}.

    p_j = (-1)^j C(b-1, j) / (B(a/c, b) (a/c + j)).  The state is converged
    when the last term met _TERM_TOL and the partial sum sits within 1e-10
    of the known limit 1.
    """
    alpha = p.a / p.c
    inv_beta = math.exp(-log_beta(alpha, p.b))
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _binom_rows(p.b - 1.0, _MAX_TERMS + 1)
        terms *= inv_beta
        terms /= alpha + np.arange(len(terms))
    small = np.abs(terms) <= _TERM_TOL
    small[0] = False
    stop = int(_first(small)[0])
    coeffs = terms[: stop + 1]
    last = coeffs[-1]
    total = np.cumsum(coeffs)[-1]
    converged = abs(last) <= _TERM_TOL and abs(1.0 - total) <= _NORMALIZATION_TOL
    return SeriesState(
        coeffs=tuple(coeffs.tolist()),
        truncation=stop,
        last_term=float(last),
        converged=bool(converged),
        tol=_TERM_TOL,
    )


def mixture_cdf(p, y):
    """Truncated mixture cdf sum_j p_j G(y)^{a+jc}.

    Returns (value, converged); converged is the weight-series verdict.
    """
    state = mixture_weights_p(p)
    G = base_cdf(p.base, y)
    total = 0.0
    for j, w in enumerate(state.coeffs):
        total += w * G ** (p.a + j * p.c)
    return min(max(total, 0.0), 1.0), state.converged


def mixture_pdf(p, y):
    """Truncated mixture pdf sum_j p_j (a+jc) g(y) G(y)^{a+jc-1}.

    Returns (value, converged); each component is a GG density with shape
    exponent a+jc.
    """
    state = mixture_weights_p(p)
    G = base_cdf(p.base, y)
    g = base_pdf(p.base, y)
    total = 0.0
    for j, w in enumerate(state.coeffs):
        e = p.a + j * p.c
        total += w * e * g * G ** (e - 1.0)
    return max(total, 0.0), state.converged


def power_series_power(b_seq, m, r_max):
    """Coefficients of (sum_k b_k u^k)^m up to order r_max.

    Uses the classical recurrence c_0 = b_0^m,
    c_r = (r b_0)^{-1} sum_{k=1}^{r} [k(m+1) - r] b_k c_{r-k},
    whose bracket is fixed by matching brute-force polynomial convolution
    (the variant bracket [k(m+1) - r + k] already fails on (1+u)^2).
    """
    b_seq = list(b_seq)
    if not b_seq or b_seq[0] == 0.0:
        raise ValueError("power series must have a nonzero constant term")
    if m < 1 or int(m) != m:
        raise ValueError("m must be a positive integer")
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    c = [float(b_seq[0]) ** m]
    for r in range(1, r_max + 1):
        acc = 0.0
        for k in range(1, min(r, len(b_seq) - 1) + 1):
            acc += (k * (m + 1) - r) * b_seq[k] * c[r - k]
        c.append(acc / (r * b_seq[0]))
    return tuple(c)


def cdf_power_coeffs(p, m):
    """Coefficients q_r with F(y)^m = G(y)^{am} sum_r q_r G(y)^{rc}.

    Writes F = G^a sum_j p_j (G^c)^j and raises the inner power series to the
    m-th power through the recurrence above.  The verdict is inherited from
    the weight series.
    """
    state = mixture_weights_p(p)
    r_max = m * state.truncation
    coeffs = power_series_power(state.coeffs, m, r_max)
    # the recurrence leaves rounding residue of relative size where exact
    # zeros belong, so the termination test scales with the coefficients
    scale = max(1.0, max(abs(q) for q in coeffs))
    tol = state.tol * scale
    return SeriesState(
        coeffs=coeffs,
        truncation=r_max,
        last_term=coeffs[-1],
        converged=state.converged and abs(coeffs[-1]) <= tol,
        tol=tol,
    )


# the 80-point Gauss-Legendre rule on [0, 1]; 80 nodes keep the kernel below
# within 4e-14 relative of mpmath for k <= 4 over m in [1e-280, 700]; 64
# nodes leave 1e-10 near m = 1e-16, where the window first reaches length 40
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(80)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS


def _scaled_log_weight_moments(k, m):
    """e^m mu_k(m) over an array m of positive rates, where mu_k(m) is the
    integral over u in [1, inf) of (ln u)^k e^{-mu} du.

    In v = ln u the scaled integral is that of v^k e^{v - m(e^v - 1)} over
    [0, inf).  Past L = ln(1 + 45/m) the integrand carries a fraction of it
    that tends to Q(k + 1, 45) as m grows (3e-20 at k = 0, 1e-11 at k = 8).
    Below L - 40 it rises like e^v to about 45 e^{-40} of its peak near
    v = ln(1/m), so for m < 2e-16 only the window [L - 40, L] is kept,
    dropping about 2e-16 of the integral.  On the window the integrand is
    smooth, so one fixed Gauss-Legendre rule evaluates every rate in one
    array expression.  The value exceeds the float range, and is inf, once
    m falls below about (ln(1/m))^k / 1.8e308.
    """
    # ln(1 + 45/m) without forming 45/m, which overflows for m < 2.5e-307
    stop = np.logaddexp(0.0, math.log(45.0) - np.log(m))
    start = np.maximum(stop - 40.0, 0.0)
    v = np.multiply.outer(stop - start, _GL_NODES)
    v += start[:, None]
    f = v**k * np.exp(v - m[:, None] * np.expm1(v))
    return (stop - start) * (f @ _GL_WEIGHTS)


def _component_moments(betas, k, theta, gamma):
    """E[Y^k] for GG components with shape exponents betas, in one pass.

    Expands each G^{beta-1} binomially: the i-th term of row j is
    s_i(beta_j) e^{m_i} mu_k(m_i) with m_i = (i+1) theta/gamma, so the
    factor e^{m_i} mu_k(m_i) is one vector shared by every row.  The series
    is taken only while e^{m_i} on its own is finite, m_i <= 700: a row that
    runs out of terms there, or reaches a non-finite term, diverges and is
    withheld as nan.  Returns (values, converged) arrays.
    """
    betas = np.asarray(betas, dtype=float)
    rate = theta / gamma
    m = (np.arange(_MAX_TERMS + 1) + 1.0) * rate
    m = m[: np.count_nonzero(m <= 700.0)]
    if len(m) == 0:
        return np.full(len(betas), math.nan), np.zeros(len(betas), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _binom_rows(betas - 1.0, len(m))
        terms *= _scaled_log_weight_moments(k, m)
        sums, converged, failed = _stopped_sums(terms, first=1)
        values = betas * rate / gamma**k * sums
    # running out of terms at m_i > 700 is a divergence, not a truncation
    values[failed | ~converged & (len(m) <= _MAX_TERMS)] = math.nan
    return values, converged


def component_moment(beta, k, theta, gamma):
    """E[Y^k] for one GG component with shape exponent beta.

    The one-row case of _component_moments.  Returns (value, converged).
    """
    values, converged = _component_moments([beta], k, theta, gamma)
    return float(values[0]), bool(converged[0])


def moment_series(p, k):
    """Series k-th moment: sum_j p_j E[Y_j^k] over the GG mixture components.

    Returns (value, converged).  Convergence requires the weight series, each
    component's binomial series, and the outer partial sums (Cauchy within
    1e-6 relative) to all settle; when an exponential factor overflows the
    value is withheld as nan with the flag off.  Where the flag is on the
    value agrees with the quadrature engine, which remains the authority.
    """
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    state = mixture_weights_p(p)
    betas = p.a + np.arange(len(state.coeffs)) * p.c
    values, inner_ok = _component_moments(betas, k, p.theta, p.gamma)
    if np.isnan(values).any():
        return math.nan, False
    with np.errstate(over="ignore", invalid="ignore"):
        increments = np.array(state.coeffs) * values
        total = float(np.cumsum(increments)[-1])
    outer_ok = abs(increments[-1]) <= _OUTER_CAUCHY_TOL * max(1.0, abs(total))
    return total, bool(state.converged and inner_ok.all() and outer_ok)


def _mgf_k_sums(ratio, denoms):
    """The k-series sum_k C(ratio, k) k! / d^{k+1} for each d in denoms.

    A row fails at a non-finite term, or when a term after the third
    outgrows the one before it: the factorial has won.  Returns (sums,
    summed).
    """
    kk = np.arange(_MAX_TERMS + 1, dtype=float)
    binom = np.ones(len(kk))
    binom[1:] = (ratio - kk[:-1]) / (kk[:-1] + 1.0)
    numer = np.cumprod(binom) * np.cumprod(np.maximum(kk, 1.0))
    terms = numer / np.power.outer(denoms, kk + 1.0)
    sums, summed, _ = _stopped_sums(terms, first=0, growth=True)
    return sums, summed


def mgf_series(p, t):
    """Series MGF built from generalized binomial coefficients in t/gamma.

    The double series factorizes: for each mixture component with shape
    exponent beta_j the summand carries no trace of the binomial index i, so
    the i-series is the bare alternating sum of C(beta_j - 1, i) terms and
    the k-series is sum_k C(t/gamma, k) k! / (beta_j theta/gamma)^{k+1}.
    The k-series terminates only when t/gamma is a nonnegative integer;
    otherwise the factorial growth wins and the series diverges.

    Returns (value, summed, faithful): summed says every component series
    reached its stopping tolerance, faithful additionally requires agreement
    with the quadrature MGF within 1e-3 relative.  The quadrature engine is
    the authority; a summed-but-unfaithful outcome is a recorded discrepancy
    of this series form, not a usable value.
    """
    state = mixture_weights_p(p)
    if not state.converged:
        return math.nan, False, False
    betas = p.a + np.arange(len(state.coeffs)) * p.c
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        i_sums, i_ok, _ = _stopped_sums(
            _binom_rows(betas - 1.0, _MAX_TERMS + 1), first=1, finite=False
        )
        if not i_ok.all():
            return math.nan, False, False
        denoms = betas * (p.theta / p.gamma)
        k_sums, k_ok = _mgf_k_sums(t / p.gamma, denoms)
        if not k_ok.all():
            return math.nan, False, False
        total = float(np.cumsum(np.array(state.coeffs) * denoms * i_sums * k_sums)[-1])
    reference = mgf_numeric(p, t)
    faithful = abs(total - reference) <= _FIDELITY_REL_TOL * max(1.0, abs(reference))
    return total, True, faithful
