"""Series expansions: mixture weights, truncated cdf/pdf, series moments/MGF.

Everything here is a truncated series with an explicit convergence verdict.
The exact routines in mcg_core and the quadrature engines in shape are the
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
from scipy import integrate

from .core import McGParams, base_cdf, base_pdf
from .shape import mgf_numeric
from .specfun import Tolerance, expint_e1, log_beta

_OUTER_CAUCHY_TOL = 1e-6
_NORMALIZATION_TOL = 1e-10
_FIDELITY_REL_TOL = 1e-3
# terms per chunk of the series whose terms each cost a scalar call (the
# mu_k quadrature for k >= 2, the C pow of the mgf k-series): a row computes
# fewer than this many terms past its stop
_CHUNK = 16


@dataclass(frozen=True)
class TruncationPolicy:
    """Budget for truncated series: hard term cap and a stop-size tolerance."""

    max_terms: int = 200
    term_tol: float = 1e-12

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if not self.term_tol > 0.0:
            raise ValueError("term_tol must be positive")


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
    tol: Tolerance

    def __post_init__(self):
        if len(self.coeffs) != self.truncation + 1:
            raise ValueError("coeffs must have truncation+1 entries")
        if self.converged and abs(self.last_term) > self.tol.abs_tol:
            raise ValueError("converged state requires |last_term| <= abs_tol")


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


def _stopped_sums(block, n_rows, n, tol, first, chunk, finite=True, growth=False):
    """Partial sums of n_rows series of up to n terms each, where each stops.

    block(rows, start, stop) returns terms start..stop-1 of the given rows.
    A row stops at its first index i where, in this order:
      - the term is not finite, when finite is set (failed);
      - i >= first and |t_i| <= tol max(1, |t_0 + ... + t_i|) (summed);
      - i >= 3 and |t_i| > |t_{i-1}|, when growth is set (failed).
    Terms are taken chunk columns at a time for the rows still running, each
    chunk's running sums continuing the last, so no term is computed twice
    and a row costs fewer than chunk terms past its stop; chunk=n takes
    every term at once.  Returns (sums, summed, failed): a row that is
    neither ran out of terms and holds its full sum.
    """
    sums = np.zeros(n_rows)
    last = np.zeros(n_rows)
    summed = np.zeros(n_rows, dtype=bool)
    failed = np.zeros(n_rows, dtype=bool)
    rows = np.arange(n_rows)
    for start in range(0, n, chunk):
        terms = block(rows, start, min(start + chunk, n))
        # the bound tol max(1, |running sum|), built in place in one scratch
        # array and compared against +-terms, so terms stays signed
        bound = terms.copy()
        bound[:, 0] += sums[rows]
        np.cumsum(bound, axis=-1, out=bound)
        np.abs(bound, out=bound)
        np.maximum(bound, 1.0, out=bound)
        bound *= tol
        small = terms <= bound
        np.negative(bound, out=bound)
        small &= terms >= bound
        del bound
        small[:, : max(first - start, 0)] = False
        bad = ~np.isfinite(terms) if finite else np.zeros_like(small)
        ends = bad | small
        if growth:
            size = np.abs(terms)
            grew = size > np.column_stack([np.abs(last[rows]), size[:, :-1]])
            grew[:, : max(3 - start, 0)] = False
            ends |= grew
        stop, hit = _first(ends)
        at = np.arange(len(rows)), stop
        ok = hit & ~bad[at] & small[at]
        last[rows] = terms[:, -1]
        terms[:, 0] += sums[rows]
        sums[rows] = np.cumsum(terms, axis=-1, out=terms)[at]
        summed[rows] = ok
        failed[rows] = hit & ~ok
        rows = rows[~hit]
        if not len(rows):
            break
    return sums, summed, failed


def mixture_weights_p(p, policy=None):
    """Weights p_j of the cdf mixture F(y) = sum_j p_j G(y)^{a+jc}.

    p_j = (-1)^j C(b-1, j) / (B(a/c, b) (a/c + j)).  The state is converged
    when the last term met term_tol and the partial sum sits within 1e-10 of
    the known limit 1.
    """
    policy = policy or TruncationPolicy()
    alpha = p.a / p.c
    inv_beta = math.exp(-log_beta(alpha, p.b))
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _binom_rows(p.b - 1.0, policy.max_terms + 1)
        terms *= inv_beta
        terms /= alpha + np.arange(len(terms))
    small = np.abs(terms) <= policy.term_tol
    small[0] = False
    stop = int(_first(small)[0])
    coeffs = terms[: stop + 1]
    last = coeffs[-1]
    total = np.cumsum(coeffs)[-1]
    converged = abs(last) <= policy.term_tol and abs(1.0 - total) <= _NORMALIZATION_TOL
    return SeriesState(
        coeffs=tuple(coeffs.tolist()),
        truncation=stop,
        last_term=float(last),
        converged=bool(converged),
        tol=Tolerance(abs_tol=policy.term_tol),
    )


def mixture_cdf(p, y, policy=None):
    """Truncated mixture cdf sum_j p_j G(y)^{a+jc}.

    Returns (value, converged); converged is the weight-series verdict.
    """
    state = mixture_weights_p(p, policy)
    G = base_cdf(p.base, y)
    total = 0.0
    for j, w in enumerate(state.coeffs):
        total += w * G ** (p.a + j * p.c)
    return min(max(total, 0.0), 1.0), state.converged


def mixture_pdf(p, y, policy=None):
    """Truncated mixture pdf sum_j p_j (a+jc) g(y) G(y)^{a+jc-1}.

    Returns (value, converged); each component is a GG density with shape
    exponent a+jc.
    """
    state = mixture_weights_p(p, policy)
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


def cdf_power_coeffs(p, m, policy=None):
    """Coefficients q_r with F(y)^m = G(y)^{am} sum_r q_r G(y)^{rc}.

    Writes F = G^a sum_j p_j (G^c)^j and raises the inner power series to the
    m-th power through the recurrence above.  The verdict is inherited from
    the weight series.
    """
    state = mixture_weights_p(p, policy)
    r_max = m * state.truncation
    coeffs = power_series_power(state.coeffs, m, r_max)
    # the recurrence leaves rounding residue of relative size where exact
    # zeros belong, so the termination test scales with the coefficients
    scale = max(1.0, max(abs(q) for q in coeffs))
    tol = Tolerance(abs_tol=state.tol.abs_tol * scale)
    return SeriesState(
        coeffs=coeffs,
        truncation=r_max,
        last_term=coeffs[-1],
        converged=state.converged and abs(coeffs[-1]) <= tol.abs_tol,
        tol=tol,
    )


_mu_cache = {}


def _log_weight_moment(k, m):
    """mu_k(m) = integral over u in [1, inf) of (ln u)^k e^{-mu} du, k >= 2.

    Adaptive quadrature, cached by (k, m): the moment series reuses the same
    m values across calls at one rate.  k = 1 is E1(m)/m and is evaluated
    over the whole m vector in _log_weight_moments, so it is never cached.
    This scalar integrate.quad path and its cache are what ROADMAP item 3
    replaces with the panel engine.
    """
    key = (k, m)
    if key not in _mu_cache:
        _mu_cache[key], _ = integrate.quad(
            lambda u: math.log(u) ** k * math.exp(-m * u), 1.0, math.inf, limit=200
        )
    return _mu_cache[key]


def _log_weight_moments(k, m):
    """mu_k over an array m of positive rates."""
    if k == 1:
        return expint_e1(m) / m
    return np.array([_log_weight_moment(k, mi) for mi in m.tolist()])


def _component_moments(betas, k, theta, gamma, policy):
    """E[Y^k] for GG components with shape exponents betas, in one pass.

    Expands each G^{beta-1} binomially: the i-th term of row j is
    s_i(beta_j) e^{m_i} mu_k(m_i) with m_i = (i+1) theta/gamma, so the
    factors e^{m_i} and mu_k(m_i) are shared by every row.  Keeping the two
    factors separate mirrors the series as written, and makes the overflow of
    the exponential factor an explicit divergence instead of a silently
    rescued value: a row that reaches m_i > 700 or a non-finite term is
    withheld as nan.  e^{m_i} comes from math.exp one value at a time, since
    numpy's vectorized exp can differ in the last place and the alternating
    sums magnify that.  Returns (values, converged) arrays.
    """
    betas = np.asarray(betas, dtype=float)
    rate = theta / gamma
    m = (np.arange(policy.max_terms + 1) + 1.0) * rate
    m = m[: np.count_nonzero(m <= 700.0)]
    if len(m) == 0:
        return np.full(len(betas), math.nan), np.zeros(len(betas), dtype=bool)
    exp_m = np.fromiter(map(math.exp, m.tolist()), float, len(m))

    def block(rows, start, stop):
        # every column is read once, and the first chunk takes every row, so
        # it is scaled in place
        terms = binom[:, :stop] if start == 0 else binom[rows, start:stop]
        terms *= exp_m[start:stop]
        terms *= _log_weight_moments(k, m[start:stop])
        return terms

    # mu_1 is one vectorized call; higher k costs a quadrature per term
    chunk = len(m) if k == 1 else _CHUNK
    with np.errstate(over="ignore", invalid="ignore"):
        binom = _binom_rows(betas - 1.0, len(m))
        sums, converged, failed = _stopped_sums(
            block, len(betas), len(m), policy.term_tol, first=1, chunk=chunk
        )
        values = betas * rate / gamma**k * sums
    # running out of terms at m_i > 700 is a divergence, not a truncation
    values[failed | ~converged & (len(m) <= policy.max_terms)] = math.nan
    return values, converged


def component_moment(beta, k, theta, gamma, policy):
    """E[Y^k] for one GG component with shape exponent beta.

    The one-row case of _component_moments.  Returns (value, converged).
    """
    values, converged = _component_moments([beta], k, theta, gamma, policy)
    return float(values[0]), bool(converged[0])


def moment_series(p, k, policy=None):
    """Series k-th moment: sum_j p_j E[Y_j^k] over the GG mixture components.

    Returns (value, converged).  Convergence requires the weight series, each
    component's binomial series, and the outer partial sums (Cauchy within
    1e-6 relative) to all settle; when an exponential factor overflows the
    value is withheld as nan with the flag off.  Where the flag is on the
    value agrees with the quadrature engine, which remains the authority.
    """
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    policy = policy or TruncationPolicy()
    state = mixture_weights_p(p, policy)
    betas = p.a + np.arange(len(state.coeffs)) * p.c
    values, inner_ok = _component_moments(betas, k, p.theta, p.gamma, policy)
    if np.isnan(values).any():
        return math.nan, False
    with np.errstate(over="ignore", invalid="ignore"):
        increments = np.array(state.coeffs) * values
        total = float(np.cumsum(increments)[-1])
    outer_ok = abs(increments[-1]) <= _OUTER_CAUCHY_TOL * max(1.0, abs(total))
    return total, bool(state.converged and inner_ok.all() and outer_ok)


def _mgf_k_sums(ratio, denoms, policy):
    """The k-series sum_k C(ratio, k) k! / d^{k+1} for each d in denoms.

    A row fails at a non-finite term, or when a term after the third
    outgrows the one before it: the factorial has won.  Each power d^{k+1}
    is taken from the C library's pow one value at a time (numpy's
    vectorized power can differ in the last place), so the terms are taken a
    chunk at a time: a row stops within a few terms, at its tolerance or as
    soon as the factorial wins.  Returns (sums, summed).
    """
    n = policy.max_terms + 1
    kk = np.arange(n, dtype=float)
    binom = np.ones(n)
    binom[1:] = (ratio - kk[:-1]) / (kk[:-1] + 1.0)
    numer = np.cumprod(binom) * np.cumprod(np.maximum(kk, 1.0))

    def block(rows, start, stop):
        powers = [[d ** (e + 1) for e in range(start, stop)] for d in denoms[rows]]
        return numer[start:stop] / np.array(powers)

    sums, summed, _ = _stopped_sums(
        block, len(denoms), n, policy.term_tol, first=0, chunk=_CHUNK, growth=True
    )
    return sums, summed


def mgf_series(p, t, policy=None):
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
    policy = policy or TruncationPolicy()
    state = mixture_weights_p(p, policy)
    if not state.converged:
        return math.nan, False, False
    betas = p.a + np.arange(len(state.coeffs)) * p.c
    n = policy.max_terms + 1
    with np.errstate(over="ignore", invalid="ignore"):
        i_sums, i_ok, _ = _stopped_sums(
            lambda rows, start, stop: _binom_rows(betas[rows] - 1.0, stop),
            len(betas), n, policy.term_tol, first=1, chunk=n, finite=False,
        )
        if not i_ok.all():
            return math.nan, False, False
        denoms = betas * (p.theta / p.gamma)
        k_sums, k_ok = _mgf_k_sums(t / p.gamma, denoms, policy)
        if not k_ok.all():
            return math.nan, False, False
        total = float(np.cumsum(np.array(state.coeffs) * denoms * i_sums * k_sums)[-1])
    reference = mgf_numeric(p, t)
    faithful = abs(total - reference) <= _FIDELITY_REL_TOL * max(1.0, abs(reference))
    return total, True, faithful
