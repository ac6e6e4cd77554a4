"""Distribution of the i-th order statistic from an McG sample.

Exact routes go through the parent pdf/cdf and the regularized incomplete
beta and are authoritative.  The series routes re-expand powers of the parent
cdf through the mixture machinery; they carry convergence flags and exist to
validate the expansion structure, not to feed results downstream.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _checked_y, _log_b, _log_pdf_halves, base_cdf, cdf, cdf_survival, pdf
from .expansions import _component_moments, cdf_power_coeffs
from .shape import _panel_integral
from .specfun import _float_or_array, inc_beta_reg, log_beta


@dataclass(frozen=True)
class OrderSpec:
    """Rank i within a sample of size n, 1 <= i <= n."""

    i: int
    n: int

    def __post_init__(self):
        if int(self.i) != self.i or int(self.n) != self.n:
            raise ValueError("rank and sample size must be integers")
        if not (1 <= self.i <= self.n):
            raise ValueError("rank must satisfy 1 <= i <= n")


def _beta_weights(spec):
    """Weights w_k with F_{i:n} = sum_k w_k F^{i+k}, k = 0..n-i.

    w_k = (-1)^k C(n-i, k) / (B(i, n-i+1) (i+k)); differentiating term by
    term recovers the order-statistic density, and the sum telescopes to the
    regularized incomplete beta of the parent cdf.
    """
    i, n = spec.i, spec.n
    inv_beta = math.exp(-log_beta(i, n - i + 1))
    return [
        (-1.0) ** k * math.comb(n - i, k) * inv_beta / (i + k) for k in range(n - i + 1)
    ]


def os_pdf(p, spec, y):
    """Density of the i-th of n, f F^{i-1} (1-F)^{n-i} / B(i, n-i+1), from one
    pass.  At w = 0 it is the limit of K y^{a i - 1}, as log_pdf's ln f is:
    0 where a i > 1, +inf where a i < 1, and K = theta c^i / (a^{i-1}
    B(a/c, b)^i B(i, n-i+1)) where a i = 1."""
    i, n = spec.i, spec.n
    lb = log_beta(i, n - i + 1)
    with np.errstate(all="ignore"):
        lp, (F, S), (w, *_) = _log_pdf_halves(p, _checked_y(y))
        f, F, S = map(_float_or_array, (np.exp(lp), F, S))
        out = f * F ** (i - 1) * S ** (n - i) * math.exp(-lb)
        if w.size and w.min() == 0.0:
            ln_k = p.base.log_dw(0.0) + i * (np.log(p.c) - _log_b(p)) - (i - 1) * np.log(p.a)
            at_zero = np.where(p.a * i < 1.0, math.inf, np.exp(ln_k - lb))
            out = _float_or_array(np.where(w == 0.0, np.where(p.a * i > 1.0, 0.0, at_zero), out))
        return out


def os_cdf(p, spec, y):
    """cdf of the i-th of n: the incomplete beta of the parent cdf."""
    return inc_beta_reg(cdf(p, y), spec.i, spec.n - spec.i + 1)


def os_cdf_binomial(p, spec, y):
    """Dual route for os_cdf: the alternating binomial sum in powers of F.

    Algebraically identical to the incomplete-beta route; numerically it
    cancels for large n, which is why the beta route is the authority.
    """
    F = cdf(p, y)
    return sum(w * F ** (spec.i + k) for k, w in enumerate(_beta_weights(spec)))


def os_moment(p, spec, s):
    """E[Y_{i:n}^s] by the panel quadrature of shape in u = ln y
    (authoritative).

    The log-integrand (s+1)u + ln f + (i-1) ln F + (n-i) ln S - ln B is
    built on each round's node array from one cdf_survival call; a node
    contributes nothing where it is <= -700, including where F or S is 0.
    """
    if s < 1 or int(s) != s:
        raise ValueError("s must be a positive integer")
    i, n = spec.i, spec.n
    lb = log_beta(i, n - i + 1)

    def log_integrand(u, y, lp):
        v = (s + 1.0) * u + lp - lb
        if n > 1:
            F, S = cdf_survival(p, y)
            if i > 1:
                v = v + (i - 1) * np.log(F)
            if n > i:
                v = v + (n - i) * np.log(S)
        return v

    return _panel_integral(p, log_integrand)


def os_moment_series(p, spec, s):
    """Series route for E[Y_{i:n}^s] through the mixture re-expansion.

    Expands each F^{i+k} as G^{a(i+k)} sum_r q_r G^{rc} and reduces every
    term to a GG component moment with shape exponent a(i+k) + rc.  That
    exponent choice is an interpretation: it is the unique reading that
    turns the inner sum into the GG moment expansion (the variant with a
    free scaling symbol in the binomial is not well defined).  Returns
    (value, converged); the quadrature route remains the authority.
    """
    if s < 1 or int(s) != s:
        raise ValueError("s must be a positive integer")
    total = 0.0
    converged = True
    for k, w in enumerate(_beta_weights(spec)):
        m = spec.i + k
        state = cdf_power_coeffs(p, m)
        q = np.array(state.coeffs)
        r = np.flatnonzero(q)
        cm, ok = _component_moments(p.a * m + r * p.c, s, p.theta, p.gamma)
        if np.isnan(cm).any():
            return math.nan, False
        converged = converged and state.converged and bool(ok.all())
        with np.errstate(over="ignore", invalid="ignore"):
            inner = np.cumsum(q[r] * cm)[-1] if len(r) else 0.0
        total += w * float(inner)
    return total, converged


def os_series_cdf(p, spec, y):
    """Series route for os_cdf via the re-expanded powers of the parent cdf.

    Each F^{i+k} becomes G^{a(i+k)} sum_r q_r G^{rc} through the mixture
    weights; returns (value, converged) with the exact os_cdf as authority.
    """
    G = base_cdf(p.base, y)
    total = 0.0
    converged = True
    for k, w in enumerate(_beta_weights(spec)):
        m = spec.i + k
        state = cdf_power_coeffs(p, m)
        converged = converged and state.converged
        inner = sum(q_r * G ** (r * p.c) for r, q_r in enumerate(state.coeffs))
        total += w * G ** (p.a * m) * inner
    return min(max(total, 0.0), 1.0), converged


def os_pdf_identity_defect(p, spec_n, y):
    """max_y |sum_i f_{i:n}(y) - n f(y)|: the order-statistic identity."""
    y = np.asarray(y, dtype=float)
    acc = np.zeros_like(y)
    for i in range(1, spec_n + 1):
        acc += os_pdf(p, OrderSpec(i, spec_n), y)
    return float(np.max(np.abs(acc - spec_n * pdf(p, y))))
