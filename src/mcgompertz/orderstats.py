"""Distribution of the i-th order statistic from an McG sample.

Exact routes go through the parent pdf/cdf and the regularized incomplete
beta and are authoritative.  The series routes re-expand powers of the parent
cdf through the mixture machinery; they carry convergence flags and exist to
validate the expansion structure, not to feed results downstream.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import cdf, pdf, survival
from .expansions import TruncationPolicy, cdf_power_coeffs, component_moment
from .shape import QuadratureSpec, _panel_quad
from .specfun import inc_beta_reg, log_beta


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
    """Density of the i-th of n: f F^{i-1} (1-F)^{n-i} / B(i, n-i+1)."""
    i, n = spec.i, spec.n
    F = cdf(p, y)
    S = survival(p, y)
    inv_beta = math.exp(-log_beta(i, n - i + 1))
    return pdf(p, y) * F ** (i - 1) * S ** (n - i) * inv_beta


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


def os_moment(p, spec, s, q=None):
    """E[Y_{i:n}^s] by adaptive quadrature in u = ln y (authoritative)."""
    if s < 1 or int(s) != s:
        raise ValueError("s must be a positive integer")
    q = q or QuadratureSpec()
    i, n = spec.i, spec.n
    lb = log_beta(i, n - i + 1)

    def integrand(u, y, lp):
        F = cdf(p, y)
        S = survival(p, y)
        if (i > 1 and F == 0.0) or (n > i and S == 0.0):
            return 0.0
        v = (s + 1.0) * u + lp + (i - 1) * math.log(F) if i > 1 else (s + 1.0) * u + lp
        if n > i:
            v += (n - i) * math.log(S)
        v -= lb
        return math.exp(v) if v > -700.0 else 0.0

    return _panel_quad(p, integrand, q)


def os_moment_series(p, spec, s, policy=None):
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
    policy = policy or TruncationPolicy()
    total = 0.0
    converged = True
    for k, w in enumerate(_beta_weights(spec)):
        m = spec.i + k
        state = cdf_power_coeffs(p, m, policy)
        converged = converged and state.converged
        inner = 0.0
        for r, q_r in enumerate(state.coeffs):
            if q_r == 0.0:
                continue
            beta = p.a * m + r * p.c
            cm, ok = component_moment(beta, s, p.theta, p.gamma, policy)
            if math.isnan(cm):
                return math.nan, False
            converged = converged and ok
            inner += q_r * cm
        total += w * inner
    return total, converged


def os_series_cdf(p, spec, y, policy=None):
    """Series route for os_cdf via the re-expanded powers of the parent cdf.

    Each F^{i+k} becomes G^{a(i+k)} sum_r q_r G^{rc} through the mixture
    weights; returns (value, converged) with the exact os_cdf as authority.
    """
    policy = policy or TruncationPolicy()
    from .core import base_cdf

    G = base_cdf(p.base, y)
    total = 0.0
    converged = True
    for k, w in enumerate(_beta_weights(spec)):
        m = spec.i + k
        state = cdf_power_coeffs(p, m, policy)
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
