"""Model-comparison statistics: information criteria, K-S test, and LRT.

Everything here is a pure function of fitted results and data. The K-S
p-value uses the asymptotic Kolmogorov law without a parameter-estimation
correction, which is how the reference analyses report it; callers that
surface the p-value should carry that caveat along.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import cdf
from .family import ModelSpec
from .specfun import inc_gamma_upper_reg, kolmogorov_sf


@dataclass(frozen=True)
class GofReport:
    """One model's goodness-of-fit column for a dataset."""

    model: ModelSpec
    neg_loglik: float
    k_params: int
    n_obs: int
    aic: float
    aicc: float | None
    bic: float
    ks_stat: float
    ks_pvalue: float
    lrt_stat: float | None = None
    lrt_df: int | None = None
    lrt_pvalue: float | None = None

    def __post_init__(self):
        for name in ("ks_pvalue", "lrt_pvalue"):
            v = getattr(self, name)
            if v is not None and not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")

    def to_dict(self):
        """Serialize with snake_case keys; the model appears by name."""
        return {**asdict(self), "model": self.model.name}


def info_criteria(neg_loglik, k, n):
    """AIC, AICC, and BIC from a negative log-likelihood.

    Returns (aic, aicc, bic); aicc is None when n <= k + 1, where the
    small-sample correction divides by a nonpositive count.
    """
    k = int(k)
    n = int(n)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    aic = 2.0 * neg_loglik + 2.0 * k
    bic = 2.0 * neg_loglik + k * math.log(n)
    aicc = None
    if n > k + 1:
        aicc = aic + 2.0 * k * (k + 1.0) / (n - k - 1.0)
    return aic, aicc, bic


def ks_test(data, cdf_fn):
    """One-sample Kolmogorov-Smirnov test against a fully specified cdf.

    D is the maximum over the sorted sample of both one-sided gaps between
    the empirical step function and cdf_fn, which handles ties correctly.
    The p-value is the asymptotic Kolmogorov law (no estimation correction).
    cdf_fn is called once on the sorted sample; one that takes only
    scalars (raises TypeError or ValueError on an array) is called point
    by point, where a genuine error raises again.
    """
    ys = np.sort(data.array)
    n = ys.size
    try:
        fv = np.asarray(cdf_fn(ys), dtype=float)
    except (TypeError, ValueError):
        fv = np.array([float(cdf_fn(v)) for v in ys])
    i = np.arange(1, n + 1)
    d = float(np.max(np.maximum(i / n - fv, fv - (i - 1) / n)))
    return d, kolmogorov_sf(d, n)


def lrt(full, nested):
    """Likelihood ratio test of a nested fit against an encompassing fit.

    Both arguments are FitResults on the same dataset; the full model must
    nest the other (`ModelSpec.nests`: KumG nests G, for one, since G is
    KumG at a = c = 1, b = 1) and have more free parameters; df is the
    difference. Returns (statistic, df, p-value). A materially negative
    statistic is returned as-is so the caller can see the optimizer
    failure it implies; its p-value is computed from the statistic
    floored at zero.
    """
    if not full.model.nests(nested.model):
        raise ValueError(f"{nested.model.name} is not nested inside {full.model.name}")
    df = full.model.free_count - nested.model.free_count
    if df <= 0:
        raise ValueError("nested model must have fewer free parameters")
    stat = 2.0 * (nested.neg_loglik - full.neg_loglik)
    return stat, df, chi_square_sf(max(stat, 0.0), df)


def chi_square_sf(x, df):
    """Upper-tail probability of the chi-square distribution."""
    if not (x >= 0.0 and math.isfinite(x)):
        raise ValueError("x must be finite and nonnegative")
    if int(df) != df or df < 1:
        raise ValueError("df must be a positive integer")
    return inc_gamma_upper_reg(df / 2.0, x / 2.0)


def gof_report(fit, data, full_fit=None):
    """Assemble the goodness-of-fit column for one fitted model.

    When full_fit (an encompassing model's fit on the same data) is given,
    the report carries the LRT of fit's model against it.
    """
    k = fit.model.free_count
    aic, aicc, bic = info_criteria(fit.neg_loglik, k, data.n)
    params = fit.params
    d, p = ks_test(data, lambda y: cdf(params, y))
    lrt_stat = lrt_df = lrt_pvalue = None
    if full_fit is not None:
        lrt_stat, lrt_df, lrt_pvalue = lrt(full_fit, fit)
    return GofReport(
        model=fit.model,
        neg_loglik=fit.neg_loglik,
        k_params=k,
        n_obs=data.n,
        aic=aic,
        aicc=aicc,
        bic=bic,
        ks_stat=d,
        ks_pvalue=p,
        lrt_stat=lrt_stat,
        lrt_df=lrt_df,
        lrt_pvalue=lrt_pvalue,
    )
