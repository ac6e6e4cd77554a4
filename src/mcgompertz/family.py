"""Sub-model lattice: named specializations and the exponential-base limit.

The five-parameter family contains every model here through two mechanisms:
fixing or tying shape parameters (c=1 gives the beta generator, a=c the
Kumaraswamy generator, a=b=c=1 the bare base) and sending gamma -> 0, which
turns the Gompertz base into the exponential base 1 - exp(-theta*y).  The
gamma -> 0 models are carried by a separate parameter type instead of a tiny
gamma, because (e^{gamma y} - 1)/gamma cancels catastrophically in doubles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _W_DEEP,
    GompertzBase,
    McGParams,
    _cdf_survival_w,
    _w_of_t,
    cdf as _mcg_cdf,
)
from .specfun import inc_beta_reg, log1mexp, log_beta


@dataclass(frozen=True)
class ExpBaseParams:
    """Exponential base, the gamma -> 0 limit of the Gompertz base."""

    theta: float

    def __post_init__(self):
        if not (self.theta > 0.0 and math.isfinite(self.theta)):
            raise ValueError("theta must be positive and finite")


@dataclass(frozen=True)
class McEParams:
    """Exponential-base analogue of McGParams: shapes a, b, c over rate theta."""

    a: float
    b: float
    c: float
    theta: float

    def __post_init__(self):
        for name in ("a", "b", "c", "theta"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite")

    @property
    def base(self):
        return ExpBaseParams(self.theta)


@dataclass(frozen=True)
class ModelSpec:
    """A named sub-model: which parameters are constrained and which are free."""

    name: str
    base: str  # "gompertz" or "exponential"
    constraints: tuple
    free_params: tuple

    @property
    def free_count(self):
        return len(self.free_params)


MODELS = {
    "mcg": ModelSpec("McG", "gompertz", (), ("a", "b", "c", "theta", "gamma")),
    "bg": ModelSpec("BG", "gompertz", (("c", 1.0),), ("a", "b", "theta", "gamma")),
    "kumg": ModelSpec("KumG", "gompertz", (("a", "c"),), ("b", "c", "theta", "gamma")),
    "mce": ModelSpec("McE", "exponential", (("gamma", 0.0),), ("a", "b", "c", "theta")),
    "bge": ModelSpec("BGE", "exponential", (("gamma", 0.0),), ("a", "b", "c", "theta")),
    "gg": ModelSpec("GG", "gompertz", (("b", 1.0), ("c", 1.0)), ("a", "theta", "gamma")),
    "ge": ModelSpec("GE", "exponential", (("b", 1.0), ("c", 1.0), ("gamma", 0.0)), ("a", "theta")),
    "be": ModelSpec("BE", "exponential", (("c", 1.0), ("gamma", 0.0)), ("a", "b", "theta")),
    "kume": ModelSpec("KumE", "exponential", (("a", "c"), ("gamma", 0.0)), ("b", "c", "theta")),
    "g": ModelSpec("G", "gompertz", (("a", 1.0), ("b", 1.0), ("c", 1.0)), ("theta", "gamma")),
    "e": ModelSpec("E", "exponential", (("a", 1.0), ("b", 1.0), ("c", 1.0), ("gamma", 0.0)), ("theta",)),
}


def model_spec(name):
    """Look up a ModelSpec by (case-insensitive) name."""
    key = str(name).lower()
    if key not in MODELS:
        known = ", ".join(sorted(MODELS))
        raise ValueError(f"unknown model {name!r}; known models: {known}")
    return MODELS[key]


def make_submodel(name, values):
    """Embed a named sub-model into the full parameter space.

    `values` must supply exactly the free parameters of the model.  Returns
    McGParams for Gompertz-base models and McEParams for exponential-base
    models.
    """
    spec = model_spec(name)
    given = set(values)
    expected = set(spec.free_params)
    if given != expected:
        missing = sorted(expected - given)
        extra = sorted(given - expected)
        parts = []
        if missing:
            parts.append(f"missing {missing}")
        if extra:
            parts.append(f"unexpected {extra}")
        raise ValueError(f"{spec.name} takes exactly {sorted(expected)}: " + ", ".join(parts))

    full = dict(values)
    for pname, fixed in spec.constraints:
        if isinstance(fixed, str):
            full[pname] = full[fixed]
        else:
            full[pname] = fixed
    if spec.base == "exponential":
        return McEParams(full["a"], full["b"], full["c"], full["theta"])
    return McGParams(full["a"], full["b"], full["c"], full["theta"], full["gamma"])


def exp_base_cdf(base, y):
    """Exponential base cdf 1 - exp(-theta*y)."""
    y = np.asarray(y, dtype=float)
    return -np.expm1(-base.theta * y)


def exp_base_pdf(base, y):
    """Exponential base density theta * exp(-theta*y)."""
    y = np.asarray(y, dtype=float)
    return base.theta * np.exp(-base.theta * y)


def _exp_checked_y(y):
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("y must be nonnegative and finite")
    return arr


def exp_limit_log_pdf(p, y):
    """Log-density of the exponential-base model (the gamma -> 0 limit)."""
    arr = _exp_checked_y(y)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    a, b, c, th = p.a, p.b, p.c, p.theta
    alpha = a / c
    lead = math.log(c) + math.log(th) - log_beta(alpha, b)
    w = th * arr

    out = np.empty_like(w)
    zero = w == 0.0
    deep = w > _W_DEEP
    mid = ~zero & ~deep

    if np.any(zero):
        if a == 1.0:
            out[zero] = math.log(c * th) - log_beta(1.0 / c, b)
        elif a > 1.0:
            out[zero] = -np.inf
        else:
            out[zero] = np.inf
    if np.any(mid):
        wm = w[mid]
        lnG = log1mexp(wm)
        out[mid] = lead - wm + (a - 1.0) * lnG + (b - 1.0) * log1mexp(-c * lnG)
    if np.any(deep):
        # 1 - G^c ~ c e^{-w}: the tail is exponential with rate b*theta.
        out[deep] = lead + (b - 1.0) * math.log(c) - b * w[deep]

    return float(out[0]) if scalar else out


def exp_limit_pdf(p, y):
    """Density of the exponential-base model."""
    return np.exp(exp_limit_log_pdf(p, y))


def exp_limit_cdf(p, y):
    """Distribution function I(G^c; a/c, b) with G = 1 - exp(-theta*y)."""
    arr = _exp_checked_y(y)
    scalar = arr.ndim == 0
    w = np.atleast_1d(p.theta * arr)
    out = np.zeros_like(w)
    pos = w > 0.0
    out[pos] = _cdf_survival_w(p.a, p.b, p.c, w[pos])[0]
    return float(out[0]) if scalar else out


def exp_limit_survival(p, y):
    """Survival function of the exponential-base model."""
    arr = _exp_checked_y(y)
    scalar = arr.ndim == 0
    w = np.atleast_1d(p.theta * arr)
    out = np.ones_like(w)
    pos = w > 0.0
    out[pos] = _cdf_survival_w(p.a, p.b, p.c, w[pos])[1]
    return float(out[0]) if scalar else out


def exp_limit_quantile(p, t):
    """Quantile function of the exponential-base model on t in (0, 1)."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0) or not np.all(np.isfinite(arr)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    y = _w_of_t(p.a, p.b, p.c, arr.ravel(), None).reshape(arr.shape) / p.theta
    return float(y[0]) if scalar else y


def exp_limit_sample(p, n, seed):
    """Inverse-transform sampling of the exponential-base model."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 1 << 53, size=int(n))
    u = (grid + 0.5) * (1.0 / (1 << 53))
    return exp_limit_quantile(p, u)


def order_stat_identity_check(i, n, base, y):
    """The i-th order statistic of a base sample, two ways.

    Returns the pair (model cdf at (a=i, b=n-i+1, c=1), exact order-statistic
    cdf I(G(y); i, n-i+1)).  The two are equal by construction: the c=1 model
    with integer shapes is exactly the order-statistic law of the base.
    """
    if not 1 <= i <= n:
        raise ValueError("need 1 <= i <= n")
    params = McGParams(float(i), float(n - i + 1), 1.0, base.theta, base.gamma)
    lhs = _mcg_cdf(params, y)
    arr = np.asarray(y, dtype=float)
    w = (base.theta / base.gamma) * np.expm1(base.gamma * arr)
    g_of_y = -np.expm1(-w)
    rhs = inc_beta_reg(g_of_y, float(i), float(n - i + 1))
    return lhs, rhs
