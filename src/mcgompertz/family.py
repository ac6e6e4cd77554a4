"""Sub-model lattice: named specializations and the exponential-base limit.

The five-parameter family contains every model here through two mechanisms:
fixing or tying shape parameters (c=1 gives the beta generator, a=c the
Kumaraswamy generator, a=b=c=1 the bare base) and sending gamma -> 0, which
turns the Gompertz base into the exponential base 1 - exp(-theta*y).  The
gamma -> 0 models are carried by McEParams, whose base is ExpBaseParams;
the distribution functions of `core` take McGParams and McEParams alike.
The `exp_limit_*` and `exp_base_*` names are aliases of those functions.
"""

from dataclasses import dataclass, fields

from .core import (
    ExpBaseParams,
    GompertzBase,
    McEParams,
    McGParams,
    base_cdf,
    base_pdf,
    cdf,
    log_pdf,
    pdf,
    quantile,
    sample,
    survival,
)
from .specfun import inc_beta_reg


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

    @property
    def params_type(self):
        """The parameter class of the base: McEParams or McGParams."""
        return McEParams if self.base == "exponential" else McGParams


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
    return spec.params_type(*_full_values(spec, values))


def _full_values(spec, values):
    """The fields of spec's parameter type, in order, from its free values:
    a tied parameter takes its partner's value, a fixed one its constant."""
    full = dict(values)
    for pname, fixed in spec.constraints:
        full[pname] = full[fixed] if isinstance(fixed, str) else fixed
    return [full[f.name] for f in fields(spec.params_type)]


# The exponential-base models are evaluated by the base-generic functions
# of `core`; these names are kept for callers written against them.
exp_base_cdf = base_cdf
exp_base_pdf = base_pdf
exp_limit_log_pdf = log_pdf
exp_limit_pdf = pdf
exp_limit_cdf = cdf
exp_limit_survival = survival
exp_limit_quantile = quantile
exp_limit_sample = sample


def order_stat_identity_check(i, n, base, y):
    """The i-th order statistic of a base sample, two ways.

    Returns the pair (model cdf at (a=i, b=n-i+1, c=1), exact order-statistic
    cdf I(G(y); i, n-i+1)).  The two are equal by construction: the c=1 model
    with integer shapes is exactly the order-statistic law of the base.
    """
    if not 1 <= i <= n:
        raise ValueError("need 1 <= i <= n")
    params = McGParams(float(i), float(n - i + 1), 1.0, base.theta, base.gamma)
    rhs = inc_beta_reg(base_cdf(base, y), float(i), float(n - i + 1))
    return cdf(params, y), rhs
