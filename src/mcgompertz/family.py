"""Sub-model lattice: named specializations and the exponential-base limit.

The five-parameter family contains every model here through two mechanisms:
fixing or tying shape parameters (c=1 gives the beta generator, a=c the
Kumaraswamy generator, a=b=c=1 the bare base) and sending gamma -> 0, which
turns the Gompertz base into the exponential base 1 - exp(-theta*y).  A
model's constraints say all of it, and `ModelSpec.sources` alone reads them,
once, into each field's free parameter or constant: the parameter class
(McEParams, whose base is GompertzBase at gamma = 0, exactly when gamma is
the constant 0), the free parameters, the embedding of a sub-model and the
nesting of one model in another all follow from it.  The distribution
functions of `core` take McGParams and McEParams alike.  `model_spec` and
`make_submodel` take a registry name or a ModelSpec, in MODELS or not.  The
`exp_limit_*` and `exp_base_*` names are aliases of those functions.
"""

from dataclasses import dataclass, fields
from functools import cached_property

from .core import (
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


_FIELDS = tuple(f.name for f in fields(McGParams))


@dataclass(frozen=True)
class ModelSpec:
    """A named sub-model, given by its constraints: ("p", value) fixes the
    parameter p, ("p", "q") ties it to q.  They are read into `sources`,
    and checked, when the spec is built; all else is derived from that."""

    name: str
    constraints: tuple

    def __post_init__(self):
        self.sources  # a malformed spec raises here, not at its first fit

    @cached_property
    def sources(self):
        """Per McGParams field, the free field it takes (by name) or its
        constant, ties followed to their end; raises ValueError for a
        non-field, a field constrained twice or a tie to no free field."""
        given = dict(self.constraints)
        if not given.keys() <= set(_FIELDS) or len(given) < len(self.constraints):
            raise ValueError(f"{self.name}: constraints must name distinct fields of {_FIELDS}")
        sources = _FIELDS
        for _ in _FIELDS:
            sources = tuple(given.get(s, s) if isinstance(s, str) else s for s in sources)
        for f, s in zip(_FIELDS, sources):
            if isinstance(s, str) and (s in given or s not in _FIELDS):
                raise ValueError(f"{self.name}: the tie of {f} ends at no free parameter")
        return sources

    @cached_property
    def params_type(self):
        """The parameter class of the base: McEParams or McGParams."""
        return McEParams if self.sources[-1] == 0.0 else McGParams

    @cached_property
    def free_params(self):
        """The names of the free parameters, in field order."""
        return tuple(f for f, s in zip(_FIELDS, self.sources) if s == f)

    @property
    def free_count(self):
        return len(self.free_params)

    def nests(self, other):
        """Whether `other` gives each field this model fixes or ties the same
        value; a free gamma takes 0 among its values, so McG nests McE."""
        theirs = dict(zip(_FIELDS, other.sources))
        return all(theirs[f] == theirs.get(s, s) for f, s in zip(_FIELDS, self.sources) if s != f)


MODELS = {
    "mcg": ModelSpec("McG", ()),
    "bg": ModelSpec("BG", (("c", 1.0),)),
    "kumg": ModelSpec("KumG", (("a", "c"),)),
    "mce": ModelSpec("McE", (("gamma", 0.0),)),
    "bge": ModelSpec("BGE", (("gamma", 0.0),)),
    "gg": ModelSpec("GG", (("b", 1.0), ("c", 1.0))),
    "ge": ModelSpec("GE", (("b", 1.0), ("c", 1.0), ("gamma", 0.0))),
    "be": ModelSpec("BE", (("c", 1.0), ("gamma", 0.0))),
    "kume": ModelSpec("KumE", (("a", "c"), ("gamma", 0.0))),
    "g": ModelSpec("G", (("a", 1.0), ("b", 1.0), ("c", 1.0))),
    "e": ModelSpec("E", (("a", 1.0), ("b", 1.0), ("c", 1.0), ("gamma", 0.0))),
}


def model_spec(model):
    """The ModelSpec of `model`: a ModelSpec as it is, in the registry or
    not, or a name looked up (case-insensitively) in MODELS."""
    if isinstance(model, ModelSpec):
        return model
    key = str(model).lower()
    if key not in MODELS:
        known = ", ".join(sorted(MODELS))
        raise ValueError(f"unknown model {model!r}; known models: {known}")
    return MODELS[key]


def make_submodel(model, values):
    """Embed a sub-model, a name or a ModelSpec (see `model_spec`), into the
    full parameter space.

    `values` must supply exactly the free parameters of the model.  Returns
    McGParams for Gompertz-base models and McEParams for exponential-base
    models.
    """
    spec = model_spec(model)
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
    n_fields = len(fields(spec.params_type))
    return [values[s] if isinstance(s, str) else s for s in spec.sources[:n_fields]]


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
    with integer shapes is exactly the order-statistic law of the base, which
    may be the exponential one (its model is then McEParams).
    """
    if not 1 <= i <= n:
        raise ValueError("need 1 <= i <= n")
    head = (float(i), float(n - i + 1), 1.0, base.theta)
    params = McEParams(*head) if base._exponential() else McGParams(*head, base.gamma)
    rhs = inc_beta_reg(base_cdf(base, y), float(i), float(n - i + 1))
    return cdf(params, y), rhs
