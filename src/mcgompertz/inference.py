"""Maximum-likelihood estimation for the generalized Gompertz family.

The log-likelihood, score vector, and observed information matrix are exact
analytic expressions shared by every sub-model in the family registry; each
sub-model sees them through the chain rule on its free parameters.  Fitting
runs a deterministic multistart in log-parameter space: a Nelder-Mead pass
followed by a BFGS polish on the analytic gradient, with convergence judged
by the scaled gradient norm, interiority, and positive definiteness of the
observed information.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .core import McEParams, McGParams, log_pdf
from .family import ModelSpec, make_submodel, model_spec
from .specfun import digamma, log1mexp, trigamma

_BASE_ORDER = {
    "gompertz": ("a", "b", "c", "theta", "gamma"),
    "exponential": ("a", "b", "c", "theta"),
}

# Log-parameter trust region: optimization is confined to |ln p| <= _BOX by a
# quadratic penalty, which keeps ridge escapes (likelihood paths improving
# forever as a shape parameter diverges) from masquerading as maxima.
_BOX = 30.0
_PENALTY = 1.0e6
_BIG = 1.0e12

# A replicate counts as converged only if the scaled sup-norm gradient in
# log-space falls at or below this ceiling, regardless of looser optimizer
# tolerances.
_GRAD_CEILING = 1.0e-5


@dataclass(frozen=True)
class Dataset:
    """An observed sample of positive lifetimes (or strengths).

    values: the observations, stored as a tuple of floats.
    label: optional human-readable name used in reports.
    """

    values: tuple
    label: str = ""

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) == 0:
            raise ValueError("dataset must contain at least one observation")
        for v in vals:
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError("observations must be positive and finite")
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return len(self.values)

    @property
    def array(self):
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class OptimizerConfig:
    """Tuning knobs for fit_mle; the defaults reproduce the reference fits."""

    max_iter: int = 500
    grad_tol: float = 1.0e-6
    step_tol: float = 1.0e-10
    n_starts: int = 8
    seed: int = 0

    def __post_init__(self):
        if int(self.max_iter) != self.max_iter or self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")
        if not (self.grad_tol > 0.0 and math.isfinite(self.grad_tol)):
            raise ValueError("grad_tol must be positive and finite")
        if not (self.step_tol > 0.0 and math.isfinite(self.step_tol)):
            raise ValueError("step_tol must be positive and finite")
        if int(self.n_starts) != self.n_starts or self.n_starts < 0:
            raise ValueError("n_starts must be a nonnegative integer")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum-likelihood fit.

    estimates: free-parameter point estimates, keyed by parameter name.
    std_errors: asymptotic standard errors from the inverse observed
        information, or None when the information matrix is singular.
    neg_loglik: negative log-likelihood at the estimates.
    info_matrix: observed information (negative Hessian of the
        log-likelihood) in the free natural parameters, ordered as
        model.free_params.
    converged: True when the winning replicate had a small scaled gradient,
        sat strictly inside the trust region, and had a positive definite
        observed information.
    iterations: optimizer iterations spent by the winning replicate.
    grad_norm: sup-norm of the log-space gradient at the estimates, scaled
        by max(1, |log-likelihood|).
    """

    model: ModelSpec
    estimates: dict
    std_errors: dict | None
    neg_loglik: float
    info_matrix: np.ndarray = field(repr=False)
    converged: bool
    iterations: int
    grad_norm: float

    @property
    def params(self):
        """Materialize the estimates as full McGParams/McEParams."""
        return make_submodel(self.model.name, self.estimates)


def _spec(model):
    if isinstance(model, ModelSpec):
        return model
    return model_spec(model)


def _check_params(spec, params):
    """Reject parameter objects that do not satisfy the sub-model constraints."""
    if spec.base == "gompertz":
        if not isinstance(params, McGParams):
            raise TypeError(f"{spec.name} expects McGParams")
    else:
        if not isinstance(params, McEParams):
            raise TypeError(f"{spec.name} expects McEParams")
    for target, fixed in spec.constraints:
        if not hasattr(params, target):
            continue
        actual = getattr(params, target)
        if isinstance(fixed, str):
            expected = getattr(params, fixed)
            label = f"{target} = {fixed}"
        else:
            expected = fixed
            label = f"{target} = {fixed}"
        if actual != expected:
            raise ValueError(
                f"params violate the {spec.name} constraint {label}: got {actual}"
            )


def _w_terms(params, y):
    """The exponent w(y) with its parameter derivatives.

    Both bases share a survival exponent w > 0 with base cdf 1 - exp(-w);
    every theta/gamma derivative of the likelihood flows through w.
    Returns (w, partials, n_rate) where partials maps suffix keys to arrays
    and n_rate is the number of rate-type parameters (1 or 2).
    """
    if isinstance(params, McGParams):
        theta, gamma = params.theta, params.gamma
        with np.errstate(over="ignore", invalid="ignore"):
            gy = gamma * y
            egy = np.exp(gy)
            w = (theta / gamma) * np.expm1(gy)
            s = gy * egy - egy + 1.0
            partials = {
                "t": w / theta,
                "g": theta * s / gamma**2,
                "tg": s / gamma**2,
                "gg": theta * (gamma**2 * y**2 * egy - 2.0 * s) / gamma**3,
            }
        return w, partials, 2
    w = params.theta * y
    return w, {"t": y}, 1


def _shape_blocks(params, w):
    """Per-observation pieces shared by the score and the Hessian."""
    a, b, c = params.a, params.b, params.c
    lnG = log1mexp(w)
    G = np.exp(lnG)
    clnG = c * lnG
    V = np.exp(clnG)
    ln1mV = log1mexp(-clnG)
    one_mV = np.exp(ln1mV)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio1 = 1.0 / np.expm1(w)
        R = np.exp((c - 1.0) * lnG - w) / one_mV
        Q = V * lnG / one_mV
        A = -1.0 + (a - 1.0) * ratio1 - (b - 1.0) * c * R
        dR = np.exp((c - 2.0) * lnG - w) * ((c - 1.0) - c * G) / one_mV + c * R * R
        Ap = -(a - 1.0) * ratio1 / G - (b - 1.0) * c * dR
        T = c * R * lnG + V * ratio1 / one_mV + c * R * Q
    return {
        "lnG": lnG,
        "ln1mV": ln1mV,
        "one_mV": one_mV,
        "V": V,
        "ratio1": ratio1,
        "R": R,
        "Q": Q,
        "A": A,
        "Ap": Ap,
        "T": T,
    }


def _zeta(r, s):
    return digamma(r + s) - digamma(r)


def _loglik_value(params, y):
    """Log-likelihood of a full parameter point on raw observations; -inf
    where it is not finite."""
    value = float(log_pdf(params, y).sum())
    return value if math.isfinite(value) else -math.inf


def _score_full(params, y):
    """Score vector in the full natural parameters (a, b, c, theta[, gamma])."""
    a, b, c, theta = params.a, params.b, params.c, params.theta
    alpha = a / c
    n = y.size
    w, wp, n_rate = _w_terms(params, y)
    blk = _shape_blocks(params, w)
    U = np.empty(3 + n_rate)
    U[0] = n * _zeta(alpha, b) / c + blk["lnG"].sum()
    U[1] = n * _zeta(b, alpha) + blk["ln1mV"].sum()
    U[2] = n / c - n * a / c**2 * _zeta(alpha, b) - (b - 1.0) * blk["Q"].sum()
    U[3] = n / theta + (blk["A"] * wp["t"]).sum()
    if n_rate == 2:
        U[4] = y.sum() + (blk["A"] * wp["g"]).sum()
    return U


def _hessian_full(params, y):
    """Hessian of the log-likelihood in the full natural parameters."""
    a, b, c, theta = params.a, params.b, params.c, params.theta
    alpha = a / c
    n = y.size
    w, wp, n_rate = _w_terms(params, y)
    blk = _shape_blocks(params, w)
    P = trigamma(alpha) - trigamma(alpha + b)
    tg_ab = trigamma(alpha + b)
    zeta_ab = _zeta(alpha, b)
    q_sum = blk["Q"].sum()
    with np.errstate(invalid="ignore"):
        q2_sum = (blk["Q"] * blk["lnG"] / blk["one_mV"]).sum()
    k = 3 + n_rate
    H = np.empty((k, k))
    H[0, 0] = -n * P / c**2
    H[0, 1] = n * tg_ab / c
    H[1, 1] = n * (tg_ab - trigamma(b))
    H[0, 2] = -n / c**2 * zeta_ab + n * a * P / c**3
    H[1, 2] = -n * a / c**2 * tg_ab - q_sum
    H[2, 2] = (
        -n / c**2
        + 2.0 * n * a * zeta_ab / c**3
        - n * a**2 * P / c**4
        - (b - 1.0) * q2_sum
    )
    rate_keys = ("t", "g")[:n_rate]
    for j, key in enumerate(rate_keys):
        H[0, 3 + j] = (blk["ratio1"] * wp[key]).sum()
        H[1, 3 + j] = -c * (blk["R"] * wp[key]).sum()
        H[2, 3 + j] = -(b - 1.0) * (blk["T"] * wp[key]).sum()
    H[3, 3] = -n / theta**2 + (blk["Ap"] * wp["t"] ** 2).sum()
    if n_rate == 2:
        H[3, 4] = (blk["Ap"] * wp["g"] * wp["t"] + blk["A"] * wp["tg"]).sum()
        H[4, 4] = (blk["Ap"] * wp["g"] ** 2 + blk["A"] * wp["gg"]).sum()
    for i in range(k):
        for j in range(i):
            H[i, j] = H[j, i]
    return H


def _free_rows(spec):
    """Map each free parameter to the full-parameter indices it drives.

    An equality tie such as a = c makes the shared free parameter drive
    two full coordinates, so its row lists both indices.
    """
    order = _BASE_ORDER[spec.base]
    rows = []
    for fname in spec.free_params:
        idx = [order.index(fname)]
        for target, fixed in spec.constraints:
            if isinstance(fixed, str) and fixed == fname:
                idx.append(order.index(target))
        rows.append(tuple(idx))
    return tuple(rows)


def _restrict_vector(rows, U):
    return np.array([sum(U[j] for j in row) for row in rows])


def _restrict_matrix(rows, H):
    k = len(rows)
    out = np.empty((k, k))
    for i, ri in enumerate(rows):
        for j, rj in enumerate(rows):
            out[i, j] = sum(H[p, q] for p in ri for q in rj)
    return out


def log_likelihood(model, params, data):
    """Log-likelihood of `params` for `model` on `data`.

    `params` must be a full parameter object consistent with the model's
    constraints.  Returns -inf when the density degenerates on the sample.
    """
    spec = _spec(model)
    _check_params(spec, params)
    return _loglik_value(params, data.array)


def score(model, params, data):
    """Gradient of the log-likelihood in the model's free parameters."""
    spec = _spec(model)
    _check_params(spec, params)
    U = _score_full(params, data.array)
    return _restrict_vector(_free_rows(spec), U)


def loglik_hessian(model, params, data):
    """Hessian of the log-likelihood in the model's free parameters."""
    spec = _spec(model)
    _check_params(spec, params)
    H = _hessian_full(params, data.array)
    return _restrict_matrix(_free_rows(spec), H)


def observed_info(model, params, data):
    """Observed information: the negated free-parameter Hessian."""
    return -loglik_hessian(model, params, data)


def _gompertz_seed(y):
    """Profile-likelihood starting point for the base Gompertz parameters.

    For fixed gamma the rate has the closed form theta(gamma) =
    n * gamma / sum(expm1(gamma * y)); a bounded 1-d search over ln gamma
    then locates the profile optimum.
    """
    n = y.size
    sy = float(y.sum())

    def neg_profile(lg):
        g = math.exp(lg)
        with np.errstate(over="ignore"):
            t = float(np.expm1(g * y).sum())
        if not math.isfinite(t) or t <= 0.0:
            return math.inf
        return -(n * math.log(n * g / t) + g * sy - n)

    res = minimize_scalar(
        neg_profile, bounds=(-12.0, 3.0), method="bounded", options={"xatol": 1e-8}
    )
    g = math.exp(res.x)
    theta = n * g / float(np.expm1(g * y).sum())
    return theta, g


def _seed_values(spec, y):
    seed = {name: 1.0 for name in spec.free_params}
    if spec.base == "gompertz":
        theta, gamma = _gompertz_seed(y)
        seed["theta"] = theta
        if "gamma" in seed:
            seed["gamma"] = gamma
    else:
        seed["theta"] = 1.0 / float(y.mean())
    return seed


def _start_points(x0, free, cfg):
    """Deterministic multistart battery around the seed point.

    Shape parameters get the full +-ln 4 sign lattice first; any remaining
    slots are filled with seeded Gaussian jitter of the same scale.
    """
    shape_idx = [i for i, f in enumerate(free) if f in ("a", "b", "c")]
    if not shape_idx:
        shape_idx = list(range(len(free)))
    delta = math.log(4.0)
    points = [np.array(x0, dtype=float)]
    combos = itertools.product((-delta, delta), repeat=len(shape_idx))
    for combo in itertools.islice(combos, cfg.n_starts):
        xp = points[0].copy()
        xp[shape_idx] += combo
        points.append(xp)
    rng = np.random.default_rng(cfg.seed)
    while len(points) < cfg.n_starts + 1:
        xp = points[0].copy()
        xp[shape_idx] += rng.normal(0.0, delta, size=len(shape_idx))
        points.append(xp)
    return points


def _box_penalty(x):
    over = np.maximum(np.abs(x) - _BOX, 0.0)
    return _PENALTY * float(over @ over)


def _box_penalty_grad(x):
    over = np.maximum(np.abs(x) - _BOX, 0.0)
    return 2.0 * _PENALTY * over * np.sign(x)


def fit_mle(model, data, config=None):
    """Fit a family model to a dataset by maximum likelihood.

    Runs `config.n_starts + 1` optimization replicates (seed plus
    perturbations), each a Nelder-Mead pass followed by a BFGS polish on the
    analytic gradient, all in log-parameter space.  The winner is the best
    converged replicate; if none converges the best raw minimum is returned
    with `converged=False`.
    """
    spec = _spec(model)
    cfg = config if config is not None else OptimizerConfig()
    y = data.array
    free = spec.free_params
    k = len(free)
    if data.n <= k:
        raise ValueError(
            f"{spec.name} has {k} free parameters; need more than {k} observations"
        )
    rows = _free_rows(spec)

    def build(x):
        return make_submodel(spec.name, dict(zip(free, np.exp(x))))

    def objective(x):
        pen = _box_penalty(x)
        if np.any(np.abs(x) > 200.0):
            return _BIG + pen
        value = _loglik_value(build(x), y)
        if not math.isfinite(value):
            return _BIG + pen
        return -value + pen

    def gradient(x):
        pen_g = _box_penalty_grad(x)
        if np.any(np.abs(x) > 200.0):
            return pen_g
        U = _restrict_vector(rows, _score_full(build(x), y))
        g = -U * np.exp(x) + pen_g
        return np.nan_to_num(g, nan=0.0, posinf=_BIG, neginf=-_BIG)

    x_seed = np.log([_seed_values(spec, y)[f] for f in free])
    best = None
    best_converged = False
    for x_start in _start_points(x_seed, free, cfg):
        r1 = minimize(
            objective,
            x_start,
            method="Nelder-Mead",
            options={
                "maxiter": cfg.max_iter,
                "xatol": cfg.step_tol,
                "fatol": cfg.step_tol,
            },
        )
        r2 = minimize(
            objective,
            r1.x,
            jac=gradient,
            method="BFGS",
            options={"gtol": cfg.grad_tol, "maxiter": cfg.max_iter},
        )
        cand = r2 if r2.fun <= r1.fun else r1
        x_hat = np.asarray(cand.x, dtype=float)
        iters = int(r1.nit or 0) + int(r2.nit or 0)

        value = _loglik_value(build(x_hat), y)
        if not math.isfinite(value):
            continue
        nll = -value
        g_hat = gradient(x_hat)
        scaled_grad = float(np.max(np.abs(g_hat))) / max(1.0, abs(nll))
        interior = bool(np.all(np.abs(x_hat) < _BOX))
        info = _restrict_matrix(rows, -_hessian_full(build(x_hat), y))
        info = 0.5 * (info + info.T)
        try:
            np.linalg.cholesky(info)
            pos_def = bool(np.all(np.isfinite(info)))
        except np.linalg.LinAlgError:
            pos_def = False
        rep_converged = scaled_grad <= _GRAD_CEILING and interior and pos_def

        record = (nll, x_hat, iters, scaled_grad, info, rep_converged)
        if rep_converged and not best_converged:
            best, best_converged = record, True
        elif rep_converged == best_converged and (best is None or nll < best[0]):
            best = record
            best_converged = rep_converged

    if best is None:
        raise RuntimeError("every optimization replicate produced a degenerate fit")

    nll, x_hat, iters, scaled_grad, info, rep_converged = best
    estimates = {f: float(v) for f, v in zip(free, np.exp(x_hat))}
    std_errors = None
    try:
        cov = np.linalg.inv(info)
        diag = np.diag(cov)
        if np.all(np.isfinite(diag)) and np.all(diag > 0.0):
            std_errors = {f: float(math.sqrt(d)) for f, d in zip(free, diag)}
    except np.linalg.LinAlgError:
        pass
    return FitResult(
        model=spec,
        estimates=estimates,
        std_errors=std_errors,
        neg_loglik=float(nll),
        info_matrix=info,
        converged=rep_converged,
        iterations=iters,
        grad_norm=float(scaled_grad),
    )


def asymptotic_ci(fit, level=0.95):
    """Normal-approximation confidence intervals from a fit's standard errors.

    Returns {name: (lower, upper)} at the given two-sided coverage level.
    level=0 collapses every interval to the point estimate.
    """
    if not (0.0 <= level < 1.0):
        raise ValueError("level must lie in [0, 1)")
    if fit.std_errors is None:
        raise ValueError("fit carries no standard errors")
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    out = {}
    for name, est in fit.estimates.items():
        se = fit.std_errors[name]
        out[name] = (est - z * se, est + z * se)
    return out
