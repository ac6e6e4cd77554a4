"""Maximum-likelihood estimation for the generalized Gompertz family.

The log-likelihood, score vector, and observed information matrix are exact
analytic expressions shared by every sub-model in the family registry,
computed together in one pass over the data from the intermediates of the
log density; each sub-model sees them through a constant 0/1 embedding of
its free parameters.  Fitting runs a deterministic multistart in
log-parameter space, each start a trust-region Newton method on that exact
Hessian (the step solved exactly from its eigendecomposition, Moré &
Sorensen 1983).  The starts run in lockstep: each keeps its own iterate,
trust radius and stop status, and every iteration evaluates all starts
still running in one derivative pass over a (starts x n) array, so a fit
costs as many passes as its slowest start.  A start counts as converged on
its scaled gradient norm, interiority, and positive definiteness of the
observed information, and every start is reported in the fit's trace.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from statistics import NormalDist

import numpy as np

from ._optimize import minimize
from .core import _log_pdf_terms, log_pdf
from .family import ModelSpec, make_submodel, model_spec
from .specfun import _over_columns, digamma_diff, trigamma, trigamma_diff


# Log-parameter box: optimization is confined to |ln p| <= _BOX by a penalty,
# which keeps ridge escapes (likelihood paths improving forever as a shape
# parameter diverges) from masquerading as maxima.  The penalty is cubic in
# the overshoot, so its curvature grows from 0 at the wall and the Newton
# model sees the wall coming instead of a jump in the Hessian.
_BOX = 30.0
_PENALTY = 1.0e6

# Multistart lattice scales in log-parameter space.
_LATTICE_SCALES = (math.log(4.0), math.log(16.0))

# Trust-region Newton: largest radius in log-parameter space, and the least
# ratio of actual to predicted decrease at which a step is taken.
_MAX_RADIUS = 10.0
_ACCEPT = 0.1
# A start stops once its log-space sup-norm gradient is at most _GRAD_TOL, or
# once its trust radius shrinks below _STEP_TOL.
_GRAD_TOL = 1.0e-6
_STEP_TOL = 1.0e-10

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
    """Tuning knobs for fit_mle; the defaults reproduce the reference fits.

    max_iter: Newton iterations allowed per start.
    n_starts: perturbed starts at each of the two lattice scales, besides
        the seed point (0 runs the seed alone).
    seed: seeds the jitter that fills lattice slots beyond its corners.
    """

    max_iter: int = 500
    n_starts: int = 8
    seed: int = 0

    def __post_init__(self):
        if int(self.max_iter) != self.max_iter or self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")
        if int(self.n_starts) != self.n_starts or self.n_starts < 0:
            raise ValueError("n_starts must be a nonnegative integer")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class StartRecord:
    """How one start of a fit_mle multistart ended.

    start: the free natural parameters it started from, ordered as
        model.free_params.
    nit, nfev: Newton iterations and objective evaluations it spent.
    neg_loglik: negative log-likelihood where it stopped.
    grad_norm: the scaled log-space gradient there, as in FitResult.
    interior: whether it stopped strictly inside the box |ln p| < 30.
    pos_def: whether the observed information there is positive definite.
    reason: why it cannot win as a converged fit, or None when it
        converged.  Checked in this order: "degenerate" (the likelihood or
        its derivatives are not finite there), "not interior", "gradient"
        (scaled gradient above 1e-5), "not positive definite".
    """

    start: tuple
    nit: int
    nfev: int
    neg_loglik: float
    grad_norm: float
    interior: bool
    pos_def: bool
    reason: str | None


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
    trace: one StartRecord per start, in the order of the start battery.
    winner: index into `trace` of the start the estimates come from.
    """

    model: ModelSpec
    estimates: dict
    std_errors: dict | None
    neg_loglik: float
    info_matrix: np.ndarray = field(repr=False)
    converged: bool
    iterations: int
    grad_norm: float
    trace: tuple = field(default=(), repr=False)
    winner: int | None = field(default=None, repr=False)

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
    if not isinstance(params, spec.params_type):
        raise TypeError(f"{spec.name} expects {spec.params_type.__name__}")
    for target, fixed in spec.constraints:
        if not hasattr(params, target):
            continue
        actual = getattr(params, target)
        expected = getattr(params, fixed) if isinstance(fixed, str) else fixed
        if actual != expected:
            raise ValueError(
                f"params violate the {spec.name} constraint {target} = {fixed}: "
                f"got {actual}"
            )


def _shape_blocks(params, w, ln_g, ln_1mv, deep):
    """Per-observation pieces shared by the score and the Hessian, from the
    intermediates of `core._log_pdf_terms` (w, ln G, ln(1 - G^c), deep).

    Past w = 700, where e^{-w} underflows and 1 - G^c with it, they take
    their limits as in `core.log_pdf`: ln(1 - G^c) -> ln c - w, R -> 1/c,
    Q -> -1/c, dQ/dc -> 1/c^2, and dR, T -> 0 (corrections O(e^{-w})).
    """
    a, b, c = params.a, params.b, params.c
    G = np.exp(ln_g)
    V = np.exp(c * ln_g)
    one_mV = np.exp(ln_1mv)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio1 = 1.0 / np.expm1(w)
        R = np.exp((c - 1.0) * ln_g - w) / one_mV
        Q = V * ln_g / one_mV
        dQ = Q * ln_g / one_mV
        dR = np.exp((c - 2.0) * ln_g - w) * ((c - 1.0) - c * G) / one_mV + c * R * R
        T = c * R * ln_g + V * ratio1 / one_mV + c * R * Q
    if deep.any():
        ln_1mv = np.where(deep, np.log(c) - w, ln_1mv)
        R = np.where(deep, 1.0 / c, R)
        Q = np.where(deep, -1.0 / c, Q)
        dQ = np.where(deep, 1.0 / (c * c), dQ)
        dR = np.where(deep, 0.0, dR)
        T = np.where(deep, 0.0, T)
    return {
        "lnG": ln_g,
        "ln1mV": ln_1mv,
        "Q": Q,
        "dQ": dQ,
        "A": -1.0 + (a - 1.0) * ratio1 - (b - 1.0) * c * R,
        "Ap": -(a - 1.0) * ratio1 / G - (b - 1.0) * c * dR,
        "cross": np.stack([ratio1, -c * R, -(b - 1.0) * T], axis=-2),
    }


def _loglik_value(params, y):
    """Log-likelihood of a full parameter point on raw observations; -inf
    where it is not finite."""
    value = float(log_pdf(params, y).sum())
    return value if math.isfinite(value) else -math.inf


def _derivs(params, y):
    """Log-likelihood, score and Hessian in the full natural parameters
    (a, b, c, theta[, gamma]), from one pass over the data.

    The fields of `params` are floats, for one point, or (S, 1) columns
    for S starts at once (a field a sub-model fixes may stay a float);
    the pass then runs over an (S, n) array and the value, score and
    Hessian gain a leading axis of length S.  The value is -inf where it
    is not finite.  The base rates enter only through w(y) and ln w'(y),
    whose partials the base supplies; the digamma and trigamma
    differences are taken cancellation-free, which matters on the
    b -> infinity ridge.  Every reduction and matrix product runs within
    a row, so a start's numbers do not depend on which other starts
    share the pass.
    """
    logf, *terms = _log_pdf_terms(params, y)
    blk = _shape_blocks(params, *terms)
    _, dw, d2w, dlw, d2lw = params.base.w_partials(y)
    n = y.size
    a, b, c = (
        np.ravel(v) if isinstance(v, np.ndarray) else v
        for v in (params.a, params.b, params.c)
    )
    alpha = a / c
    zeta_ab = _over_columns(digamma_diff, alpha, b)
    zeta_ba = _over_columns(digamma_diff, b, alpha)
    P = -_over_columns(trigamma_diff, alpha, b)
    tg_ab = trigamma(alpha + b)
    q_sum = blk["Q"].sum(axis=-1)
    A = blk["A"][..., None]
    dwT = np.swapaxes(dw, -1, -2)
    k = 3 + dw.shape[-2]
    U = np.empty(logf.shape[:-1] + (k,))
    U[..., 0] = n * zeta_ab / c + blk["lnG"].sum(axis=-1)
    U[..., 1] = n * zeta_ba + blk["ln1mV"].sum(axis=-1)
    U[..., 2] = n / c - n * a / c**2 * zeta_ab - (b - 1.0) * q_sum
    U[..., 3:] = dlw.sum(axis=-1) + (dw @ A)[..., 0]
    H = np.empty(U.shape + (k,))
    H[..., 0, 0] = -n * P / c**2
    H[..., 0, 1] = n * tg_ab / c
    H[..., 1, 1] = n * _over_columns(trigamma_diff, b, alpha)
    H[..., 0, 2] = -n / c**2 * zeta_ab + n * a * P / c**3
    H[..., 1, 2] = -n * a / c**2 * tg_ab - q_sum
    H[..., 2, 2] = (
        -n / c**2
        + 2.0 * n * a * zeta_ab / c**3
        - n * a**2 * P / c**4
        - (b - 1.0) * blk["dQ"].sum(axis=-1)
    )
    cross = blk["cross"] @ dwT
    H[..., :3, 3:] = cross
    H[..., 3:, :3] = np.swapaxes(cross, -1, -2)
    H[..., 3:, 3:] = (
        d2lw.sum(axis=-1)
        + (dw * blk["Ap"][..., None, :]) @ dwT
        + (d2w @ A[..., None, :, :])[..., 0]
    )
    H[..., 1, 0], H[..., 2, 0], H[..., 2, 1] = H[..., 0, 1], H[..., 0, 2], H[..., 1, 2]
    value = logf.sum(axis=-1)
    return np.where(np.isfinite(value), value, -np.inf), U, H


def _embedding(spec):
    """The constant 0/1 matrix J mapping free-parameter differentials to
    full ones, so the free score is J^T U and the free Hessian J^T H J.

    An equality tie such as a = c makes the shared free parameter drive
    two full coordinates, so its column holds two ones.
    """
    order = [f.name for f in fields(spec.params_type)]
    J = np.zeros((len(order), len(spec.free_params)))
    for j, fname in enumerate(spec.free_params):
        J[order.index(fname), j] = 1.0
        for target, fixed in spec.constraints:
            if fixed == fname:
                J[order.index(target), j] = 1.0
    return J


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
    return _embedding(spec).T @ _derivs(params, data.array)[1]


def loglik_hessian(model, params, data):
    """Hessian of the log-likelihood in the model's free parameters."""
    spec = _spec(model)
    _check_params(spec, params)
    J = _embedding(spec)
    return J.T @ _derivs(params, data.array)[2] @ J


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

    from scipy.optimize import minimize_scalar

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

    At each lattice scale (ln 4, then ln 16) the shape parameters get up to
    `n_starts` corners of the +-scale sign lattice; slots the lattice
    cannot fill take seeded Gaussian jitter of that scale.  The wide scale
    reaches optima far out in a shape, like the glass McG fit at c ~ 219.
    """
    shape_idx = [i for i, f in enumerate(free) if f in ("a", "b", "c")]
    if not shape_idx:
        shape_idx = list(range(len(free)))
    points = [np.array(x0, dtype=float)]
    rng = np.random.default_rng(cfg.seed)
    for delta in _LATTICE_SCALES:
        combos = itertools.product((-delta, delta), repeat=len(shape_idx))
        shifts = list(itertools.islice(combos, cfg.n_starts))
        while len(shifts) < cfg.n_starts:
            shifts.append(rng.normal(0.0, delta, size=len(shape_idx)))
        for shift in shifts:
            xp = points[0].copy()
            xp[shape_idx] += shift
            points.append(xp)
    return points


def _box_penalty(x):
    """Value, gradient and (diagonal) Hessian of the box penalty at each row
    of an (m, k) block of log-parameter points."""
    over = np.maximum(np.abs(x) - _BOX, 0.0)
    return (
        _PENALTY * (over * over**2).sum(axis=-1),
        3.0 * _PENALTY * over**2 * np.sign(x),
        6.0 * _PENALTY * over,
    )


def _log_space_derivs(spec, J, y, x):
    """At an (m, k) block of free log-parameter points x = ln p, one
    `_derivs` pass gives (nll, info, f, g, B): the negative log-likelihood
    (m,) and observed information (m, k, k) in the free natural parameters,
    and the penalized objective f (m,) with its gradient (m, k) and Hessian
    (m, k, k) in x.  f is +inf wherever any of them is not finite."""
    p = np.exp(x)
    params = make_submodel(spec.name, {f: p[:, j:j + 1] for j, f in enumerate(spec.free_params)})
    with np.errstate(all="ignore"):
        value, U, H = _derivs(params, y)
        U, H = U @ J, J.T @ H @ J
        pen, pen_g, pen_h = _box_penalty(x)
        g = -p * U + pen_g
        B = -(p[:, :, None] * H * p[:, None, :])
        diag = np.arange(x.shape[1])
        B[:, diag, diag] -= p * U
        B[:, diag, diag] += pen_h
    ok = np.isfinite(value) & np.isfinite(g).all(axis=-1) & np.isfinite(B).all(axis=(-2, -1))
    return -value, -H, np.where(ok, -value + pen, math.inf), g, B


def _positive_definite(m):
    if not np.all(np.isfinite(m)):
        return False
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _trust_region_step(g, B, radius):
    """Exact minimizer s of the model g.s + s.B.s/2 over |s| <= radius, for
    one model (g of shape (k,)) or row by row over a batch (g (m, k),
    B (m, k, k), radius (m,)).

    Moré & Sorensen (1983) on the eigendecomposition B = Q diag(lam) Q^T:
    the Newton step when B is positive definite and the step fits, else
    s = -(B + sigma I)^-1 g on the boundary, with sigma >= max(0, -lam_1)
    solving the secular equation 1/|s(sigma)| = 1/radius by safeguarded
    Newton.  In the hard case (g orthogonal to the lowest eigenspace and the
    shifted step inside the radius) the step is completed along the lowest
    eigenvector.  One batched eigh serves every row, each row takes its
    case by mask, and the boundary rows share one secular iteration in
    which a row keeps its sigma once it has converged.  Returns (s,
    predicted decrease of the model).
    """
    single = np.ndim(g) == 1
    g = np.atleast_2d(g)
    m, k = g.shape
    lam, Q = np.linalg.eigh(np.reshape(B, (m, k, k)))
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (m,))
    gt = (Q * g[:, :, None]).sum(axis=1)
    gt2 = gt * gt
    r2 = radius * radius
    lam_1 = lam[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        st = -gt / lam
        todo = ~((lam_1 > 0.0) & ((st * st).sum(axis=-1) <= r2))
        sig_lo = np.maximum(0.0, -lam_1)
        bottom = lam - lam[:, :1] <= 1e-12 * np.abs(lam).max(axis=-1, keepdims=True)
        gnorm = np.sqrt(gt2.sum(axis=-1))
        hard_st = np.where(bottom, 0.0, -gt / np.where(bottom, 1.0, lam + sig_lo[:, None]))
    room = r2 - (hard_st * hard_st).sum(axis=-1)
    hard = (
        todo
        & (lam_1 <= 0.0)
        & (~bottom | (np.abs(gt) <= 1e-12 * gnorm[:, None])).all(axis=-1)
        & (room >= 0.0)
    )
    hard_st[:, 0] = np.sqrt(np.maximum(room, 0.0))
    st[hard] = hard_st[hard]
    rows = np.flatnonzero(todo & ~hard)
    lam_r, gt2_r, rad = lam[rows], gt2[rows], radius[rows]
    lo = sig_lo[rows]
    hi = gnorm[rows] / rad - lam_r[:, 0]
    # start left of the root, where |s| >= radius: at 0 when B is positive
    # definite (the Newton step did not fit), else at -lam_1 + |gt_1|/radius,
    # where the lowest component alone has length radius.  Newton on the
    # concave 1/|s(sigma)| then rises to the root without overshooting; the
    # upper bound serves where gt_1 = 0 leaves no such point.
    pos_def = lam_r[:, 0] > 0.0
    left = lo + np.where(pos_def, 0.0, np.abs(gt[rows, 0]) / rad)
    sigma = np.where(pos_def | (left > lo), left, hi)
    for _ in range(100):
        at = sigma
        inv = 1.0 / (lam_r + sigma[:, None])
        q = gt2_r * inv * inv
        snorm2 = q.sum(axis=-1)
        snorm = np.sqrt(snorm2)
        done = np.abs(snorm - rad) <= 1e-8 * rad
        if done.all():
            break
        short = snorm < rad
        hi = np.where(short, sigma, hi)
        lo = np.where(short, lo, sigma)
        step = sigma + (snorm - rad) / rad * snorm2 / (q * inv).sum(axis=-1)
        step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        sigma = np.where(done, sigma, step)
    st[rows] = -gt[rows] / (lam_r + at[:, None])
    s = (Q * st[:, None, :]).sum(axis=-1)
    predicted = -((gt * st).sum(axis=-1) + 0.5 * ((lam * st) * st).sum(axis=-1))
    if single:
        return s[0], float(predicted[0])
    return s, predicted


def _trust_region_newton(fun, x0, *, dim, max_iter, **_):
    """Trust-region Newton minimizer over a block of starts run in lockstep,
    a custom `scipy.optimize.minimize` method.

    x0 is the flattened (S * dim,) block of S start points (scipy accepts
    only a 1-d x0).  `fun` maps an (m, dim) block of points to objective
    values (m,), gradients (m, dim) and Hessians (m, dim, dim); it returns
    +inf where the objective is not defined, and steps there are rejected
    like any other step that fails to decrease it.

    Each start keeps its own iterate, trust radius and stop status and
    takes the exact step of _trust_region_step on its own Hessian; one call
    of `fun` per iteration evaluates the trial points of the starts still
    running.  A start stops, tested in this order, where the objective is
    not finite, when its sup-norm gradient is at most _GRAD_TOL, when its
    trust radius falls below _STEP_TOL (no step the model trusts still
    lowers the objective, as at the box wall), or after `max_iter`
    iterations.

    The result holds per start x (flattened like x0), fun, jac, hess,
    nit_per_start, nfev_per_start and status: 3 objective not finite at
    the start, 0 gradient below _GRAD_TOL, 2 trust radius below _STEP_TOL,
    1 iteration limit reached.  nit, nfev and njev are sums over the
    starts; npass counts the calls of `fun`.
    """
    x = np.array(x0, dtype=float).reshape(-1, dim)
    f, g, B = fun(x)
    S = x.shape[0]
    nit = np.zeros(S, dtype=int)
    nfev = np.ones(S, dtype=int)
    njev = np.ones(S, dtype=int)
    radius = np.ones(S)
    status = np.full(S, -1)
    npass = 1
    while True:
        stop = np.where(
            ~np.isfinite(f), 3, np.where(
                np.abs(g).max(axis=-1) <= _GRAD_TOL, 0, np.where(
                    radius < _STEP_TOL, 2, np.where(nit >= max_iter, 1, -1))))
        status = np.where(status < 0, stop, status)
        run = np.flatnonzero(status < 0)
        if not run.size:
            break
        nit[run] += 1
        step, predicted = _trust_region_step(g[run], B[run], radius[run])
        x_new = x[run] + step
        f_new, g_new, B_new = fun(x_new)
        npass += 1
        nfev[run] += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(predicted > 0.0, (f[run] - f_new) / predicted, -math.inf)
        snorm = np.sqrt((step * step).sum(axis=-1))
        rad = radius[run]
        grow = (ratio > 0.75) & (snorm > 0.8 * rad)
        rad = np.where(grow, np.minimum(2.0 * rad, _MAX_RADIUS), rad)
        radius[run] = np.where(ratio > 0.25, rad, 0.25 * snorm)
        took = ratio > _ACCEPT
        moved = run[took]
        x[moved], f[moved], g[moved], B[moved] = x_new[took], f_new[took], g_new[took], B_new[took]
        njev[moved] += 1
    from scipy.optimize import OptimizeResult

    return OptimizeResult(
        x=x.ravel(), fun=f, jac=g, hess=B, status=status, nit=int(nit.sum()),
        nfev=int(nfev.sum()), njev=int(njev.sum()), npass=npass,
        nit_per_start=nit, nfev_per_start=nfev,
    )


def fit_mle(model, data, config=None):
    """Fit a family model to a dataset by maximum likelihood.

    Runs a trust-region Newton method in log-parameter space on the exact
    Hessian from every start of the battery (the seed plus
    `config.n_starts` perturbations at each of two lattice scales).  The
    starts run in lockstep, each on its own trajectory: one batched
    derivative pass per iteration evaluates all starts still running, so
    a fit costs about as many passes as its slowest start needs.  The
    winner is the best converged start (scaled gradient at most 1e-5,
    strictly inside the box, positive definite observed information); if
    none converges the best raw minimum is returned with
    `converged=False`.  `trace` holds one StartRecord per start.
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
    J = _embedding(spec)
    seed = _seed_values(spec, y)
    starts = np.array(_start_points(np.log([seed[f] for f in free]), free, cfg))
    res = minimize(
        lambda x: _log_space_derivs(spec, J, y, x)[2:],
        starts.ravel(),
        method=_trust_region_newton,
        options={"dim": k, "max_iter": cfg.max_iter},
    )
    ends = res.x.reshape(-1, k)
    nll, info, f_end, g_end, _ = _log_space_derivs(spec, J, y, ends)
    info = 0.5 * (info + info.transpose(0, 2, 1))
    trace = []
    for i, x_start in enumerate(starts):
        scaled_grad = float(np.max(np.abs(g_end[i]))) / max(1.0, abs(nll[i]))
        interior = bool(np.all(np.abs(ends[i]) < _BOX))
        pos_def = _positive_definite(info[i])
        if not math.isfinite(f_end[i]):
            reason = "degenerate"
        elif not interior:
            reason = "not interior"
        elif not scaled_grad <= _GRAD_CEILING:
            reason = "gradient"
        elif not pos_def:
            reason = "not positive definite"
        else:
            reason = None
        trace.append(
            StartRecord(
                start=tuple(float(v) for v in np.exp(x_start)),
                nit=int(res.nit_per_start[i]),
                nfev=int(res.nfev_per_start[i]),
                neg_loglik=float(nll[i]),
                grad_norm=scaled_grad,
                interior=interior,
                pos_def=pos_def,
                reason=reason,
            )
        )

    usable = [i for i, r in enumerate(trace) if r.reason != "degenerate"]
    if not usable:
        raise RuntimeError("every optimization replicate produced a degenerate fit")
    converged = [i for i in usable if trace[i].reason is None]
    winner = min(converged or usable, key=lambda i: trace[i].neg_loglik)
    best = trace[winner]
    estimates = {f: float(v) for f, v in zip(free, np.exp(ends[winner]))}
    std_errors = None
    try:
        cov = np.linalg.inv(info[winner])
        diag = np.diag(cov)
        if np.all(np.isfinite(diag)) and np.all(diag > 0.0):
            std_errors = {f: float(math.sqrt(d)) for f, d in zip(free, diag)}
    except np.linalg.LinAlgError:
        pass
    return FitResult(
        model=spec,
        estimates=estimates,
        std_errors=std_errors,
        neg_loglik=best.neg_loglik,
        info_matrix=info[winner],
        converged=bool(converged),
        iterations=best.nit,
        grad_norm=best.grad_norm,
        trace=tuple(trace),
        winner=winner,
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
