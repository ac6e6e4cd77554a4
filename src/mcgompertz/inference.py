"""Maximum-likelihood estimation for the generalized Gompertz family.

The log-likelihood, score vector, and observed information matrix are exact
analytic expressions shared by every sub-model in the family registry,
computed together in one pass over the data from the intermediates of the
log density; each sub-model sees them through a constant 0/1 embedding of
its free parameters.  Fitting runs a deterministic multistart in
log-parameter space through the lockstep trust-region Newton driver of
`_optimize`, which evaluates all starts still running in one derivative
pass over a (starts x n) array.  A start counts as converged on its scaled
gradient norm, interiority, and positive definiteness of the observed
information, and every start is reported in the fit's trace.  A start
whose trial step takes a shape parameter past the box wall is on a ridge
and stops there, not interior: a lockstep fit costs as many passes as its
slowest start, and on the paper's data that is a ridge start.

A pass is fixed cost more than arithmetic: at n <= 63 observations and
<= 17 starts its time goes to the count of numpy calls.  So the
parameters are checked once per fit, at the starts; the pass runs under
the driver's errstate and enters none of its own; ln B(a/c, b), the four
psi differences and psi'(a/c + b) come from one (a/c, b) block with one
check, psi and psi' at a/c + b taken once; the free-parameter
embedding runs only on the models that need it; a repeated start runs
once; and the end points reuse the driver's last evaluation.  With a
trust-region step and driver that make few numpy calls, a pass takes
~532 us on 2 vCPUs (casestudy `pass_s` over its 354 passes;
`BENCH_pass_cost.json`, `BENCH_step_cost.json`).  The 8 fits of the
paper's two applications (mcg, bg, kumg, mce on both datasets) take 354
passes (`BENCH_wall_stop.json`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from statistics import NormalDist

import numpy as np

from ._optimize import STOPS, minimize
from .core import _log_pdf_terms, _trusted, log_pdf
from .family import ModelSpec, _full_values, make_submodel, model_spec
from .specfun import _psi_sum_differences


# Log-parameter box: every coordinate within _BOX of the seed, |ln p - ln
# p_seed| < _BOX.  It keeps ridge escapes (likelihood paths improving
# forever as a parameter diverges) from masquerading as maxima, as one rule
# in two places: the driver never takes a trial step that puts a shape
# parameter (a, b, c) past the wall, and stops such a start at its last
# accepted point; and a start is interior only if it was not stopped there
# and every coordinate ends inside.  The shape seeds are 1, so the shape
# half is |ln p| < _BOX.  The rate seeds carry the units of the data (and
# for the Gompertz base its location), so the rate half, and with it the
# `converged` flag, does not depend on them.
_BOX = 30.0

# Multistart lattice scales in log-parameter space.
_LATTICE_SCALES = (math.log(4.0), math.log(16.0))

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
    interior: whether it was not stopped at the wall and ended strictly
        inside the box, every coordinate within 30 of the seed's in log
        space: a start whose trial step took a shape parameter past
        |ln p| = 30 ends at its last accepted point, whose shape parameters
        lie inside, with interior False.
    pos_def: whether the observed information there is positive definite.
    reason: why it cannot win as a converged fit, or None when it
        converged.  Checked in this order: "degenerate" (the likelihood or
        its derivatives are not finite there), "not interior", "gradient"
        (scaled gradient above 1e-5), "not positive definite".
    stop: why the optimizer stopped it: "gradient", "iteration limit",
        "radius" (trust radius below 1e-10), "not finite" (at the start)
        or "wall" (a trial step past the box in a shape parameter).
    """

    start: tuple
    nit: int
    nfev: int
    neg_loglik: float
    grad_norm: float
    interior: bool
    pos_def: bool
    reason: str | None
    stop: str


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
        ended strictly inside the log-parameter box around the seed, and had
        a positive definite observed information.
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


def _check_params(model, params):
    """The model's ModelSpec, once `params` is checked to be a parameter
    object that satisfies the sub-model constraints: each field equal to
    the one its free values give."""
    spec = _spec(model)
    if not isinstance(params, spec.params_type):
        raise TypeError(f"{spec.name} expects {spec.params_type.__name__}")
    expected = _full_values(spec, {f: getattr(params, f) for f in spec.free_params})
    for f, want in zip(fields(params), expected):
        actual = getattr(params, f.name)
        # a free field is its own expected value
        if actual is not want and actual != want:
            fixed = dict(spec.constraints)[f.name]
            raise ValueError(
                f"params violate the {spec.name} constraint {f.name} = {fixed}: "
                f"got {actual}"
            )
    return spec


def _shape_blocks(params, w, ln_g, ln_v, ln_1mv, deep):
    """Per-observation pieces shared by the score and the Hessian, from the
    pass of `core._log_pdf_terms` (w, ln G, ln G^c, ln(1 - G^c), deep),
    evaluated under the caller's errstate.  Shared subexpressions are
    taken once where that keeps every bit of the values.

    Past w = 700, where e^{-w} underflows and 1 - G^c with it, they take
    their limits as in `core.log_pdf`: ln(1 - G^c) -> ln c - w, R -> 1/c,
    Q -> -1/c, dQ/dc -> 1/c^2, and dR, T -> 0 (corrections O(e^{-w})).
    """
    a, b, c = params.a, params.b, params.c
    G = np.exp(ln_g)
    V = np.exp(ln_v)
    one_mV = np.exp(ln_1mv)
    # the three rows of the cross partials, written in place
    cross = np.empty(w.shape[:-1] + (3,) + w.shape[-1:])
    ratio1 = np.divide(1.0, np.expm1(w), out=cross[..., 0, :])
    c_m1 = c - 1.0
    R = np.exp(c_m1 * ln_g - w) / one_mV
    Q = V * ln_g / one_mV
    dQ = Q * ln_g / one_mV
    cR = c * R
    dR = np.exp((c - 2.0) * ln_g - w) * (c_m1 - c * G) / one_mV + cR * R
    T = cR * ln_g + V * ratio1 / one_mV + cR * Q
    if deep is not None:
        R = np.where(deep, 1.0 / c, R)
        cR = c * R
        Q = np.where(deep, -1.0 / c, Q)
        dQ = np.where(deep, 1.0 / (c * c), dQ)
        dR = np.where(deep, 0.0, dR)
        T = np.where(deep, 0.0, T)
    np.negative(cR, out=cross[..., 1, :])
    np.multiply(-(b - 1.0), T, out=cross[..., 2, :])
    am1_r = (a - 1.0) * ratio1
    bm1_c = (b - 1.0) * c
    return {
        "ln1mV": ln_1mv,
        "Q": Q,
        "dQ": dQ,
        "A": -1.0 + am1_r - bm1_c * R,
        "Ap": -(am1_r / G) - bm1_c * dR,
        "cross": cross,
    }


def _derivs(params, y):
    """Log-likelihood, score and Hessian in the full natural parameters
    (a, b, c, theta[, gamma]), from one pass over the data.

    The fields of `params` are floats, for one point, or (S, 1) columns
    for S starts at once (a field a sub-model fixes may stay a float);
    the pass then runs over an (S, n) array and the value, score and
    Hessian gain a leading axis of length S.  The value is -inf where it
    is not finite.  The base rates enter only through w(y) and ln w'(y),
    whose partials the base supplies.  ln B(a/c, b), the digamma and
    trigamma differences and psi'(a/c + b) come from one (a/c, b) block,
    `specfun._psi_sum_differences`: cancellation-free, which matters on
    the b -> infinity ridge, with the pass's one check of (a/c, b), which
    raises ValueError where either is not finite and positive.  Every
    reduction and matrix product runs within a row, so a start's numbers
    do not depend on which other starts share the pass: a block's row
    equals bit for bit the pass of that row alone.

    Runs under the caller's errstate, as every helper of the pass does:
    `score` and `loglik_hessian` enter one, and the fit's driver one for
    the whole fit.
    """
    n = y.size
    a, b, c = (
        np.ravel(v) if isinstance(v, np.ndarray) else v
        for v in (params.a, params.b, params.c)
    )
    alpha = a / c
    log_b, zeta_ab, zeta_ba, tg_diff_ab, tg_diff_ba, tg_ab = _psi_sum_differences(alpha, b)
    if isinstance(log_b, np.ndarray):
        log_b = log_b[:, None]
    logf, w, ln_g, ln_v, ln_1mv, deep = _log_pdf_terms(params, y, log_b)
    blk = _shape_blocks(params, w, ln_g, ln_v, ln_1mv, deep)
    dw, d2w, dlw, d2lw = params.base.w_partials(y, w)
    P = -tg_diff_ab
    c2, c3 = c**2, c**3
    na_c2 = n * a / c2
    n_c2 = -n / c2
    bm1 = b - 1.0
    q_sum = blk["Q"].sum(axis=-1)
    A = blk["A"][..., None]
    dwT = np.swapaxes(dw, -1, -2)
    k = 3 + dw.shape[-2]
    U = np.empty(logf.shape[:-1] + (k,))
    U[..., 0] = n * zeta_ab / c + ln_g.sum(axis=-1)
    U[..., 1] = n * zeta_ba + blk["ln1mV"].sum(axis=-1)
    U[..., 2] = n / c - na_c2 * zeta_ab - bm1 * q_sum
    U[..., 3:] = dlw + (dw @ A)[..., 0]
    H = np.empty(U.shape + (k,))
    H[..., 0, 0] = -n * P / c2
    H[..., 0, 1] = H[..., 1, 0] = n * tg_ab / c
    H[..., 1, 1] = n * tg_diff_ba
    H[..., 0, 2] = H[..., 2, 0] = n_c2 * zeta_ab + n * a * P / c3
    H[..., 1, 2] = H[..., 2, 1] = -(na_c2 * tg_ab) - q_sum
    H[..., 2, 2] = (
        n_c2
        + 2.0 * n * a * zeta_ab / c3
        - n * a**2 * P / c**4
        - bm1 * blk["dQ"].sum(axis=-1)
    )
    cross = blk["cross"] @ dwT
    H[..., :3, 3:] = cross
    H[..., 3:, :3] = np.swapaxes(cross, -1, -2)
    rates = d2lw + (dw * blk["Ap"][..., None, :]) @ dwT
    # the exponential base has no second partials of w
    H[..., 3:, 3:] = rates if d2w is None else rates + (d2w @ A[..., None, :, :])[..., 0]
    value = logf.sum(axis=-1)
    return np.where(np.isfinite(value), value, -np.inf), U, H


def _embedding(spec):
    """The constant 0/1 matrix J mapping free-parameter differentials to
    full ones, so the free score is J^T U and the free Hessian J^T H J.

    Its rows are the full values of the unit free points: a free or tied
    coordinate takes its free parameter's unit vector, so an equality tie
    such as a = c puts two ones in that parameter's column, and a fixed
    one is constant, a zero row.
    """
    k = spec.free_count
    rows = _full_values(spec, dict(zip(spec.free_params, np.eye(k))))
    return np.array([r if isinstance(r, np.ndarray) else np.zeros(k) for r in rows])


def log_likelihood(model, params, data):
    """Log-likelihood of `params` for `model` on `data`.

    `params` must be a full parameter object consistent with the model's
    constraints.  Returns -inf when the density degenerates on the sample.
    """
    _check_params(model, params)
    value = float(log_pdf(params, data.array).sum())
    return value if math.isfinite(value) else -math.inf


def score(model, params, data):
    """Gradient of the log-likelihood in the model's free parameters."""
    J = _embedding(_check_params(model, params))
    with np.errstate(all="ignore"):
        return J.T @ _derivs(params, data.array)[1]


def loglik_hessian(model, params, data):
    """Hessian of the log-likelihood in the model's free parameters."""
    J = _embedding(_check_params(model, params))
    with np.errstate(all="ignore"):
        return J.T @ _derivs(params, data.array)[2] @ J


def observed_info(model, params, data):
    """Observed information: the negated free-parameter Hessian."""
    return -loglik_hessian(model, params, data)


def _gompertz_seed(y):
    """Profile-likelihood starting point (theta, gamma) for the Gompertz base.

    For fixed gamma the rate has the closed form theta(gamma) =
    n gamma / sum(expm1(gamma y)), and the profile log-likelihood has the
    derivative n + gamma sum(y) - n gamma sum(y e^{gamma y}) /
    sum(expm1(gamma y)) in ln gamma.  Bisection on the sign of that score
    over ln(gamma ybar) in [-12, 6] locates the profile optimum in the
    units of the data: the sums run over x = y / ybar, scaled by
    e^{-g max x} at g = gamma ybar so that nothing overflows, and the root
    maps back as (theta, gamma) / ybar.  Tightly clustered data put
    theta ybar near e^{-g}; the upper end keeps it a normal double.
    """
    ybar = float(y.mean())
    x = y / ybar
    xmax = float(x.max())
    top = x - xmax

    def scaled_sums(g):
        e = np.exp(g * top)
        return float(x @ e), -float(e @ np.expm1(-g * x))

    lo, hi = -12.0, 6.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        g = math.exp(mid)
        num, den = scaled_sums(g)
        if (1.0 + g) * den > g * num:
            lo = mid
        else:
            hi = mid
    g = math.exp(0.5 * (lo + hi))
    theta = x.size * g * math.exp(-g * xmax) / scaled_sums(g)[1]
    return theta / ybar, g / ybar


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


def _start_points(x0, shape, cfg):
    """Deterministic multistart battery around the seed point.

    At each lattice scale (ln 4, then ln 16) the shape parameters, the
    coordinates `shape` of x0, get up to `n_starts` corners of the +-scale
    sign lattice; slots the lattice cannot fill take seeded Gaussian
    jitter of that scale.  The wide scale reaches optima far out in a
    shape, like the glass McG fit at c ~ 219.  The rates keep their seed
    values, so every start of a model with no free shape (G, E) is the
    seed, which is that model's MLE.
    """
    points = [np.array(x0, dtype=float)]
    rng = np.random.default_rng(cfg.seed)
    for delta in _LATTICE_SCALES:
        combos = itertools.product((-delta, delta), repeat=len(shape))
        shifts = list(itertools.islice(combos, cfg.n_starts))
        while len(shifts) < cfg.n_starts:
            shifts.append(rng.normal(0.0, delta, size=len(shape)))
        for shift in shifts:
            xp = points[0].copy()
            xp[shape] += shift
            points.append(xp)
    return points


def _log_space_derivs(spec, J, y, x):
    """At an (m, k) block of free log-parameter points x = ln p, one
    `_derivs` pass gives (f, g, B, nll, info): the negative log-likelihood
    nll (m,) and observed information (m, k, k) in the free natural
    parameters, and the objective f (m,) with its gradient (m, k) and
    Hessian (m, k, k) in x, where f is nll, or +inf wherever any of them
    is not finite.  J is the model's embedding, or None where it is the
    identity.

    The objective of the lockstep driver, run under its errstate, the one
    the whole pass runs under.  The parameters are not checked: `fit_mle`
    checks the starts, and at a later point out of range (a trial past exp
    overflow or underflow, say) the result is not finite, f = +inf, and
    the driver rejects the step.  Where a shape takes a/c or b out of
    (0, inf), the pass's one check of (a/c, b) raises; only then are those
    rows set apart, with f = nll = +inf and NaN derivatives, and the
    others take their own pass."""
    p = np.exp(x)
    columns = {f: p[:, j:j + 1] for j, f in enumerate(spec.free_params)}
    params = _trusted(spec.params_type, *_full_values(spec, columns))
    try:
        value, U, H = _derivs(params, y)
    except ValueError:
        alpha, b = params.a / params.c, params.b
        ok = np.ravel((alpha > 0.0) & (alpha < math.inf) & (b > 0.0) & (b < math.inf))
        if ok.all():
            raise
        m, k = x.shape
        out = (np.full(m, math.inf), np.full((m, k), np.nan), np.full((m, k, k), np.nan),
               np.full(m, math.inf), np.full((m, k, k), np.nan))
        if ok.any():
            for full, v in zip(out, _log_space_derivs(spec, J, y, x[ok])):
                full[ok] = v
        return out
    if J is not None:
        U, H = U @ J, J.T @ H @ J
    # -(p U) and -(p H p), each negated exactly once, through -p
    neg_p = -p
    g = neg_p * U
    B = neg_p[:, :, None] * H * p[:, None, :]
    m, k = x.shape
    B.reshape(m, k * k)[:, ::k + 1] += g
    # B's diagonal holds g, so a finite B implies a finite g
    nll = -value
    ok = np.isfinite(value) & np.isfinite(B).all(axis=(-2, -1))
    return np.where(ok, nll, math.inf), g, B, nll, -H


def _positive_definite(m):
    if not np.all(np.isfinite(m)):
        return False
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def fit_mle(model, data, config=None):
    """Fit a family model to a dataset by maximum likelihood.

    Runs a trust-region Newton method in log-parameter space on the exact
    Hessian from every start of the battery (the seed plus
    `config.n_starts` perturbations at each of two lattice scales).  The
    starts run in lockstep, each on its own trajectory: one batched
    derivative pass per iteration evaluates all starts still running, so
    a fit costs about as many passes as its slowest start needs.  The
    parameters are checked once per fit, at the starts.  A start that
    repeats an earlier one is not run again; its record copies its
    twin's.  The winner is the best converged start (scaled gradient at
    most 1e-5, every log-parameter strictly within 30 of the seed's,
    positive definite observed information); if none converges the best
    raw minimum is returned with `converged=False`.  `trace` holds one
    StartRecord per start.
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
    seed = _seed_values(spec, y)
    # the shape parameters lead the free ones in every model
    shape = [j for j, f in enumerate(free) if f in ("a", "b", "c")]
    n_shape = len(shape)
    x0 = np.log([seed[f] for f in free])
    starts = np.array(_start_points(x0, shape, cfg))
    # each distinct start once, in battery order: slot i runs as row
    # twin[i] of `distinct`, and the rows are independent
    keys = {}
    twin = np.array([keys.setdefault(row.tobytes(), len(keys)) for row in starts])
    distinct = starts[np.unique(twin, return_index=True)[1]]
    # the one check of the parameters; a start past exp overflow fails it
    with np.errstate(over="ignore"):
        p = np.exp(distinct)
    make_submodel(spec.name, {f: p[:, j:j + 1] for j, f in enumerate(free)})
    J = _embedding(spec)
    J = None if np.array_equal(J, np.eye(k)) else J
    # a start whose trial step takes a shape past the wall is on a ridge:
    # it stops there, never converged.  The rates are not walled: a rate
    # may walk out of the box and back, and counts where it ends.
    res = minimize(
        lambda x: _log_space_derivs(spec, J, y, x), distinct, max_iter=cfg.max_iter,
        outside=lambda x: (np.abs(x[:, :n_shape]) > _BOX).any(axis=-1),
    )
    ends = res.x
    f_end, g_end, _, nll, info = res.evals
    info = 0.5 * (info + info.transpose(0, 2, 1))
    records = []
    for i, x_start in enumerate(distinct):
        scaled_grad = float(np.max(np.abs(g_end[i]))) / max(1.0, abs(nll[i]))
        stop = STOPS[res.status[i]]
        interior = stop != "wall" and bool(np.all(np.abs(ends[i] - x0) < _BOX))
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
        records.append(
            StartRecord(
                start=tuple(float(v) for v in np.exp(x_start)),
                nit=int(res.nit_per_start[i]),
                nfev=int(res.nfev_per_start[i]),
                neg_loglik=float(nll[i]),
                grad_norm=scaled_grad,
                interior=interior,
                pos_def=pos_def,
                reason=reason,
                stop=stop,
            )
        )
    trace = [records[i] for i in twin]

    usable = [i for i, r in enumerate(trace) if r.reason != "degenerate"]
    if not usable:
        raise RuntimeError("every optimization replicate produced a degenerate fit")
    converged = [i for i in usable if trace[i].reason is None]
    winner = min(converged or usable, key=lambda i: trace[i].neg_loglik)
    best = trace[winner]
    w = twin[winner]
    estimates = {f: float(v) for f, v in zip(free, np.exp(ends[w]))}
    std_errors = None
    try:
        cov = np.linalg.inv(info[w])
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
        info_matrix=info[w],
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
