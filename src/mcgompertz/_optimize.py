"""The optimizer of `fit_mle`: `minimize`, a trust-region Newton method
over a block of starts run in lockstep, and `_trust_region_step`, the exact
step of each start's quadratic model (Moré & Sorensen 1983).  The driver
sees the objective only through the values, gradients and Hessians it
returns, +inf where it is not defined, and is told by a predicate which
trial points lie outside the region of interest, where it takes no step:
it knows nothing of the likelihood or of the box that confines a fit.

Fitting loads no `scipy.optimize`, which would add about 0.4 s and 21 MB
to every fitting process (2 vCPUs, `BENCH_fitdeps.json`).

The module sits outside `inference`, which binds `minimize` as
`inference.minimize`, because `perfbench/tracing.py` rebinds that name and
names its spans by module and function: a `minimize` defined in
`inference` would share the optimizer's span.
"""

import math
from types import SimpleNamespace

import numpy as np

# Largest trust radius, and the least ratio of actual to predicted decrease
# at which a step is taken.
_MAX_RADIUS = 10.0
_ACCEPT = 0.1
# A start stops once its sup-norm gradient is at most _GRAD_TOL, or once its
# trust radius shrinks below _STEP_TOL.
_GRAD_TOL = 1.0e-6
_STEP_TOL = 1.0e-10
# the stop statuses of `minimize`, by code
STOPS = ("gradient", "iteration limit", "radius", "not finite", "wall")


def minimize(fun, x0, *, max_iter, jac=None, outside=None):
    """Minimize `fun` from each row of the (S, k) block x0 of S start points
    by trust-region Newton, the starts run in lockstep.

    `fun` maps an (m, k) block of points to a tuple of per-point arrays
    whose first three are the objective values (m,), gradients (m, k) and
    Hessians (m, k, k); it returns +inf where the objective is not defined,
    and steps there are rejected like any other step that fails to
    decrease it.  `fun` and the steps run under one errstate that ignores
    floating-point errors.  `jac` is accepted and ignored, since the
    gradients come from `fun`: `perfbench/tracing.py` passes it to every
    `minimize` it wraps.

    Each start keeps its own iterate, trust radius and stop status and
    takes the exact step of _trust_region_step on its own Hessian; one call
    of `fun` per iteration evaluates the trial points of the starts still
    running.  `outside`, if given, maps an (m, k) block of trial points
    to a bool (m,) array that marks the points past the region the caller
    cares about; a marked trial point is never accepted, however much it
    lowers the objective.  A start stops, tested in this order, where the
    objective is not finite, when its last trial point was outside (it
    ends at its last accepted point, and the steps it would spend closing
    in on a wall are never taken), when its sup-norm gradient is
    at most _GRAD_TOL, when its trust radius falls below _STEP_TOL (no
    step the model trusts still lowers the objective), or after
    `max_iter` iterations.

    The result holds per start x (S, k), evals (every array `fun`
    returned, at the points x, so no caller need evaluate them again),
    nit_per_start, nfev_per_start and status: 3 objective not finite at
    the start, 4 trial point outside, 0 gradient below _GRAD_TOL, 2 trust
    radius below _STEP_TOL, 1 iteration limit reached (STOPS names them).
    nit, nfev and njev are sums over the starts; npass counts the calls of
    `fun`.
    """
    x = np.array(x0, dtype=float)
    S = x.shape[0]
    status = np.full(S, -1)
    nit = np.zeros(S, dtype=int)
    njev = np.ones(S, dtype=int)
    # the running starts keep their state in arrays of their own rows,
    # which shrink as starts stop; a start's final state is written out
    # once, when it stops
    run = np.arange(S)
    radius = np.ones(S)
    wall = np.zeros(S, dtype=bool)
    x_run, nit_run, njev_run = x.copy(), nit.copy(), njev.copy()
    with np.errstate(all="ignore"):
        state = list(fun(x))
        evals = [v.copy() for v in state]
        npass = 1
        while True:
            f, g, B = state[:3]
            stop = np.where(
                ~np.isfinite(f), 3, np.where(wall, 4, np.where(
                    np.abs(g).max(axis=-1) <= _GRAD_TOL, 0, np.where(
                        radius < _STEP_TOL, 2, np.where(nit_run >= max_iter, 1, -1)))))
            ended = stop >= 0
            if ended.any():
                out = run[ended]
                status[out], x[out], nit[out], njev[out] = (
                    stop[ended], x_run[ended], nit_run[ended], njev_run[ended])
                for kept, v in zip(evals, state):
                    kept[out] = v[ended]
                if ended.all():
                    break
                going = ~ended
                run, radius, wall, x_run, nit_run, njev_run = (
                    v[going] for v in (run, radius, wall, x_run, nit_run, njev_run))
                state = [v[going] for v in state]
                f, g, B = state[:3]
            nit_run += 1
            step, predicted = _trust_region_step(g, B, radius)
            x_new = x_run + step
            trial = fun(x_new)
            npass += 1
            if outside is not None:
                wall = outside(x_new)
            ratio = np.where(predicted > 0.0, (f - trial[0]) / predicted, -math.inf)
            snorm = np.sqrt((step * step).sum(axis=-1))
            grow = (ratio > 0.75) & (snorm > 0.8 * radius)
            rad = np.where(grow, np.minimum(2.0 * radius, _MAX_RADIUS), radius)
            radius = np.where(ratio > 0.25, rad, 0.25 * snorm)
            took = (ratio > _ACCEPT) & ~wall
            if took.all():
                x_run, state = x_new, list(trial)
                njev_run += 1
            elif took.any():
                x_run[took] = x_new[took]
                for kept, v in zip(state, trial):
                    kept[took] = v[took]
                njev_run[took] += 1
    # every iteration of a start evaluates its trial point
    nfev = nit + 1
    return SimpleNamespace(
        x=x, evals=tuple(evals), status=status,
        nit=int(nit.sum()), nfev=int(nfev.sum()), njev=int(njev.sum()), npass=npass,
        nit_per_start=nit, nfev_per_start=nfev,
    )


def _trust_region_step(g, B, radius):
    """Exact minimizer s of the model g.s + s.B.s/2 over |s| <= radius, row
    by row over a batch: g (m, k), B (m, k, k), radius (m,).

    Moré & Sorensen (1983) on the eigendecomposition B = Q diag(lam) Q^T:
    the Newton step when B is positive definite and the step fits, else
    s = -(B + sigma I)^-1 g on the boundary, with sigma >= max(0, -lam_1)
    solving the secular equation 1/|s(sigma)| = 1/radius by safeguarded
    Newton.  In the hard case (g orthogonal to the lowest eigenspace and the
    shifted step inside the radius) the step is completed along the lowest
    eigenvector.  One batched eigh serves every row, and each row takes its
    case by mask: only the rows whose Newton step does not serve go on,
    only those of them with lam_1 <= 0 are tested for the hard case, and
    the boundary rows share one secular iteration in which a row keeps its
    sigma once it has converged.  Returns (s, predicted decrease of the
    model).
    """
    lam, Q = np.linalg.eigh(B)
    gt = (Q * g[:, :, None]).sum(axis=1)
    # zero curvature or gradients near 1e-160 can make a row's step inf or
    # nan, and curvatures near 1e-300 overflow the secular update; neither
    # warns
    with np.errstate(all="ignore"):
        st = -gt / lam
        rows = np.flatnonzero(~((lam[:, 0] > 0.0) & ((st * st).sum(axis=-1) <= radius * radius)))
        if rows.size:
            _boundary_steps(st, rows, lam[rows], gt[rows], radius[rows])
        s = (Q * st[:, None, :]).sum(axis=-1)
        predicted = -((gt * st).sum(axis=-1) + 0.5 * ((lam * st) * st).sum(axis=-1))
    return s, predicted


def _boundary_steps(st, rows, lam, gt, rad):
    """Write into st[rows] the steps in the eigenbasis of the rows whose
    Newton step does not serve: the hard-case steps, then the boundary
    steps -gt/(lam + sigma) of the secular iteration."""
    lam_1 = lam[:, 0]
    gt2 = gt * gt
    lo = np.maximum(0.0, -lam_1)
    gnorm = np.sqrt(gt2.sum(axis=-1))
    neg = np.flatnonzero(lam_1 <= 0.0)
    if neg.size:
        lam_n, gt_n = lam[neg], gt[neg]
        bottom = lam_n - lam_n[:, :1] <= 1e-12 * np.abs(lam_n).max(axis=-1, keepdims=True)
        hard_st = np.where(bottom, 0.0, -gt_n / np.where(bottom, 1.0, lam_n + lo[neg, None]))
        room = rad[neg] * rad[neg] - (hard_st * hard_st).sum(axis=-1)
        hard = (~bottom | (np.abs(gt_n) <= 1e-12 * gnorm[neg, None])).all(axis=-1) & (room >= 0.0)
        if hard.any():
            hard_st[:, 0] = np.sqrt(np.maximum(room, 0.0))
            st[rows[neg[hard]]] = hard_st[hard]
            keep = np.ones(rows.size, dtype=bool)
            keep[neg[hard]] = False
            rows, lam, gt, gt2, rad, lo, gnorm = (
                v[keep] for v in (rows, lam, gt, gt2, rad, lo, gnorm)
            )
            if not rows.size:
                return
    hi = gnorm / rad - lam[:, 0]
    # start left of the root, where |s| >= radius: at 0 when B is positive
    # definite (the Newton step did not fit), else at -lam_1 + |gt_1|/radius,
    # where the lowest component alone has length radius.  Newton on the
    # concave 1/|s(sigma)| then rises to the root without overshooting; the
    # upper bound serves where gt_1 = 0 leaves no such point.
    pos_def = lam[:, 0] > 0.0
    left = lo + np.where(pos_def, 0.0, np.abs(gt[:, 0]) / rad)
    sigma = np.where(pos_def | (left > lo), left, hi)
    tol = 1e-8 * rad
    for _ in range(100):
        at = sigma
        inv = 1.0 / (lam + sigma[:, None])
        q = gt2 * inv * inv
        snorm2 = q.sum(axis=-1)
        snorm = np.sqrt(snorm2)
        gap = snorm - rad
        done = np.abs(gap) <= tol
        if done.all():
            break
        short = snorm < rad
        hi = np.where(short, sigma, hi)
        lo = np.where(short, lo, sigma)
        step = sigma + gap / rad * snorm2 / (q * inv).sum(axis=-1)
        step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        sigma = np.where(done, sigma, step)
    st[rows] = -gt / (lam + at[:, None])
