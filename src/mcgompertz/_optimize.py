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
# A boundary row with lam_1 <= 0 is hard where sigma* + lam_1 is at most
# _HARD spacings of the floats at -lam_1: a float sigma there sets |s| no
# closer to the radius than about 1/_HARD.
_HARD = 1.0e9
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

    The bookkeeping of an iteration is a few whole-block numpy calls.
    Every start runs from the first pass, so the running starts share one
    iteration count; the stop rules form one mask, and the status codes
    are formed only in a pass where some start stops; the accepted trial
    rows are copied into the state in place, one masked copy per array.

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
    # the running starts keep their state in arrays of their own rows,
    # which shrink as starts stop; a start's final state is written out
    # once, when it stops.  `it` is the iteration count of every running
    # start, and njev counts an evaluation per start and per accepted
    # step.  Each `wall` that `outside` returns is read before the rows
    # shrink, so it is never shrunk; it is False until the first call.
    run = np.arange(S)
    radius = np.ones(S)
    wall = np.False_
    x_run = x.copy()
    it, njev = 0, S
    with np.errstate(all="ignore"):
        state = list(fun(x))
        evals = [v.copy() for v in state]
        npass = 1
        while True:
            f, g, B = state[:3]
            finite = np.isfinite(f)
            flat = np.abs(g).max(axis=-1) <= _GRAD_TOL
            tiny = radius < _STEP_TOL
            ended = ~finite | wall | flat | tiny
            if it >= max_iter:
                ended[:] = True
            n_end = np.count_nonzero(ended)
            if n_end:
                out = run[ended]
                stop = np.where(~finite, 3, np.where(wall, 4, np.where(flat, 0, np.where(tiny, 2, 1))))
                status[out], x[out], nit[out] = stop[ended], x_run[ended], it
                for kept, v in zip(evals, state):
                    kept[out] = v[ended]
                if n_end == run.size:
                    break
                going = ~ended
                run, radius, x_run = run[going], radius[going], x_run[going]
                state = [v[going] for v in state]
                f, g, B = state[:3]
            it += 1
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
            n_took = np.count_nonzero(took)
            njev += n_took
            if n_took == run.size:
                x_run, state = x_new, list(trial)
            elif n_took:
                for kept, v in zip([x_run, *state], [x_new, *trial]):
                    np.copyto(kept, v, where=took.reshape((-1,) + (1,) * (v.ndim - 1)))
    # every iteration of a start evaluates its trial point
    nfev = nit + 1
    return SimpleNamespace(
        x=x, evals=tuple(evals), status=status,
        nit=int(nit.sum()), nfev=int(nfev.sum()), njev=int(njev), npass=npass,
        nit_per_start=nit, nfev_per_start=nfev,
    )


def _trust_region_step(g, B, radius):
    """Exact minimizer s of the model g.s + s.B.s/2 over |s| <= radius, row
    by row over a batch: g (m, k), B (m, k, k), radius (m,).

    Moré & Sorensen (1983) on the eigendecomposition B = Q diag(lam) Q^T:
    the Newton step when B is positive definite and the step fits, else
    s = -(B + sigma I)^-1 g on the boundary, with sigma >= max(0, -lam_1)
    solving the secular equation 1/|s(sigma)| = 1/radius by safeguarded
    Newton.  In the hard case (sigma* too close to -lam_1 for floats to
    tell apart and the shifted step inside the radius) the step is
    completed along the lowest eigenspace.  One batched eigh serves every
    row, and each row takes its case by mask: only the rows whose Newton
    step does not serve go on, only those of them with lam_1 <= 0 and
    |gt_1| <= _HARD spacing(-lam_1) radius (gt = Q^T g) are tested for the
    hard case, and the boundary rows share one secular
    iteration in which a row keeps its sigma once it has converged.  The
    safeguards of that iteration (moving the bracket, bisecting a step
    that leaves it, holding converged rows) run only in the iterations
    where some row needs them, so a row's sigma, and the step, are the
    same bits whichever rows share the batch.  Returns (s, predicted
    decrease of the model).
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
    gt_1 = np.abs(gt[:, 0])
    # the hard case: sigma* - lo is at most |gt_b|/sqrt(room), gt_b the part
    # of gt in the bottom eigenspace (eigenvalues within 1e-12 of lam_1) and
    # room what the radius leaves beside the rest of the step, and a row is
    # hard where that bound is at most `fine` (so |gt_1|/radius is too).  The
    # rest is taken at sigma = lo, then again at lo + the bound, on the shifts
    # lam - lam_1, which hold so small a gap exactly; the step is finished in
    # the bottom eigenspace to |s| = radius, along -gt_b, or along v_1 where
    # gt_b = 0 (Moré & Sorensen 1983).  A nan eigenvalue leaves room nan.
    fine = _HARD * np.spacing(lo)
    maybe = (lam_1 <= 0.0) & (gt_1 <= fine * rad)
    if np.count_nonzero(maybe):
        cand = np.flatnonzero(maybe)
        lam_c, gt_c, rad_c = lam[cand], gt[cand], rad[cand]
        bottom = lam_c - lam_c[:, :1] <= 1e-12 * np.abs(lam_c).max(axis=-1, keepdims=True)
        shift = lam_c + lo[cand, None]
        g_b = np.sqrt(np.where(bottom, gt_c * gt_c, 0.0).sum(axis=-1))
        tilted = g_b > 0.0
        gap = 0.0
        for _ in range(2):
            rest = np.where(bottom, 0.0, -gt_c / np.where(bottom, 1.0, shift + gap))
            room = rad_c * rad_c - (rest * rest).sum(axis=-1)
            gap = np.where(tilted, g_b / np.sqrt(room), 0.0)[:, None]
        hard = (room >= 0.0) & (g_b <= fine[cand] * np.sqrt(room))
        if hard.any():
            along = np.where(tilted[:, None], -gt_c / np.where(tilted, g_b, 1.0)[:, None],
                             np.eye(lam.shape[1])[0])
            hard_st = np.where(bottom, along * np.sqrt(np.maximum(room, 0.0))[:, None], rest)
            st[rows[cand[hard]]] = hard_st[hard]
            keep = np.ones(rows.size, dtype=bool)
            keep[cand[hard]] = False
            rows, lam, gt, gt2, rad, lo, gnorm, gt_1 = (
                v[keep] for v in (rows, lam, gt, gt2, rad, lo, gnorm, gt_1)
            )
            if not rows.size:
                return
    n = rows.size
    hi = gnorm / rad - lam[:, 0]
    # start left of the root, where |s| >= radius: at 0 when B is positive
    # definite (the Newton step did not fit), else at -lam_1 + |gt_1|/radius,
    # where the lowest component alone has length radius.  Newton on the
    # concave 1/|s(sigma)| then rises to the root without overshooting; the
    # upper bound serves where gt_1 = 0 leaves no such point.
    pos_def = lam[:, 0] > 0.0
    left = lo + np.where(pos_def, 0.0, gt_1 / rad)
    sigma = np.where(pos_def | (left > lo), left, hi)
    tol = 1e-8 * rad
    # the bracket moves, the Newton step is bisected and a converged row
    # keeps its sigma only where they apply: rising from the left, no row
    # is short of the radius and every step stays in the bracket
    for _ in range(100):
        shifted = lam + sigma[:, None]
        inv = 1.0 / shifted
        q = gt2 * inv * inv
        snorm2 = q.sum(axis=-1)
        gap = np.sqrt(snorm2) - rad
        done = np.abs(gap) <= tol
        n_done = np.count_nonzero(done)
        if n_done == n:
            break
        short = gap < 0.0
        if np.count_nonzero(short):
            hi = np.where(short, sigma, hi)
            lo = np.where(short, lo, sigma)
        else:
            lo = sigma
        step = sigma + gap / rad * snorm2 / (q * inv).sum(axis=-1)
        inside = (lo < step) & (step < hi)
        if np.count_nonzero(inside) < n:
            step = np.where(inside, step, 0.5 * (lo + hi))
        sigma = np.where(done, sigma, step) if n_done else step
    # the steps at the sigma of the last iteration
    st[rows] = -gt / shifted
