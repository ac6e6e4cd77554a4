"""The optimizer entry point of `inference`, and a bounded scalar minimizer.

Fitting loads no `scipy.optimize`, which would add about 0.4 s and 21 MB
to every fitting process (2 vCPUs, `BENCH_fitdeps.json`): a fit needs only
a call into its own Newton solver and one bounded 1-d search.

`minimize` runs a minimizer given as `method` with the keyword shape of
`scipy.optimize.minimize`.  `inference` binds it as `inference.minimize`
and calls it once per fit with its lockstep Newton solver.  It is defined
outside `inference` because `perfbench/tracing.py` rebinds
`inference.minimize` and names its spans by module and function: a
`minimize` defined in `inference` would share the optimizer's span.
"""

import math


def minimize(fun, x0, args=(), method=None, jac=None, hess=None, options=None):
    """Minimize `fun` from `x0` with the minimizer `method`, called as
    `scipy.optimize.minimize` calls a callable method:
    `method(fun, x0, args=args, jac=jac, hess=hess, **options)`."""
    return method(fun, x0, args=args, jac=jac, hess=hess, **(options or {}))


def _sign(v):
    """The direction of a step v as scipy takes it, `np.sign(v) + (v == 0)`:
    -1 or 1, zero counting as positive."""
    return math.copysign(1.0, v) if v else 1.0


def minimize_scalar_bounded(func, lo, hi, xatol):
    """Minimize the scalar function `func` over [lo, hi] to within `xatol`
    in x; return the x found, after at most 500 evaluations of `func`.

    Brent's method: golden-section steps, replaced by a parabola through
    the three best points wherever the parabola is acceptable.  A port of
    `_minimize_scalar_bounded` from SciPy (`scipy/optimize/_optimize.py`,
    BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. and 2003 SciPy
    Developers), on Python floats instead of numpy scalars.  It takes the
    same steps and returns the same x as `scipy.optimize.minimize_scalar(
    func, bounds=(lo, hi), method="bounded", options={"xatol": xatol})`,
    bit for bit, but raises no numpy warning where `func` is infinite
    (inf - inf in the parabola is nan, and the step falls back to golden
    section as it does there).
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(lo), float(hi)
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = float(func(x))
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True

        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = float(func(x))
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= 500:
            break

    return xf
