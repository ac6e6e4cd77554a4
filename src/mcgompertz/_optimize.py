"""The optimizer entry point of `inference`.

Fitting loads no `scipy.optimize`, which would add about 0.4 s and 21 MB
to every fitting process (2 vCPUs, `BENCH_fitdeps.json`): a fit needs only
a call into its own Newton solver.

`minimize` runs a minimizer given as `method` with the keyword shape of
`scipy.optimize.minimize`.  `inference` binds it as `inference.minimize`
and calls it once per fit with its lockstep Newton solver.  It is defined
outside `inference` because `perfbench/tracing.py` rebinds
`inference.minimize` and names its spans by module and function: a
`minimize` defined in `inference` would share the optimizer's span.
"""


def minimize(fun, x0, args=(), method=None, jac=None, hess=None, options=None):
    """Minimize `fun` from `x0` with the minimizer `method`, called as
    `scipy.optimize.minimize` calls a callable method:
    `method(fun, x0, args=args, jac=jac, hess=hess, **options)`."""
    return method(fun, x0, args=args, jac=jac, hess=hess, **(options or {}))
