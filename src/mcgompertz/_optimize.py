"""Deferred import of `scipy.optimize`.

Importing `scipy.optimize` takes about a third of the time to import the
package with it, and only maximum likelihood needs it.  `inference`
binds `minimize` from here, so the import happens on the first fit.  It
is defined outside `inference` because `perfbench/tracing.py` rebinds
`inference.minimize` and names its spans by module and function: a
`minimize` defined in `inference` would share the optimizer's span.
"""


def minimize(*args, **kwargs):
    """`scipy.optimize.minimize`, imported on first use."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)
