"""McDonald-Gompertz lifetime distribution toolkit.

Five-parameter McDonald-Gompertz family: exact distribution functions,
series expansions, shape and entropy measures, order statistics,
maximum-likelihood fitting with analytic score and observed
information, and model-selection statistics, plus the nested
sub-families (beta-Gompertz, Kumaraswamy-Gompertz, generalized
Gompertz, and their exponential-base limits).
"""

from mcgompertz.core import (
    McEParams,
    McGParams,
    cdf,
    hazard,
    log_pdf,
    pdf,
    quantile,
    sample,
    survival,
)
from mcgompertz.family import make_submodel, model_spec
from mcgompertz.inference import Dataset, OptimizerConfig, fit_mle
from mcgompertz.selection import gof_report, info_criteria, ks_test, lrt

__version__ = "0.1.0"

__all__ = [
    "McGParams",
    "McEParams",
    "cdf",
    "pdf",
    "log_pdf",
    "survival",
    "hazard",
    "quantile",
    "sample",
    "make_submodel",
    "model_spec",
    "Dataset",
    "OptimizerConfig",
    "fit_mle",
    "gof_report",
    "info_criteria",
    "ks_test",
    "lrt",
    "__version__",
]
