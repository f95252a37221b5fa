"""Distribution-free p-values for the mean of i.i.d. [0, 1]-bounded losses.

The PRW p-value converts an explicit binomial-tail bound into a
super-uniform test statistic for ``H0: mean > alpha``; Bentkus and
tight-Hoeffding p-values are provided for comparison, together with
FWER-controlling multiple-testing procedures and a seeded Monte Carlo
validation harness.
"""

from .binomial import BinomialParams, cdf, sf
from .prw import (
    GBoundContext,
    TestSpec,
    ceil_scaled,
    g,
    g_inverse,
    gamma_r,
    lower_tail_bound,
    prw_pvalue,
    upper_tail_bound,
)
from .baselines import (
    PValueReport,
    bentkus_pvalue,
    compare,
    hoeffding_tight_pvalue,
    kl_bernoulli,
)
from .fwer import FwerOutcome, FwerPlan, bonferroni, fallback, fixed_sequence
from .mc import (
    LossDistribution,
    McReport,
    PVALUE_METHODS,
    simulate_power,
    simulate_superuniformity,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialParams",
    "cdf",
    "sf",
    "TestSpec",
    "GBoundContext",
    "gamma_r",
    "ceil_scaled",
    "upper_tail_bound",
    "lower_tail_bound",
    "g",
    "g_inverse",
    "prw_pvalue",
    "PValueReport",
    "bentkus_pvalue",
    "kl_bernoulli",
    "hoeffding_tight_pvalue",
    "compare",
    "FwerPlan",
    "FwerOutcome",
    "fixed_sequence",
    "fallback",
    "bonferroni",
    "LossDistribution",
    "McReport",
    "PVALUE_METHODS",
    "simulate_superuniformity",
    "simulate_power",
    "__version__",
]
