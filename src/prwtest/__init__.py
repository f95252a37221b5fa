"""Distribution-free p-values for the mean of i.i.d. [0, 1]-bounded losses.

The PRW p-value converts an explicit binomial-tail bound into a
super-uniform test statistic for ``H0: mean > alpha``; Bentkus and
tight-Hoeffding p-values are provided for comparison, together with
FWER-controlling multiple-testing procedures and a seeded Monte Carlo
validation harness.
"""

from . import baselines, binomial, fwer, mc, prw
from .binomial import *  # noqa: F403
from .prw import *  # noqa: F403
from .baselines import *  # noqa: F403
from .fwer import *  # noqa: F403
from .mc import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *binomial.__all__, *prw.__all__, *baselines.__all__, *fwer.__all__, *mc.__all__,
    "__version__",
]
