"""Competitor valid p-values: Bentkus and the tight (KL) Hoeffding bound.

Both test the same one-sided hypothesis ``H0: mean > alpha`` as the PRW
p-value and are assembled here into a side-by-side report for power
comparisons.
"""

from __future__ import annotations

import math

from .binomial import Record, _check_closed_unit, _check_open_unit, _first_cdf, cdf
from .prw import TestSpec, _snapped_ceil, prw_pvalue

__all__ = ["PValueReport", "bentkus_pvalue", "kl_bernoulli", "hoeffding_tight_pvalue", "compare"]


class PValueReport(Record):
    """All three p-values for one observed empirical risk."""

    __slots__ = _fields = ("rhat", "alpha", "n", "prw", "bentkus", "hoeffding_tight")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for name in self._fields[3:]:
            _check_closed_unit(getattr(self, name), f"{name} p-value")


def bentkus_pvalue(rhat: float, spec: TestSpec, *, clamp: bool = True) -> float:
    """Bentkus p-value ``min(1, e * P(Bin(n, alpha) <= ceil(n*rhat)))``.

    Uses the same integer-snapped ceiling as the PRW p-value, so the two
    step functions jump at identical grid points.  ``clamp=False`` reports
    the raw ``e * cdf`` value for diagnostics.  A clamped call at or past
    the law's cap, the first k with e * cdf(k) >= 1, kept in the law's step
    record (``TestSpec._load_steps``), is 1; any other call is one ``cdf`` query.
    A clamped call with n * rhat at or past the cap makes no snap either.
    """
    rhat = _check_closed_unit(rhat, "rhat")
    law, _, _, cap = record = spec._steps or spec._load_steps()
    if clamp:
        if cap is None:  # racing threads store the same cap
            cap = record[3] = _first_cdf(law.n, law.p, lambda x: math.e * x >= 1.0)
        if spec.n * rhat >= cap:  # the cap is an integer: round and ceil both reach it
            return 1.0
    k = _snapped_ceil(spec.n, rhat)[0]
    return 1.0 if clamp and k >= cap else math.e * cdf(law, k)


def kl_bernoulli(a: float, b: float) -> float:
    """KL divergence between Bernoulli(a) and Bernoulli(b), in nats.

    ``a*log(a/b) + (1-a)*log((1-a)/(1-b))`` with the conventions
    0*log(0/.) = 0 at both endpoints; exactly 0 when a == b.  The
    complementary term goes through log1p so values stay accurate as a
    approaches 0 or 1.  The two terms can cancel to a tiny negative sum
    when a is a few ulps from b; KL is never negative, so that reads 0.
    """
    a = _check_closed_unit(a, "a")
    return _kl_bernoulli(a, _check_open_unit(b, "b"))


def _kl_bernoulli(a: float, b: float) -> float:  # kl_bernoulli without its checks
    left = a * math.log(a / b) if a > 0.0 else 0.0
    right = (1.0 - a) * (math.log1p(-a) - math.log1p(-b)) if a < 1.0 else 0.0
    return max(0.0, left + right)


def hoeffding_tight_pvalue(rhat: float, spec: TestSpec, *, clamp: bool = True) -> float:
    """Tight Hoeffding p-value ``exp(-n * KL(min(rhat, alpha) || alpha))``.

    Evaluated at the raw empirical risk, not a grid ceiling, so the curve
    varies smoothly in rhat and equals 1 for every rhat >= alpha.  ``clamp``
    has no effect, as exp(-n * KL) <= 1: the three p-values share one call.
    """
    rhat = _check_closed_unit(rhat, "rhat")
    if rhat >= spec.alpha:
        return 1.0
    return math.exp(-spec.n * _kl_bernoulli(rhat, spec.alpha))


def compare(rhat: float, spec: TestSpec) -> PValueReport:
    """All three p-values at one empirical risk; PRW and Bentkus each snap rhat themselves."""
    return PValueReport(
        float(rhat), spec.alpha, spec.n,
        prw_pvalue(rhat, spec), bentkus_pvalue(rhat, spec), hoeffding_tight_pvalue(rhat, spec),
    )
