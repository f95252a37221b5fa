"""The PRW binomial-tail bound and its super-uniform p-value.

For i.i.d. losses in [0, 1] with unknown mean, the upper/lower tail of the
sample sum is bounded by an explicit multiple of a binomial tail.  Evaluated
at a grid-snapped ceiling of the observed empirical risk, the lower-tail
bound yields a step function whose value at the (capped) empirical risk is a
valid p-value for testing ``H0: mean > alpha``.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_right

from .binomial import (
    _BELOW, _STEPS, BinomialParams, Record, _check_closed_unit, _check_open_unit,
    _check_positive_int, _half, _tail_table, cdf, sf,
)

__all__ = [
    "TestSpec",
    "GBoundContext",
    "gamma_r",
    "ceil_scaled",
    "upper_tail_bound",
    "lower_tail_bound",
    "g",
    "g_inverse",
    "prw_pvalue",
]

# Slack under which n*t is treated as the integer it visibly is (risks j/n that
# went through float arithmetic land a few ulps off the grid): relative, and
# capped so that a large n*t keeps a real fraction above an integer.
SNAP_RTOL = 1e-9
SNAP_ATOL = 1e-6


def _snapped_ceil(n: int, t: float) -> tuple[int, bool]:
    """(ceil(n*t), False), or (i, True) when n*t is within the snap slack of i; 0 needs n*t = 0."""
    nt = n * t
    nearest = round(nt)
    d = abs(nt - nearest)
    if d <= SNAP_ATOL and (d <= SNAP_RTOL or d <= SNAP_RTOL * nt) and (nearest or not nt):
        return nearest, True
    return math.ceil(nt), False


class TestSpec(Record):
    """Context of the one-sided test ``H0: mean > alpha`` and of its step bound.

    The p-value is the bound at mean = alpha, so the test's (n, alpha) is
    also the bound's (n, mean).  Built as ``TestSpec(n, alpha)``.  The
    derived ``gamma`` is the smallest positive integer >= n*alpha and
    ``t_max = (gamma - 1)/n`` is the right endpoint of the bound's domain;
    the bound is only defined left of the binomial mean.  The slot ``_steps``
    is not a field: None until a step is read, then the step record of
    Bin(n, alpha), which every spec of that law shares (see ``_load_steps``).
    """

    _fields = ("n", "alpha", "gamma", "t_max")
    __slots__ = (*_fields, "_steps")

    def __init__(self, n: int, alpha: float) -> None:
        n = _check_positive_int(n, "n")
        alpha = _check_open_unit(alpha, "alpha")
        gamma = gamma_r(n, alpha)
        super().__init__(n, alpha, gamma, (gamma - 1) / n)
        object.__setattr__(self, "_steps", None)

    def __reduce__(self):  # gamma and t_max are derived
        return type(self), (self.n, self.alpha)

    def _load_steps(self) -> list:
        """Step record ``[law, lo, prw, cap]`` of law = Bin(n, alpha), kept in this slot and in
        the law's tail table for all its specs: the raw PRW steps at lo <= k <= m, the mode, at
        index k - lo (NaN until computed; below lo every step is 0.0), and Bentkus's cap, None
        until a clamped Bentkus call needs it.  The first step read of the law builds it."""
        table = _tail_table(self.n, self.alpha)
        if table[_STEPS] is None:
            law = BinomialParams(self.n, self.alpha)  # first: it rejects an n too large for a table
            lo, tails = _half(self.n, self.alpha, _BELOW)
            table[_STEPS] = [law, lo, array("d", [math.nan]) * (len(tails) + 1), None]
        object.__setattr__(self, "_steps", table[_STEPS])
        return self._steps

    @classmethod
    def from_mean(cls, n: int, mean: float) -> "TestSpec":
        """The step bound's context at (n, mean): ``TestSpec(n, mean)``."""
        return cls(n, mean)


# The bound's name for the same context, kept for existing callers.
GBoundContext = TestSpec


def gamma_r(n: int, mean: float) -> int:
    """Smallest positive integer r with r >= n*mean; always in [1, n].

    Equals n*mean itself when that product is an integer (up to the snap
    tolerance), the ceiling otherwise.
    """
    n = _check_positive_int(n, "n")
    mean = _check_open_unit(mean, "mean")
    return max(1, _snapped_ceil(n, mean)[0])


def ceil_scaled(n: int, t: float) -> int:
    """Ceiling of n*t with an integer-snap rule.

    If n*t sits within min(SNAP_RTOL * max(1, n*t), SNAP_ATOL) of an integer
    it is treated as that integer; otherwise the true ceiling is returned.
    """
    n = _check_positive_int(n, "n")
    return _snapped_ceil(n, _check_closed_unit(t, "t"))[0]


def upper_tail_bound(n: int, p: float, t: int) -> float:
    """Bound on P(sum of n i.i.d. [0,1] variables with mean p >= t).

    Returns ``(t - t*p)/(t - n*p) * P(Bin(n, p) >= t)`` for integer t with
    n*p < t <= n; t = n is allowed (the leading factor is then exactly 1).
    The value may exceed 1; callers interpreting it as a probability bound
    clamp it themselves.
    """
    n = _check_positive_int(n, "n")
    p = _check_open_unit(p, "p")
    t = operator.index(t)
    if not n * p < t <= n:
        raise ValueError(f"t must be an integer in (n*p, n] = ({n * p}, {n}], got {t}")
    # t(1 - p)/(t - np) over integers with p = a/d: one rounding, not five,
    # so the factor keeps its precision near the pole t = np
    a, d = p.as_integer_ratio()
    factor = t * (d - a) / (t * d - n * a)
    return factor * sf(BinomialParams(n, p), t)


def lower_tail_bound(n: int, mean: float, k: int) -> float:
    """Bound on P(sum of n i.i.d. [0,1] variables with the given mean <= k).

    Returns ``mean*(n - k)/(n*mean - k) * P(Bin(n, mean) <= k)`` for integer
    k in [0, n*mean).  Mirrors ``upper_tail_bound`` under the substitution
    losses -> 1 - losses.
    """
    n = _check_positive_int(n, "n")
    mean = _check_open_unit(mean, "mean")
    k = operator.index(k)
    # k <= gamma - 1 is the integer form of k < n*mean, robust to n*mean
    # landing a few ulps off an integer.
    if not 0 <= k <= gamma_r(n, mean) - 1:
        raise ValueError(f"k must be an integer in [0, n*mean) = [0, {n * mean}), got {k}")
    return _lower_step(BinomialParams(n, mean), k)


def _lower_step(law: BinomialParams, k: int) -> float:  # lower_tail_bound at a checked k
    a, d = law.p.as_integer_ratio()  # as in upper_tail_bound
    return a * (law.n - k) / (law.n * a - k * d) * cdf(law, k)


def g(t: float, ctx: TestSpec) -> float:
    """Step-function bound on P(empirical risk <= t) for t in [0, t_max].

    Left of the boundary the value is ``lower_tail_bound`` at the snapped
    ceiling of n*t.  At the boundary, where n*t snaps to gamma - 1 (or, past
    n = 4.5e9, rounds above it), the value is clamped below by 1, which makes
    the capped p-value valid.  g(0) equals (1 - alpha)**n exactly whenever
    gamma >= 2; no t > 0 snaps to it.  The only path from t to a PRW step, for
    ``prw_pvalue`` and ``g_inverse`` too: each step is computed once per law.
    """
    t = float(t)
    k, snapped = _snapped_ceil(ctx.n, t) if 0.0 <= t <= 1.0 else (-1, False)
    if not (0.0 <= t <= ctx.t_max or snapped and k == ctx.gamma - 1):
        raise ValueError(f"t must lie in [0, {ctx.t_max}], got {t!r}")
    return _g(k, snapped, ctx)


def _g(k: int, snapped: bool, ctx: TestSpec) -> float:  # g at the snapped ceiling of a valid t
    last = ctx.gamma - 1
    on_boundary = k > last or snapped and k == last
    k = last if on_boundary else k
    law, lo, steps, _ = ctx._steps or ctx._load_steps()
    value = steps[k - lo] if k >= lo else 0.0  # k <= last <= m
    if value != value:  # NaN: not yet computed
        value = steps[k - lo] = _lower_step(law, k)
    return 1.0 if on_boundary and value < 1.0 else value


def g_inverse(delta: float, ctx: TestSpec) -> float:
    """Largest grid point j/n whose bound value is still <= delta.

    The bound is a left-continuous step function jumping only at the grid
    points {0, 1/n, ..., (gamma-1)/n}, and its values there are
    non-decreasing, so a bisection over j in [0, gamma-2] is exact and reads
    O(log gamma) of ``g``'s stored steps by index; no root finding is
    involved.  The boundary point (gamma-1)/n never qualifies because its
    value is clamped to at least 1.  Satisfies ``g(g_inverse(delta)) <=
    delta`` while n*(j/n) snaps to j, which holds up to n = 4.5e9.

    Raises
    ------
    ValueError
        If delta < (1 - alpha)**n (no grid point qualifies), or when
        gamma = 1 so the domain contains only the boundary point.
    """
    delta = _check_open_unit(delta, "delta")
    if ctx.gamma == 1:
        raise ValueError(
            "the bound's domain holds only its boundary point, whose value is "
            "at least 1; no delta < 1 is attainable"
        )
    count = bisect_right(range(ctx.gamma - 1), delta, key=lambda j: _g(j, True, ctx))
    if count == 0:
        raise ValueError(
            f"delta={delta} is below the smallest attainable bound value "
            f"(1 - alpha)**n = {(1.0 - ctx.alpha) ** ctx.n}"
        )
    return (count - 1) / ctx.n


def prw_pvalue(rhat: float, spec: TestSpec, *, clamp: bool = True) -> float:
    """PRW p-value for ``H0: mean > alpha`` given the observed empirical risk.

    ``min(1, g(min(rhat, spec.t_max)))``.  ``clamp=False`` returns the raw
    bound value, which exceeds 1 in the capped region; useful for
    diagnostics only.  A clamped rhat >= t_max is 1 by construction and reads
    nothing; any other call reads one step of the law's record.
    """
    rhat = _check_closed_unit(rhat, "rhat")
    if rhat >= spec.t_max:  # g is clamped below by 1 at its boundary
        return 1.0 if clamp else g(spec.t_max, spec)
    k, snapped = _snapped_ceil(spec.n, rhat)
    value = _g(k, snapped, spec)
    return 1.0 if clamp and value > 1.0 else value
