"""Numerically stable exact binomial tail probabilities.

Every tail of one law ``Bin(n, p)`` is read from a single table built on
first use: one exact anchor at the mode, the support on both sides filled
by the term-ratio recurrence out to where the mass drops below the smallest
subnormal double, and each tail accumulated from its far end inward, so
values deep in a tail keep full relative precision instead of being lost to
cancellation against 1.  Tables live in a bounded LRU cache of
``_TABLE_CACHE_SIZE`` laws, so after the first query ``cdf`` and ``sf`` are
lookups.  This module is the single special-function dependency of every
bound in the package.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache

__all__ = ["BinomialParams", "cdf", "sf"]

# Distinct (n, p) laws whose tail tables are kept.
_TABLE_CACHE_SIZE = 64

# Terms are carried as mantissa * 2**exponent relative to the mode term; a
# mantissa that drops below _RESCALE is renormalised with frexp.  Terms below
# 2**_CUT_EXP times the mode term (itself >= 1/(n+1)) are beyond the smallest
# subnormal together with the whole rest of their tail, and are not stored.
_RESCALE = 2.0**-500
_CUT_EXP = -1200


@dataclass(frozen=True)
class BinomialParams:
    """Trial count ``n`` and success probability ``p`` of a binomial law."""

    n: int
    p: float

    def __post_init__(self) -> None:
        try:
            n = operator.index(self.n)
        except TypeError:
            raise ValueError(f"n must be a positive integer, got {self.n!r}") from None
        if n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if n > sys.maxsize:  # math.comb's limit in the exact anchor
            raise ValueError(f"n must be at most {sys.maxsize}, got {self.n!r}")
        p = float(self.p)
        if math.isnan(p) or not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)


def cdf(params: BinomialParams, k: int) -> float:
    """P(Bin(n, p) <= k), saturating outside the support.

    Out-of-range k is accepted for caller convenience: k < 0 returns 0 and
    k >= n returns 1.  Interior values are looked up in the law's tail table
    (see ``_tail_table``), built once per (n, p) and kept for the 64 most
    recently used laws.  They hold 1e-12 relative error against exact
    rational sums, which the tests check at n = 1000 and 5000 for p = 0.1,
    0.5 and 0.9 (and at n = 10_000 for p = 0.5).  A tail below the smallest
    subnormal double is 0.0.
    """
    k = operator.index(k)
    n, p = params.n, params.p
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    lo, hi, lower, _ = _tail_table(n, p)
    if k < lo:
        return 0.0
    return lower[k - lo] if k <= hi else 1.0


def sf(params: BinomialParams, t: int) -> float:
    """P(Bin(n, p) >= t), saturating outside the support.

    Read from the same table as ``cdf``, with the same accuracy and cache.
    Above the mode the sum over [t, n] is accumulated directly rather than
    taken as 1 - cdf(t - 1), so tiny survival probabilities keep their
    relative precision down to the smallest normal double.
    """
    t = operator.index(t)
    n, p = params.n, params.p
    if t <= 0:
        return 1.0
    if t > n:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    lo, hi, _, upper = _tail_table(n, p)
    if t > hi:
        return 0.0
    return upper[t - lo] if t >= lo else 1.0


def _pmf_exact(n: int, p: float, j: int) -> float:
    """Correctly rounded P(Bin(n, p) = j), treating p as its exact binary value.

    Exact integer arithmetic over the common denominator d**n of p = a/d,
    rounded once by the integer true division, keeps the anchor term at
    1/2 ulp, which is what lets the tail tables hold 1e-12 relative error at
    large n (a log-gamma anchor alone drifts past that once n reaches the
    thousands).
    """
    a, d = p.as_integer_ratio()
    return math.comb(n, j) * a**j * (d - a) ** (n - j) / d**n


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _tail_table(n: int, p: float) -> tuple[int, int, array, array]:
    """Tail table ``(lo, hi, lower, upper)`` of Bin(n, p) for 0 < p < 1.

    ``lower[i] = P(X <= lo + i)`` and ``upper[i] = P(X >= lo + i)`` over the
    window [lo, hi] of terms at least 2**_CUT_EXP times the mode term; left
    of it the lower tail is 0 and the upper tail 1, right of it the other
    way round.  A plain tuple, because unpacking it is most of the cost of a
    warm query.

    One exact anchor at the mode m; every other term w_j = P(X = j)/P(X = m)
    comes from the term-ratio recurrence, carried as a mantissa and a power
    of two so deep-tail terms keep their relative precision.  The rounding
    of 1 - p would bias every ratio the same way, so its effect is removed
    from each term (see ``_sweep``) instead of compounding over thousands of
    steps.

    Each side's tail is accumulated from its far end inward (see
    ``_inward_tails``).  From the mode on, a tail is the complement of the
    other side's, which is at most about 1 - 1/e there, so the subtraction
    keeps the relative precision.
    """
    m = min(n, math.floor((n + 1) * p))
    anchor = _pmf_exact(n, p, m)
    q = 1.0 - p
    # 1 - p == q * (1 + drift) with |drift| < 2**-53; the ratios below use q,
    # so each term is off by (1 + drift)**(steps from the mode).
    drift = (-p - (q - 1.0)) / q
    below = _inward_tails(anchor, *_sweep(
        range(m, 0, -1), lambda j: j * q / ((n - j + 1) * p), drift
    ))  # P(X <= k) for k = lo, ..., m - 1
    above = _inward_tails(anchor, *_sweep(
        range(m, n), lambda j: (n - j) * p / ((j + 1) * q), -drift
    ))  # P(X >= t) for t = hi, ..., m + 1
    above.reverse()
    lower = array("d", below + [1.0 - x for x in above] + [1.0])
    upper = array("d", [1.0] + [1.0 - x for x in below] + above)
    return m - len(below), m + len(above), lower, upper


def _sweep(steps, ratio, drift):
    """Terms w_j = P(X = j)/P(X = m) on one side of the mode m, walking outward.

    ``ratio(j)`` is w_next / w_j for the next term out from j, computed with
    a relative bias of ``drift`` per step that is removed from each stored
    term at once (a per-step correction would round away).  Returns the
    mantissas and exponents (w = mantissa * 2**exponent) and the ratios,
    nearest the mode first.  Stops at the end of the support or once a term
    falls below 2**_CUT_EXP.
    """
    w, e = 1.0, 0
    mantissas, exponents, ratios = [], [], []
    for step, j in enumerate(steps, start=1):
        r = ratio(j)
        w *= r
        if w < _RESCALE:
            if w == 0.0:
                break
            w, shift = math.frexp(w)
            e += shift
            if e < _CUT_EXP:
                break
        mantissas.append(w + w * (step * drift))
        exponents.append(e)
        ratios.append(r)
    return mantissas, exponents, ratios


def _inward_tails(anchor, mantissas, exponents, ratios):
    """Tail probabilities through each of one side's terms, far end first.

    The tail through term k is P(X = k) * S_k with S_k = 1 + S_prev * r,
    where S_prev belongs to the term beyond k and r = w_prev / w_k is that
    term's outward ratio.  S_k stays between 1 and a small multiple of
    sqrt(n p (1 - p)), so it neither underflows nor amplifies rounding
    errors.
    """
    tails = []
    s = r = 0.0
    for i in range(len(mantissas) - 1, -1, -1):
        s = 1.0 + s * r
        tails.append(math.ldexp(anchor * mantissas[i] * s, exponents[i]))
        r = ratios[i]
    return tails
