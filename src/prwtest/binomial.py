"""Numerically stable exact binomial tail probabilities.

Every tail of one law ``Bin(n, p)`` is read from a single table.  Each side
of the mode m is a half of the table, built from a correctly rounded anchor
at m the first time a query reads it: the term-ratio recurrence fills that
side of the support out to where the mass drops below the smallest
subnormal double, and each tail is accumulated from its far end inward and
stored once, so values deep in a tail keep full relative precision instead
of being lost to cancellation against 1.  A query below m never builds the
half above it; a PRW step reads k <= gamma - 1 <= m, so builds it only when
gamma - 1 = m.  The anchor comes from a tight enclosure of the exact
rational term, so its cost barely grows with n.  Tables, the package's one
per-law cache, live in an LRU of ``_TABLE_CACHE_SIZE`` laws, so once a half
is built ``cdf`` and ``sf`` read it as lookups.  This module is the single
special-function dependency of every bound in the package.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from bisect import bisect_left
from functools import lru_cache

__all__ = ["BinomialParams", "cdf", "sf"]

# Distinct (n, p) laws whose tail tables are kept.
_TABLE_CACHE_SIZE = 64
# Positions of the two halves and of the PRW step record in a table (see ``_tail_table``).
_BELOW, _ABOVE, _STEPS = 1, 2, 3

# Terms are carried as mantissa * 2**exponent relative to the mode term; a
# mantissa that drops below _RESCALE is renormalised with frexp.  Terms below
# 2**_CUT_EXP times the mode term (itself >= 1/(n+1)) are beyond the smallest
# subnormal together with the whole rest of their tail, and are not stored.
_RESCALE = 2.0**-500
_CUT_EXP = -1200

# Bits kept in each mantissa of the anchor's enclosure (see ``_anchor``).
_ANCHOR_BITS = 128
# Up to this min(j, n - j), math.comb(n, j) costs less than the Stirling
# enclosure of ``_comb_bounds``: each takes about 0.1 ms at the switch.
_EXACT_COMB_MAX = 600
# Decimal digits of the Stirling enclosure: its rounding slack
# n * 10**(6 - prec) stays below 2**-80 for every n up to sys.maxsize.
_DECIMAL_PREC = 50
# ln 2 to _DECIMAL_PREC digits and ln(2 pi) / 2 to 60, as strings: no import loads decimal.
_LN2 = "0.69314718055994530941723212145817656807550013436026"
_HALF_LN_2PI = "0.918938533204672741780329736405617639861397473637783412817152"
# B_2i / (2i (2i - 1)) for i = 1..4; the i = 5 term, 1/1188, bounds the remainder.
_STIRLING = ((1, 12), (-1, 360), (1, 1260), (-1, 1680))


def _check_positive_int(value, name: str) -> int:
    try:
        v = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be a positive integer, got {value!r}") from None
    if v < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return v


def _check_open_unit(value, name: str) -> float:
    v = float(value)
    if not 0.0 < v < 1.0:  # NaN fails every comparison
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
    return v


def _check_closed_unit(value, name: str) -> float:
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return v


def _check_weights(values, name: str) -> None:
    if any(v < 0.0 or math.isnan(v) for v in values):
        raise ValueError(f"{name} must be non-negative")
    try:
        total = math.fsum(values)
    except OverflowError:  # finite values whose sum exceeds the largest double
        total = math.inf
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"{name} must sum to 1, got {total!r}")


class Record:
    """Base of the package's immutable value classes.

    ``__init__`` sets the ``_fields`` by position or keyword.  Equality, hash,
    the ``Name(field=value, ...)`` repr and copies read them in that order;
    setting or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        if kwargs:  # append the keyword fields in order; a missing one shortens args
            args += tuple(kwargs.pop(name) for name in self._fields[len(args):] if name in kwargs)
        if kwargs or len(args) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class BinomialParams(Record):
    """Trial count ``n`` and success probability ``p`` of a binomial law; step records keep one."""

    __slots__ = _fields = ("n", "p")

    def __init__(self, n: int, p: float) -> None:
        count = _check_positive_int(n, "n")
        if count > sys.maxsize:  # math.comb's limit, met by the exact fallback anchor
            raise ValueError(f"n must be at most {sys.maxsize}, got {n!r}")
        super().__init__(count, _check_closed_unit(p, "p"))


def cdf(params: BinomialParams, k: int) -> float:
    """P(Bin(n, p) <= k), saturating outside the support.

    k < 0 returns 0 and k >= n returns 1.  Other k read the law's tail table
    (see ``_tail_table``): below the mode its lower tail as summed, from the
    mode on 1 - P(X >= k + 1).  The half a query reads is built on its first
    read, so a query below the mode never builds the half above it.  Tables
    are kept for the 64 most recently used laws and are empty at p = 0 or 1.
    Values hold 1e-12 relative error, which the tests check against exact
    rational sums at n = 1000 and 5000 for p = 0.1, 0.5 and 0.9 (and at
    n = 10_000 for p = 0.5), and against 200-bit mpmath: full sums within
    30 standard deviations at n = 1e5 and 1e6 (p = 0.1, 0.5), and sums
    outward from 6 to 34 deviations out up to n = 1e9 (p = 0.1, 0.3).
    A tail below the smallest subnormal double is 0.0.
    """
    k = operator.index(k)
    n, p = params.n, params.p
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    table = _tail_table(n, p)
    m, below, above, _ = table
    if k < m:
        lo, tails = below or _half(n, p, _BELOW)
        return tails[k - lo] if k >= lo else 0.0
    hi, tails = above or _half(n, p, _ABOVE)
    return 1.0 - tails[hi - 1 - k] if k < hi else 1.0


def sf(params: BinomialParams, t: int) -> float:
    """P(Bin(n, p) >= t), saturating outside the support.

    Read from ``cdf``'s table, with its accuracy, cache and step at p = 0
    or 1.  Above the mode the sum over [t, n] is read as summed from the
    half above the mode, and only up to the mode taken as 1 - cdf(t - 1)
    from the half below it, so tiny survival probabilities keep their
    relative precision down to the smallest normal double.
    """
    t = operator.index(t)
    n, p = params.n, params.p
    if t <= 0:
        return 1.0
    if t > n:
        return 0.0
    table = _tail_table(n, p)
    m, below, above, _ = table
    if t > m:
        hi, tails = above or _half(n, p, _ABOVE)
        return tails[hi - t] if t <= hi else 0.0
    lo, tails = below or _half(n, p, _BELOW)
    return 1.0 - tails[t - 1 - lo] if t > lo else 1.0


def _first_cdf(n: int, p: float, reached) -> int:
    """Smallest k with ``reached(P(Bin(n, p) <= k))`` for a valid law and a test
    false at 0.0, true at 1.0 and monotone between.  Bisects the half below the mode,
    and the half above it only when no k below qualifies; makes no ``cdf`` call."""
    lo, tails = _half(n, p, _BELOW)
    k = lo + bisect_left(tails, True, key=reached)
    if k < lo + len(tails):
        return k
    hi, tails = _half(n, p, _ABOVE)
    # tails[i] = P(X >= hi - i): cdf(hi - 1 - i) falls as i grows
    return hi - bisect_left(tails, True, key=lambda x: not reached(1.0 - x))


def _pmf_exact(n: int, p: float, j: int) -> float:
    """Correctly rounded P(Bin(n, p) = j), treating p as its exact binary value.

    Exact integer arithmetic over the common denominator d**n of p = a/d,
    rounded once by the integer true division.  Its powers have about
    n * 53 bits, so by n = 1e5 it takes a second; the tables take their
    anchor from ``_anchor`` and come here only when that enclosure straddles
    a rounding boundary.  The tests use it as the reference.
    """
    a, d = p.as_integer_ratio()
    return math.comb(n, j) * a**j * (d - a) ** (n - j) / d**n


def _anchor(n: int, p: float, j: int) -> float:
    """``_pmf_exact(n, p, j)`` for 0 < p < 1, without its big-integer powers.

    Encloses comb(n, j) * a**j * (d - a)**(n - j) / d**n, d being a power
    of two, between two products of _ANCHOR_BITS-bit mantissas scaled by
    one power of two.  Rounding is monotone, so when both bounds round to
    the same double that double is the correctly rounded value.  Otherwise
    the exact value lies within the enclosure's relative width (below
    n * 2**-124 + 2**-88, see the helpers) of a rounding boundary, and the
    exact path decides.  A value halfway between two doubles has so few
    bits that no factor is cut and both bounds equal it, so ``float``
    rounds it half to even as the exact path does.  The bounds round to
    normal doubles: they enclose a value of at least 1/(n + 1) when j is
    the mode.
    """
    a, d = p.as_integer_ratio()
    comb_lo, comb_hi, e = _comb_bounds(n, j)
    e -= (d.bit_length() - 1) * n
    bounds = []
    for comb, up in ((comb_lo, False), (comb_hi, True)):
        a_mant, a_exp = _pow_bound(a, j, up)
        c_mant, c_exp = _pow_bound(d - a, n - j, up)
        bounds.append(math.ldexp(float(comb * a_mant * c_mant), e + a_exp + c_exp))
    lo, hi = bounds
    return lo if lo == hi else _pmf_exact(n, p, j)


def _pow_bound(x: int, k: int, up: bool) -> tuple[int, int]:
    """(mantissa, exponent) of a bound on x**k: above it if ``up``, else below.

    Square-and-multiply that cuts each product to _ANCHOR_BITS bits,
    rounding every cut the same way, so no mantissa exceeds _ANCHOR_BITS
    bits.  A cut moves the bound by less than 2**(1 - _ANCHOR_BITS)
    relative, and each later squaring doubles that, so the two bounds end
    at most 8 * k * 2**-_ANCHOR_BITS apart.
    """
    mant, exp = 1, 0
    for bit in f"{k:b}":
        mant *= mant
        exp *= 2
        if bit == "1":
            mant *= x
        cut = mant.bit_length() - _ANCHOR_BITS
        if cut > 0:
            mant = -(-mant >> cut) if up else mant >> cut
            exp += cut
            if mant.bit_length() > _ANCHOR_BITS:  # an upward cut carried to 2**_ANCHOR_BITS
                mant >>= 1
                exp += 1
    return mant, exp


def _comb_bounds(n: int, j: int) -> tuple[int, int, int]:
    """(lo, hi, exponent) with lo * 2**exponent <= comb(n, j) <= hi * 2**exponent.

    math.comb when min(j, n - j) is at most _EXACT_COMB_MAX, where it is the
    cheaper of the two; otherwise Stirling's series for the three
    log-factorials, which at that size needs four terms for a remainder
    below 2**-90.
    """
    k = min(j, n - j)
    if k <= _EXACT_COMB_MAX:
        comb = math.comb(n, k)
        cut = max(0, comb.bit_length() - _ANCHOR_BITS)
        return comb >> cut, -(-comb >> cut), cut
    import decimal  # only this branch needs it, so no other path loads it
    with decimal.localcontext(decimal.Context(prec=_DECIMAL_PREC)):
        log_comb = _log_factorial(n) - _log_factorial(k) - _log_factorial(n - k)
        # The first omitted term of each series bounds its remainder.  Each
        # decimal operation rounds by at most 10**(1 - prec) / 2 relative to
        # a term below 50 * n, so the few dozen of them stay far inside
        # n * 10**(6 - prec).
        slack = 3 / decimal.Decimal(1188 * k**9) + decimal.Decimal(n).scaleb(6 - _DECIMAL_PREC)
        ln2 = decimal.Decimal(_LN2)
        exp = int(log_comb / ln2) - _ANCHOR_BITS
        scaled = log_comb - exp * ln2  # ln(comb / 2**exp), about _ANCHOR_BITS * ln 2
        # exp() rounds its result of about 2**_ANCHOR_BITS by far less than 1
        return int((scaled - slack).exp()) - 1, int((scaled + slack).exp()) + 2, exp


def _log_factorial(x: int) -> decimal.Decimal:
    """ln(x!) from Stirling's series to the x**-7 term, in the current decimal context."""
    from decimal import Decimal
    inv = Decimal(1) / x
    series = 0
    for num, den in reversed(_STIRLING):
        series = series * inv * inv + Decimal(num) / den
    return (x + Decimal("0.5")) * Decimal(x).ln() - x + Decimal(_HALF_LN_2PI) + series * inv


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _tail_table(n: int, p: float) -> list:
    """Tail table ``[m, below, above, steps]`` of Bin(n, p) for 0 <= p <= 1.

    m is the mode.  ``below`` is ``(lo, tails)`` with ``tails[k - lo]`` =
    P(X <= k) for lo <= k < m, and ``above`` is ``(hi, tails)`` with
    ``tails[hi - t]`` = P(X >= t) for m < t <= hi: each tail once, far end
    first, as summed from that end inward (see ``_inward_tails``).  The other
    side's tail is 1 minus it, and it is at most about 1 - 1/e, so no
    relative precision is lost.  Terms outside [lo, hi] are below
    2**_CUT_EXP times the mode term (at p = 0 or 1 all but the mode, so
    lo = m = hi and both halves are empty), so P(X <= k) is 0 left of the
    window and 1 from hi on.  A half is None until ``_half`` builds it for
    the first read that needs it.  ``steps`` is None until a ``TestSpec`` of
    the law reads a PRW step; then it is the law's step record, which every
    spec of the law shares (see ``TestSpec._load_steps``), so a law's record
    and its tails leave the cache together.  A list, so that the cached
    table fills in place; each half holds its far edge, not its length,
    because unpacking is most of the cost of a warm query.
    """
    m = min(n, math.floor((n + 1) * p))
    if p == 0.0 or p == 1.0:
        empty = m, array("d")
        return [m, empty, empty, None]
    return [m, None, None, None]


def _half(n: int, p: float, side: int) -> tuple[int, array]:
    """Half ``side`` (_BELOW or _ABOVE) of Bin(n, p)'s ``_tail_table``, built on first use.

    Each half takes its own anchor at the mode m, P(X = m) correctly
    rounded, so both halves start from the same bits; every other term
    w_j = P(X = j)/P(X = m) comes from the term-ratio recurrence, carried as
    a mantissa and a power of two so deep-tail terms keep their relative
    precision.  Each ratio is one correctly rounded quotient of integers,
    from p = a/d taken exactly, so no rounding of 1 - p biases every step
    the same way.  Threads that race on one half build it with the same
    operations, so whichever copy is stored holds the same values.
    """
    table = _tail_table(n, p)
    if table[side]:  # built already
        return table[side]
    m = table[0]
    anchor = _anchor(n, p, m)
    a, d = p.as_integer_ratio()
    c = d - a
    if side == _BELOW:  # P(X <= k) for k = lo, ..., m - 1
        tails = _inward_tails(anchor, *_sweep(
            range(m, 0, -1), lambda j: j * c / ((n - j + 1) * a)
        ))
        edge = m - len(tails)
    else:  # P(X >= t) for t = hi, ..., m + 1
        tails = _inward_tails(anchor, *_sweep(
            range(m, n), lambda j: (n - j) * a / ((j + 1) * c)
        ))
        edge = m + len(tails)
    table[side] = half = edge, array("d", tails)
    return half


def _sweep(steps, ratio):
    """Terms w_j = P(X = j)/P(X = m) on one side of the mode m, walking outward.

    ``ratio(j)`` is w_next / w_j for the next term out from j, one correctly
    rounded integer quotient, so each step adds a single rounding of the
    ratio and one of the product.  Returns the mantissas and exponents
    (w = mantissa * 2**exponent) and the ratios, nearest the mode first.
    Stops at the end of the support or once a term falls below 2**_CUT_EXP.
    """
    w, e = 1.0, 0
    mantissas, exponents, ratios = [], [], []
    for j in steps:
        r = ratio(j)
        w *= r
        if w < _RESCALE:
            if w == 0.0:
                break
            w, shift = math.frexp(w)
            e += shift
            if e < _CUT_EXP:
                break
        mantissas.append(w)
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
