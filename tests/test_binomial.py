"""Unit and property tests for the binomial tail primitives.

Frozen expected values were computed with the exact rational oracle in
``_oracle.py`` (see the test bodies that recompute them inline).
"""

import decimal
import itertools
import math
import sys
import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prwtest import binomial
from prwtest.baselines import bentkus_pvalue
from prwtest.binomial import BinomialParams, _tail_table, cdf, sf
from prwtest.prw import TestSpec, g_inverse, prw_pvalue

from _oracle import binom_cdf_exact, binom_sf_exact, lower_tail_bound_exact, rel_err
from conftest import filled

REL = 1e-12


class TestParams:
    def test_valid(self):
        p = BinomialParams(n=10, p=0.25)
        assert (p.n, p.p) == (10, 0.25)

    @pytest.mark.parametrize("n", [0, -3, 2.5, "4"])
    def test_bad_n(self, n):
        with pytest.raises(ValueError):
            BinomialParams(n=n, p=0.5)

    def test_n_above_maxsize_rejected(self):
        # math.comb in the exact fallback anchor refuses indices above sys.maxsize
        assert BinomialParams(sys.maxsize, 0.1).n == sys.maxsize
        with pytest.raises(ValueError, match=rf"^n must be at most {sys.maxsize}, got {10**20}$"):
            BinomialParams(10**20, 0.1)

    @pytest.mark.parametrize("p", [-0.1, 1.1, float("nan")])
    def test_bad_p(self, p):
        with pytest.raises(ValueError):
            BinomialParams(n=5, p=p)


class TestUnitChecks:
    """Both interval checks quote the argument as the caller passed it."""

    @pytest.mark.parametrize("check, interval", [
        (binomial._check_open_unit, "(0, 1)"), (binomial._check_closed_unit, "[0, 1]"),
    ])
    @pytest.mark.parametrize("value, shown", [
        (2, "2"), ("2", "'2'"), (np.float64(2.0), repr(np.float64(2.0))), (2.0, "2.0"),
        (-0.5, "-0.5"), (float("nan"), "nan"),
    ])
    def test_message_quotes_the_argument(self, check, interval, value, shown):
        with pytest.raises(ValueError) as exc:
            check(value, "x")
        assert str(exc.value) == f"x must lie in {interval}, got {shown}"


class TestCdf:
    def test_full_support(self):
        assert cdf(BinomialParams(100, 0.1), 100) == 1.0

    def test_saturation(self):
        params = BinomialParams(10, 0.3)
        assert cdf(params, -1) == 0.0
        assert cdf(params, 10) == 1.0
        assert cdf(params, 999) == 1.0

    def test_zero_successes(self):
        # 0.9**100 with 0.1 taken as its exact double
        got = cdf(BinomialParams(100, 0.1), 0)
        assert got == pytest.approx(2.656139888758746e-05, rel=REL)

    def test_small_lower_tail(self):
        got = cdf(BinomialParams(100, 0.1), 7)
        assert got == pytest.approx(0.20605086180401005, rel=REL)

    def test_degenerate_p(self):
        assert cdf(BinomialParams(5, 0.0), 0) == 1.0
        assert cdf(BinomialParams(5, 1.0), 4) == 0.0
        assert cdf(BinomialParams(5, 1.0), 5) == 1.0

    def test_exact_oracle_small_n(self):
        for n in (1, 2, 7, 19, 30):
            for p in (0.01, 0.2, 0.5, 0.93):
                params = BinomialParams(n, p)
                for k in range(n):
                    assert rel_err(cdf(params, k), binom_cdf_exact(n, p, k)) <= REL


class TestSf:
    def test_trivial_bounds(self):
        params = BinomialParams(100, 0.1)
        assert sf(params, 0) == 1.0
        assert sf(params, -5) == 1.0
        assert sf(params, 101) == 0.0

    def test_deep_tail_keeps_precision(self):
        # P(Bin(100, 0.1) >= 100) = 0.1**100: must not be lost to 1 - cdf
        got = sf(BinomialParams(100, 0.1), 100)
        assert got == pytest.approx(1.0000000000000056e-100, rel=REL)
        assert got > 0.0

    def test_degenerate_p(self):
        assert sf(BinomialParams(5, 0.0), 1) == 0.0
        assert sf(BinomialParams(5, 1.0), 5) == 1.0

    def test_exact_oracle_small_n(self):
        for n in (1, 5, 23, 30):
            for p in (0.05, 0.4, 0.88):
                params = BinomialParams(n, p)
                for t in range(1, n + 1):
                    assert rel_err(sf(params, t), binom_sf_exact(n, p, t)) <= REL


@given(
    n=st.integers(1, 500),
    p=st.floats(1e-9, 1 - 1e-9, allow_nan=False),
    data=st.data(),
)
def test_cdf_sf_complement(n, p, data):
    k = data.draw(st.integers(0, n - 1))
    params = BinomialParams(n, p)
    assert cdf(params, k) + sf(params, k + 1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, -0.0, 1.0])
@pytest.mark.parametrize("n", [1, 5, 1000])
def test_degenerate_law_is_a_step_at_its_point(n, p):
    # all the mass at m = 0 or n: an empty table, cdf [k >= m] and sf its complement
    m = 0 if p == 0.0 else n
    assert _tail_table(n, p) == [m, (m, array("d")), (m, array("d")), None]
    params = BinomialParams(n, p)
    for k in range(-1, n + 2):
        assert cdf(params, k).hex() == float(k >= m).hex(), ("cdf", k)
    for t in range(-1, n + 3):
        assert sf(params, t).hex() == float(t <= m).hex(), ("sf", t)


@given(n=st.integers(1, 300), p=st.floats(1e-9, 1 - 1e-9, allow_nan=False))
def test_cdf_non_decreasing_in_k(n, p):
    params = BinomialParams(n, p)
    values = [cdf(params, k) for k in range(-1, n + 1)]
    assert all(a <= b for a, b in zip(values, values[1:]))


@given(
    n=st.integers(2, 300),
    data=st.data(),
)
def test_cdf_non_increasing_in_p(n, data):
    k = data.draw(st.integers(0, n - 1))
    p1 = data.draw(st.floats(1e-9, 1 - 2e-9, allow_nan=False))
    p2 = data.draw(st.floats(p1, 1 - 1e-9, allow_nan=False))
    # float slack: the two tails are separate summations
    assert cdf(BinomialParams(n, p2), k) <= cdf(BinomialParams(n, p1), k) * (1 + 1e-9) + 1e-300


@settings(max_examples=30)
@given(
    n=st.integers(501, 5000),
    p=st.floats(0.001, 0.999, allow_nan=False),
    frac=st.floats(0.0, 1.0),
)
def test_cdf_large_n_sane(n, p, frac):
    k = min(n - 1, int(frac * n))
    v = cdf(BinomialParams(n, p), k)
    assert 0.0 <= v <= 1.0


def exact_lower_tails(n, p, ks):
    """{k: numerator of P(Bin(n, p) <= k)} over the common denominator d**n.

    p is taken as the exact value of its float, a/d.  Sums run by Horner's
    rule in integers from whichever end of the support is nearer, so the
    cost grows with min(k, n - k) rather than n: the lower end sums
    C(n, j) a**j c**(k-j) upward, the upper end C(n, j) c**(n-j) a**(j-t)
    downward and takes the complement exactly.
    """
    f = Fraction(p)
    a, d = f.numerator, f.denominator
    c = d - a
    dn = d**n
    out = {}
    acc, comb, apow, rest, j = 0, 1, 1, c ** (n + 1), 0
    for k in sorted(k for k in ks if 2 * k < n):
        while j <= k:
            acc = acc * c + comb * apow
            comb = comb * (n - j) // (j + 1)
            apow *= a
            rest //= c
            j += 1
        out[k] = acc * rest  # rest == c**(n - k)
    acc, comb, cpow, rest, j = 0, 1, 1, a**n, n
    for k in sorted((k for k in ks if 2 * k >= n), reverse=True):
        # the lower tail through k is 1 minus the upper tail from k + 1
        while j > k:
            acc = acc * a + comb * cpow
            comb = comb * j // (n - j + 1)
            cpow *= c
            rest //= a
            j -= 1
        out[k] = dn - acc * rest * a  # rest == a**k
    return out, dn


def table_samples(n, p):
    """Both deep tails, the neighbourhood of the mode, and the calibrate range.

    At (5000, 0.1), k = 0 gives cdf = 0.9**5000 ~ 1.6e-229 (the calibrate
    p-value at rhat = 0) and t = n gives sf = 0.1**5000, which is 0.0.
    """
    mode = math.floor((n + 1) * p)
    ks = {0, 1, 2, n - 3, n - 2, n - 1, n}
    ks |= set(range(max(0, mode - 5), min(n, mode + 6)))
    ks |= set(range(max(0, int(n * p) - 300), min(n, int(n * p) + 300), 37))
    if (n, p) == (5000, 0.1):
        ks |= set(range(200, 651, 9))
    return sorted(ks)


@pytest.mark.parametrize("n", [1000, 5000])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_table_matches_exact_rationals(n, p):
    ks = table_samples(n, p)
    lower, dn = exact_lower_tails(n, p, ks + [k - 1 for k in ks])
    params = BinomialParams(n, p)
    for k in ks:
        want_cdf = lower[k] / dn
        want_sf = (dn - lower[k - 1]) / dn
        assert abs(cdf(params, k) - want_cdf) <= REL * want_cdf, ("cdf", k)
        assert abs(sf(params, k) - want_sf) <= REL * want_sf, ("sf", k)


def test_tail_below_smallest_subnormal_is_zero():
    params = BinomialParams(10000, 0.5)
    assert cdf(params, 0) == 0.0
    assert sf(params, 10000) == 0.0
    # by symmetry P(X <= n/2) = 1/2 + P(X = n/2)/2
    want = Fraction(1, 2) + Fraction(math.comb(10000, 5000), 2**10001)
    assert rel_err(cdf(params, 5000), want) <= REL


def test_smallest_subnormal_survives():
    # P(Bin(1074, 1/2) = 0) = 2**-1074, the smallest positive double
    params = BinomialParams(1074, 0.5)
    assert cdf(params, 0) == 5e-324
    assert sf(params, 1074) == 5e-324


def test_tables_are_cached_per_law():
    # one table per law, and each half built once: later reads reuse it.  A
    # read looks the table up once, and once more in _half when it builds a half
    params = BinomialParams(777, 0.3)
    fresh_table(777, 0.3)
    cdf(params, 1)
    table = _tail_table(777, 0.3)
    below = table[binomial._BELOW]
    hits = _tail_table.cache_info().hits
    sf(params, 500)
    above = table[binomial._ABOVE]
    cdf(params, 200)
    sf(params, 600)
    assert _tail_table.cache_info().hits == hits + 4
    assert _tail_table.cache_info().maxsize is not None
    assert table[binomial._BELOW] is below and table[binomial._ABOVE] is above


@pytest.mark.parametrize("n,p", [(40, 0.3), (1, 0.4), (2, 0.999999), (60, 1e-300)])
def test_scalar_results_are_python_floats(n, p):
    params = BinomialParams(n, p)
    for k in range(n + 1):
        assert type(cdf(params, k)) is float
        assert type(sf(params, k)) is float


def mode(n, p):
    return min(n, math.floor((n + 1) * p))


# p from all of (0, 1), with extra weight on values near 0 (down to the
# smallest subnormal) and near 1 (up to 1 - 2**-53)
OPEN_UNIT = (
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    | st.floats(0.0, 1e-6, exclude_min=True)
    | st.floats(1 - 1e-6, 1.0, exclude_max=True)
)


class TestAnchor:
    """The table anchor: an enclosure that rounds to ``_pmf_exact`` bit for bit."""

    @settings(max_examples=100)
    @given(n=st.integers(1, 3000), p=OPEN_UNIT)
    def test_equals_the_exact_anchor(self, n, p):
        m = mode(n, p)
        assert binomial._anchor(n, p, m) == binomial._pmf_exact(n, p, m)

    @pytest.mark.parametrize("n,p", [
        (10_000, 0.1), (10_000, 0.5), (10_000, 0.9), (10_000, 1e-3),
        (30_000, 0.3), (30_000, 0.5), (30_000, 0.97), (30_000, 2**-30),
    ])
    def test_equals_the_exact_anchor_at_large_n(self, n, p):
        m = mode(n, p)
        assert binomial._anchor(n, p, m) == binomial._pmf_exact(n, p, m)

    @pytest.mark.parametrize("n,p", [(1, 0.3), (1, 0.2), (1, 1 / 3)])
    def test_ties_round_half_to_even(self, n, p):
        # P(X = 0) = 1 - p lies exactly halfway between two doubles
        m = mode(n, p)
        want = Fraction(math.comb(n, m)) * Fraction(p) ** m * (1 - Fraction(p)) ** (n - m)
        got = binomial._anchor(n, p, m)
        other = math.nextafter(got, 2.0 if want > got else 0.0)
        assert (Fraction(got) + Fraction(other)) / 2 == want
        assert math.frexp(got)[0] * 2**53 % 2 == 0  # the even neighbour
        assert got == binomial._pmf_exact(n, p, m)

    def test_wide_enclosure_falls_back_to_the_exact_anchor(self, monkeypatch):
        # 24-bit mantissas make the enclosure wider than an ulp, so many
        # anchors straddle a rounding boundary and must take the exact path
        exact = binomial._pmf_exact
        calls = []
        cases = [(n, p) for n in (7, 60, 400, 1500, 3000) for p in (0.1, 0.37, 0.5, 0.93)]
        want = [exact(n, p, mode(n, p)) for n, p in cases]
        monkeypatch.setattr(binomial, "_ANCHOR_BITS", 24)
        monkeypatch.setattr(binomial, "_pmf_exact", lambda *args: calls.append(args) or exact(*args))
        assert [binomial._anchor(n, p, mode(n, p)) for n, p in cases] == want
        assert 0 < len(calls) < len(cases)

    @given(st.tuples(st.integers(1, 2**60), st.integers(0, 3000))
           | st.tuples(st.integers(1, 2**1100), st.integers(0, 300)))
    @example((2**129 - 1, 1))  # the upward cut carries to 2**128
    def test_power_bounds_enclose(self, case):
        x, k = case
        exact = x**k
        lo, lo_exp = binomial._pow_bound(x, k, up=False)
        hi, hi_exp = binomial._pow_bound(x, k, up=True)
        assert lo * Fraction(2) ** lo_exp <= exact <= hi * Fraction(2) ** hi_exp
        assert max(lo.bit_length(), hi.bit_length()) <= binomial._ANCHOR_BITS

    @given(n=st.integers(1, 4000), data=st.data())
    def test_comb_bounds_enclose(self, n, data):
        # both branches: math.comb up to _EXACT_COMB_MAX, Stirling beyond it
        j = data.draw(st.integers(0, n))
        lo, hi, exp = binomial._comb_bounds(n, j)
        assert lo * Fraction(2) ** exp <= math.comb(n, j) <= hi * Fraction(2) ** exp
        assert (hi - lo) * 2**90 <= lo

    def test_stirling_constants(self):
        # strings and integer ratios, so that importing binomial loads no decimal;
        # ln 2 is the value a context of _DECIMAL_PREC digits computes
        mpmath = pytest.importorskip("mpmath")
        context = decimal.Context(prec=binomial._DECIMAL_PREC)
        assert decimal.Decimal(binomial._LN2) == context.ln(2)
        with mpmath.workprec(300):
            half_ln_2pi = mpmath.log(2 * mpmath.pi) / 2
            assert abs(mpmath.mpf(binomial._HALF_LN_2PI) - half_ln_2pi) < 1e-59
            assert abs(mpmath.mpf(binomial._LN2) - mpmath.log(2)) < 1e-50
            for i, (num, den) in enumerate(binomial._STIRLING, start=1):
                want = mpmath.bernoulli(2 * i) / (2 * i * (2 * i - 1))
                assert abs(mpmath.mpf(str(context.divide(num, den))) - want) < 1e-50


def mpmath_tails(n, p, ks):
    """{k: (P(X <= k), P(X >= k))} from a 200-bit mpmath recurrence sum.

    The mode term is mpmath's own binomial times the powers of p and 1 - p,
    taken as the exact values of p and its complement; the sum runs over
    the mode +- 35 standard deviations, beyond which the terms are below
    exp(-160) of any term within 30.
    """
    mpmath = pytest.importorskip("mpmath")
    a, d = p.as_integer_ratio()
    c = d - a
    m = mode(n, p)
    reach = math.ceil(35 * math.sqrt(n * p * (1 - p)))
    lo, hi = max(0, m - reach), min(n, m + reach)
    with mpmath.workprec(200):
        pf = mpmath.mpf(p)
        w_mode = mpmath.binomial(n, m) * pf**m * (1 - pf) ** (n - m)
        right, w = [w_mode], w_mode
        for j in range(m, hi):
            w = w * ((n - j) * a) / ((j + 1) * c)
            right.append(w)
        left, w = [], w_mode
        for j in range(m, lo, -1):
            w = w * (j * c) / ((n - j + 1) * a)
            left.append(w)
        terms = left[::-1] + right  # P(X = j) for j = lo, ..., hi
        lower = list(itertools.accumulate(terms))
        upper = list(itertools.accumulate(reversed(terms)))[::-1]
        return {k: (lower[k - lo], upper[k - lo]) for k in ks}


def mpmath_outward_tails(n, p, ks):
    """{k: (P(X <= k), P(X >= k))} for k off the mode, each summed outward from k.

    P(X = k) is mpmath's own 200-bit binomial times the powers of p and
    1 - p, as in ``mpmath_tails``.  The terms beyond k, on the side away
    from the mode, are summed relative to it as 200-bit fixed-point
    integers from the exact integer ratios, until one falls below 2**-130.
    The ratios shrink outward, so the rest is below 2**-130 / (1 - ratio),
    far under 1e-20 of the tail 6 standard deviations out.  The other tail
    is its complement plus P(X = k).  Up to about 130 000 integer steps
    per k at n = 1e9, a fraction of a second, where the full 200-bit mpmath
    sum takes seconds per law past n = 1e7.
    """
    mpmath = pytest.importorskip("mpmath")
    a, d = p.as_integer_ratio()
    c = d - a
    m = mode(n, p)
    one = 1 << 200
    tails = {}
    for k in ks:
        total = w = one
        j = k
        while w >> 70 and 0 < j < n:  # P(X = j) / P(X = k) >= 2**-130
            if k < m:
                w = w * (j * c) // ((n - j + 1) * a)
                j -= 1
            else:
                w = w * ((n - j) * a) // ((j + 1) * c)
                j += 1
            total += w
        with mpmath.workprec(200):
            pf = mpmath.mpf(p)
            pmf = mpmath.binomial(n, k) * pf**k * (1 - pf) ** (n - k)
            tail = pmf * total / one
            rest = 1 - tail + pmf
        tails[k] = (tail, rest) if k < m else (rest, tail)
    return tails


@pytest.mark.parametrize("p, n", [
    *((p, n) for n in (10**5, 10**6) for p in (0.1, 0.5)),
    *((p, n) for n in (10**7, 10**8, 10**9) for p in (0.1, 0.3)),
    (0.7231, 10**8),  # p > 1/2: the mode lies above n/2
])
def test_large_n_tails_match_mpmath(n, p):
    sd = math.sqrt(n * p * (1 - p))
    if n <= 10**6:
        zs, reference = (-30, -20, -12, -6, -2, -1, 0, 1, 2, 6, 12, 20, 30), mpmath_tails
    else:  # CI runs the full sums at n = 1e8 and 1e9 in a step of their own
        zs, reference = (-34, -20, -12, -6, 6, 12, 20, 34), mpmath_outward_tails
    ks = sorted({round(n * p + z * sd) for z in zs})
    params = BinomialParams(n, p)
    for k, (want_cdf, want_sf) in reference(n, p, ks).items():
        assert abs(cdf(params, k) - want_cdf) <= REL * want_cdf, ("cdf", k)
        assert abs(sf(params, k) - want_sf) <= REL * want_sf, ("sf", k)


def two_array_table(n, p):
    """``(lo, hi, lower, upper)``: the table as two arrays, from the same helpers.

    ``lower[i] = P(X <= lo + i)`` and ``upper[i] = P(X >= lo + i)`` over
    [lo, hi], each complement taken while the table is built.  The one-array
    table must read back these values bit for bit.
    """
    m = mode(n, p)
    anchor = binomial._anchor(n, p, m)
    a, d = p.as_integer_ratio()
    c = d - a
    below = binomial._inward_tails(anchor, *binomial._sweep(
        range(m, 0, -1), lambda j: j * c / ((n - j + 1) * a)
    ))
    above = binomial._inward_tails(anchor, *binomial._sweep(
        range(m, n), lambda j: (n - j) * a / ((j + 1) * c)
    ))
    above.reverse()
    lower = below + [1.0 - x for x in above] + [1.0]
    upper = [1.0] + [1.0 - x for x in below] + above
    return m - len(below), m + len(above), lower, upper


def fresh_table(n, p):
    """The law's cached table, emptied of both halves and of its step record: the next read
    builds them again."""
    table = _tail_table(n, p)
    table[binomial._BELOW] = table[binomial._ABOVE] = table[binomial._STEPS] = None
    return table


# Orders of the first reads of a fresh table: cdf from below the mode up,
# cdf from above the mode down, and sf first
FIRST_TOUCH = ("below", "above", "sf")


class TestTableLayout:
    """One stored tail per cut of the window, in two halves each built on first
    use, read back as the two-array table reads."""

    @given(n=st.integers(1, 3000), p=OPEN_UNIT)
    @example(n=10, p=0.05)  # m = 0: every stored tail is an upper tail
    @example(n=5, p=0.95)  # m = n: every stored tail is a lower tail
    @example(n=1074, p=0.5)  # tails down to the smallest subnormal
    @example(n=15, p=0.1)  # m = gamma - 1 at alpha = 0.1
    @example(n=2, p=5e-324)  # the second term underflows to 0.0 and ends the sweep
    def test_reads_equal_the_two_array_table(self, n, p):
        lo, hi, lower, upper = two_array_table(n, p)
        m = mode(n, p)
        params = BinomialParams(n, p)
        ks = range(-1, n + 2)
        for order in FIRST_TOUCH:
            table = fresh_table(n, p)
            got_cdf, got_sf = {}, {}
            if order == "below":
                got_cdf.update((k, cdf(params, k)) for k in ks)
            elif order == "above":
                got_cdf.update((k, cdf(params, k)) for k in reversed(ks))
            got_sf.update((k, sf(params, k)) for k in ks)
            got_cdf.update((k, cdf(params, k)) for k in ks if k not in got_cdf)
            below, above = table[binomial._BELOW], table[binomial._ABOVE]
            # no read inside the support reaches below m = 0 or above m = n
            assert (table[0], below is None, above is None) == (m, m == 0, m == n), order
            assert below is None or (below[0], len(below[1])) == (lo, m - lo), order
            assert above is None or (above[0], len(above[1])) == (hi, hi - m), order
            for k in ks:
                want_cdf = 0.0 if k < max(lo, 0) else lower[k - lo] if k <= hi else 1.0
                want_sf = 1.0 if k < max(lo, 1) else upper[k - lo] if k <= hi else 0.0
                assert got_cdf[k].hex() == want_cdf.hex(), (order, "cdf", k)
                assert got_sf[k].hex() == want_sf.hex(), (order, "sf", k)

    @pytest.mark.parametrize("n, p", [(1000, 0.37), (15, 0.1), (10, 0.05), (5, 0.95)])
    def test_a_read_builds_only_the_half_it_reads(self, n, p):
        m = mode(n, p)
        params = BinomialParams(n, p)
        for k in (-1, n):  # outside the support: no half
            table = fresh_table(n, p)
            cdf(params, k)
            sf(params, k + 1)
            assert table[binomial._BELOW:binomial._ABOVE + 1] == [None, None], k
        for read, arg, built in ((cdf, m - 1, binomial._BELOW), (sf, m, binomial._BELOW),
                                 (cdf, m, binomial._ABOVE), (sf, m + 1, binomial._ABOVE)):
            if (0 <= arg < n) if read is cdf else (1 <= arg <= n):  # inside the support
                table = fresh_table(n, p)
                read(params, arg)
                other = binomial._BELOW + binomial._ABOVE - built
                assert table[built] is not None and table[other] is None, (read, arg)

    @pytest.mark.parametrize("n, alpha", [
        (1000, 0.1), (400, 0.3), (100, 0.1), (3000, 0.1), (1000, 0.3), (5000, 0.1),
    ])
    def test_prw_and_clamped_bentkus_leave_the_above_half_unbuilt(self, n, alpha):
        # the laws of the benchmark's curves workload (plotdata, compare and
        # g_inverse) and of its calibrate workload, (5000, 0.1): PRW reads
        # k <= gamma - 1 < m there, and Bentkus's cap lies below the mode
        table = fresh_table(n, alpha)
        spec = TestSpec(n, alpha)
        assert spec.gamma - 1 < table[0]
        for j in range(n + 1):
            for rhat in (j / n, (j + 0.37) / n):
                if rhat <= 1.0:
                    prw_pvalue(rhat, spec)
                    bentkus_pvalue(rhat, spec)
        for delta in (0.01, 0.05, 0.1):
            g_inverse(delta, spec)
        assert table[binomial._BELOW] is not None and table[binomial._ABOVE] is None
        assert spec._steps[3] < table[0]  # the law's Bentkus cap

    def test_a_prw_step_at_the_mode_builds_the_above_half(self):
        # at (100, 0.105) gamma - 1 = 10 is the mode: 0.0999999999999 snaps onto
        # the boundary k = 10, and cdf(10) reads the half above the mode
        table = fresh_table(100, 0.105)
        spec = TestSpec(100, 0.105)
        assert spec.gamma - 1 == table[0] == 10
        assert prw_pvalue(0.0999999999999, spec) == 1.0
        assert table[binomial._ABOVE] is not None
        raw = prw_pvalue(0.0999999999999, spec, clamp=False)
        assert raw.hex() == "0x1.38e2c6ba31acbp+3"
        assert rel_err(raw, lower_tail_bound_exact(100, 0.105, 10)) <= REL

    @pytest.mark.parametrize("n, p", [(1000, 0.37), (100, 0.1), (15, 0.1), (10, 0.05)])
    def test_the_record_slot_stays_empty_until_a_spec_reads_a_step(self, n, p):
        # cdf and sf build both halves and leave the slot empty; the first step
        # read of a spec puts the law's record there, and every spec shares it
        table = fresh_table(n, p)
        params = BinomialParams(n, p)
        for k in range(-1, n + 2):
            cdf(params, k)
            sf(params, k)
        spec = TestSpec(n, p)
        assert (table[binomial._ABOVE] is not None, table[binomial._STEPS]) == (True, None)
        prw_pvalue(0.0, spec, clamp=False)
        record = table[binomial._STEPS]
        assert spec._steps is record and record[:2] == [params, table[binomial._BELOW][0]]
        other = TestSpec(n, p)
        assert bentkus_pvalue(1.0, other) == 1.0 and other._steps is record

    def test_a_cleared_table_cache_gives_a_new_spec_a_new_empty_record(self, cold):
        n, alpha = 100, 0.1
        warm = TestSpec(n, alpha)
        want = [(prw_pvalue(j / n, warm), bentkus_pvalue(j / n, warm)) for j in range(n + 1)]
        old = warm._steps
        steps = set(range(warm.gamma - 1))  # a clamped call at t_max reads no step
        assert (filled(warm), old[3]) == (steps, 9)
        _tail_table.cache_clear()
        fresh = TestSpec(n, alpha)
        bentkus_pvalue(0.05, fresh, clamp=False)  # reads the record, fills no step
        record = fresh._steps
        assert record is _tail_table(n, alpha)[binomial._STEPS] and record is not old
        assert (record[0], record[1], filled(fresh), record[3]) == (old[0], old[1], set(), None)
        assert [(prw_pvalue(j / n, fresh), bentkus_pvalue(j / n, fresh))
                for j in range(n + 1)] == want
        assert warm._steps is old and filled(warm) == steps

    def test_a_table_stores_one_double_per_window_entry(self):
        # the half below the mode alone, as a PRW query leaves it, then both
        n, p = 10**6, 0.1
        lo, hi, _, _ = two_array_table(n, p)
        m = mode(n, p)
        table = fresh_table(n, p)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            binomial._half(n, p, binomial._BELOW)
            retained_below = tracemalloc.get_traced_memory()[0] - before
            binomial._half(n, p, binomial._ABOVE)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert (table[binomial._BELOW][0], table[binomial._ABOVE][0]) == (lo, hi)
        assert retained_below <= 8 * (m - lo) + 16_384
        assert retained <= 8 * (hi - lo) + 16_384
