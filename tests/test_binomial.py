"""Unit and property tests for the binomial tail primitives.

Frozen expected values were computed with the exact rational oracle in
``_oracle.py`` (see the test bodies that recompute them inline).
"""

import decimal
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prwtest import binomial
from prwtest.binomial import BinomialParams, _tail_table, cdf, sf

from _oracle import binom_cdf_exact, binom_sf_exact, rel_err

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
    params = BinomialParams(777, 0.3)
    cdf(params, 1)
    hits = _tail_table.cache_info().hits
    sf(params, 500)
    cdf(params, 200)
    assert _tail_table.cache_info().hits == hits + 2
    assert _tail_table.cache_info().maxsize is not None


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


@pytest.mark.parametrize("n", [10**5, 10**6])
@pytest.mark.parametrize("p", [0.1, 0.5])
def test_large_n_tails_match_mpmath(n, p):
    sd = math.sqrt(n * p * (1 - p))
    ks = sorted({round(n * p + z * sd) for z in (-30, -20, -12, -6, -2, -1, 0, 1, 2, 6, 12, 20, 30)})
    params = BinomialParams(n, p)
    for k, (want_cdf, want_sf) in mpmath_tails(n, p, ks).items():
        assert abs(cdf(params, k) - want_cdf) <= REL * want_cdf, ("cdf", k)
        assert abs(sf(params, k) - want_sf) <= REL * want_sf, ("sf", k)
